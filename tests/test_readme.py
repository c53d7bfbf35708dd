import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_imports_exist():
    # every `from twinsource... import ...` in the README's python examples runs
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    imports = [
        node
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "twinsource"
    ]
    assert imports
    for node in imports:
        exec(compile(ast.Module([node], []), str(README), "exec"), {})


def test_readme_config_example_passes_the_check(tmp_path):
    from twinsource import config

    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    path = tmp_path / "device.json"
    path.write_text(block, encoding="utf-8")
    config.check_config(config.load_config(path))
