import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_imports_exist():
    # every python example of the README runs whole, its imports included
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert any("from twinsource" in block for block in blocks)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_config_example_passes_the_check(tmp_path):
    from twinsource import config

    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    path = tmp_path / "device.json"
    path.write_text(block, encoding="utf-8")
    config.check_config(config.load_config(path))
