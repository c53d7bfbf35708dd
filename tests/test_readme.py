import re
import runpy
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_readme_commands_are_the_ones_the_listing_tool_runs():
    # CI hashes the outputs of tools/readme_outputs.COMMANDS: they are the
    # README's commands, in order, with the same arguments but --out
    commands = runpy.run_path(str(ROOT / "tools" / "readme_outputs.py"))["COMMANDS"]
    shown = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.splitlines():
            if line.startswith("twinsource "):
                argv = shlex.split(line)[1:]
                at = argv.index("--out")
                shown.append(tuple(argv[:at] + argv[at + 2 :]))
    assert shown == list(commands)
