"""Run the seven README commands and list the sha256 of every file they write.

Usage::

    PYTHONPATH=src python tools/readme_outputs.py OUT_DIR

The commands run in OUT_DIR, with CSV tables into ``OUT_DIR/out`` and JSON
tables into ``OUT_DIR/json`` (both ``hom fit`` runs read the CSV scan). The
package is the one the caller's PYTHONPATH finds; relative entries are taken
from the current directory, so the same script lists any checkout's outputs.

Prints one ``sha256  path`` line per data file and sidecar, sorted by path
(relative to OUT_DIR); the run reports carry timings, so they are left out.
Exits non-zero when a command fails or a run report lists a warning. Two
listings of the same code, or of a change that keeps its outputs, are equal
line for line, so ``diff`` compares them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = (
    ("stack", "--lambda-min", "740", "--lambda-max", "780"),
    ("tuning",),
    ("spectrum", "--theta", "3.1", "--set", "pump.wavelength_nm=759.5"),
    ("hom", "simulate", "--seed", "7"),
    ("hom", "fit", "--scan", "out/hom_scan.csv"),
    ("enhancement",),
    ("counts",),
)
FORMATS = (("out", ()), ("json", ("--format", "json")))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/readme_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    root.mkdir(parents=True, exist_ok=True)
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in paths if p))
    for folder, fmt in FORMATS:
        for command in COMMANDS:
            cmd = [sys.executable, "-m", "twinsource.cli", *command, *fmt, "--out", f"{folder}/"]
            if subprocess.run([*cmd, "--quiet"], cwd=root, env=env).returncode != 0:
                print(f"failed: {' '.join(cmd[1:])}", file=sys.stderr)
                return 1
    status, lines = 0, []
    for folder, _ in FORMATS:
        for path in sorted((root / folder).iterdir()):
            name = f"{folder}/{path.name}"
            if path.name.endswith(".report.json"):
                warnings = json.loads(path.read_text())["warnings"]
                if warnings:
                    print(f"{name} lists warnings: {warnings}", file=sys.stderr)
                    status = 1
            else:
                lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}")
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
