"""Rewrite tests/golden/manifest.json: the sha256 of every file the commands
of tests/golden/commands.txt write, each run in-process through
``qknn_sim.cli.main`` in one scratch directory, in order.

    PYTHONPATH=src python tests/golden/regenerate.py

A change that means to move an output runs this and lists every digest that
moved, with the reason; any other change leaves the manifest alone.
``verify.json`` enters as its invariant verdicts only, one "name pass" line
each in ``verify-verdicts.txt``, as CI's parity step compares it.
"""
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

from qknn_sim import cli

HERE = Path(__file__).resolve().parent
COMMANDS = HERE / "commands.txt"
MANIFEST = HERE / "manifest.json"


def commands() -> list[list[str]]:
    """The argument lists of commands.txt: one command a line, # comments."""
    lines = (line.split("#", 1)[0].strip() for line in COMMANDS.read_text().splitlines())
    return [shlex.split(line) for line in lines if line]


def run_all(workdir: Path) -> dict[str, str]:
    """Run every command in ``workdir``; {file name: sha256} of what they wrote."""
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for args in commands():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(args)
            if code != 0:
                raise RuntimeError(f"qknn-sim {shlex.join(args)} exited {code}")
    finally:
        os.chdir(home)
    verify = workdir / "verify.json"
    if verify.exists():
        checks = json.loads(verify.read_text())["invariants"]
        (workdir / "verify-verdicts.txt").write_text(
            "".join(f"{c['name']} {c['pass']}\n" for c in checks))
        verify.unlink()
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(workdir.iterdir())}


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        digests = run_all(Path(workdir))
    MANIFEST.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"{MANIFEST}: {len(digests)} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
