"""Every file CI's output-parity commands write is pinned in tier-1.

The commands are tests/golden/commands.txt, the list CI's parity step runs on
the base commit and on the change; tests/golden/manifest.json holds the sha256
of each file they write, and tests/golden/regenerate.py rewrites it. Here they
run in-process, in order, in one scratch directory.
"""
import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parity_command_outputs_match_the_manifest(tmp_path):
    golden = _golden()
    want = json.loads(golden.MANIFEST.read_text())
    got = golden.run_all(tmp_path)
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert moved == [], f"outputs that differ from tests/golden/manifest.json: {moved}"
