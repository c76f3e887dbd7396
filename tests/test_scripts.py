"""The experiment scripts run end to end on tiny inputs."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,expect", [
    ("run_scaling.py", ["--M", "16,32", "--trials", "3"], "max relative deviation"),
    ("run_entanglement.py", ["--per-class", "5", "--seeds", "1"], "3q-five-class"),
])
def test_script_runs(script, args, expect, tmp_path):
    """Each script finds the package from its own location, from any directory."""
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert expect in out


@pytest.mark.parametrize("script,args,named", [
    ("run_scaling.py", ["--trials", "0"], "trials must be >= 1"),
    ("run_entanglement.py", ["--seeds", "0"], "seeds must hold at least one corpus seed"),
])
def test_script_refuses_empty_work(script, args, named, tmp_path):
    """No trials or no seeds fails with a one-line message that names the
    argument, not a traceback."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and named in proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
