"""The certificate chain runs on numpy alone; scipy loads only for AR(1) work."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import hostile_pac
from hostile_pac.harness import load_config, run_aggregate, run_bound, run_coverage

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:3]

assert not scipy_modules(), ("import", scipy_modules())
demo = sys.argv[2] + "/bound_demo.yaml"
run_bound(load_config(demo))
run_aggregate(load_config(demo))
run_coverage(load_config(demo, ["experiment.replications=50"]))
run_coverage(load_config(sys.argv[2] + "/erm_finite_class.yaml", ["experiment.replications=50"]))
assert not scipy_modules(), ("run", scipy_modules())
"""


def test_iid_and_classification_runs_load_no_scipy():
    result = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "configs")],
                            capture_output=True, text=True, cwd=ROOT, stdin=subprocess.DEVNULL)
    assert result.returncode == 0, result.stderr
