"""The package never loads scipy or a process pool: every command runs on numpy
alone, in one process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
for name in ("scipy", "multiprocessing", "concurrent.futures"):
    sys.modules[name] = None  # any import of it now raises ImportError
sys.path.insert(0, sys.argv[1])
import numpy as np
import hostile_pac
from hostile_pac.datagen import AR1, GaussianNoise, true_risk_closed_form
from hostile_pac.harness import load_config, run_aggregate, run_bound, run_coverage
from hostile_pac.param_space import AtomSet
from hostile_pac.risk import ZeroOneLoss

demo = sys.argv[2] + "/bound_demo.yaml"
run_bound(load_config(demo))
run_aggregate(load_config(demo))
run_coverage(load_config(demo, ["experiment.replications=50"]))
for name in ("erm_finite_class", "coverage_ar1_t7"):
    run_coverage(load_config(sys.argv[2] + f"/{name}.yaml", ["experiment.replications=50"]))
spec = AR1(a=0.5, noise=GaussianNoise(variance=1.0))
true_risk_closed_form(spec, AtomSet(np.array([[0.1, 0.4]])), ZeroOneLoss())
"""


def test_package_runs_without_scipy():
    result = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "configs")],
                            capture_output=True, text=True, cwd=ROOT, stdin=subprocess.DEVNULL)
    assert result.returncode == 0, result.stderr


SETUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import hostile_pac
from hostile_pac.harness import load_config

load_config(sys.argv[2] + "/coverage_iid_t5.yaml")
loaded = sorted(name for name in sys.modules if name.startswith("numpy.random"))
assert not loaded, loaded
"""


def test_import_and_load_config_leave_numpy_random_unloaded():
    # Every command pays for its imports before any work; numpy.random loads
    # with the first generator drawn, not before.
    result = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(ROOT / "src"),
                             str(ROOT / "configs")],
                            capture_output=True, text=True, cwd=ROOT, stdin=subprocess.DEVNULL)
    assert result.returncode == 0, result.stderr
