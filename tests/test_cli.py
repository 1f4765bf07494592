import json
from pathlib import Path

import pytest

from hostile_pac.cli import main

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """
experiment:
  seed: 3
  n: 100
  replications: 50
  p: 2.0
  delta: 0.1
  loss: squared
  gamma_grid: {lo: 0.05, hi: 0.8, points: 5}
generator:
  kind: iid_regression
  theta_star: [0.5, -0.3]
  x_law: {kind: gaussian, scale: 1.0}
  noise: {kind: gaussian, variance: 0.25}
prior:
  kind: iid_sample
  count: 15
  dim: 2
  scale: 1.0
regime:
  kind: variance
  s2: kappa
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "experiment.yaml"
    path.write_text(CONFIG)
    return path


def test_bound_stdout(config_path, capsys):
    assert main(["bound", "--config", str(config_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1]["type"] == "summary"
    assert any(r.get("rho") == "rho_hat" for r in records)


def test_bound_output_files(config_path, tmp_path, capsys):
    # The suffixes are appended, so prefixes that differ after a dot never collide.
    out = tmp_path / "out"
    for seed in (1, 2):
        assert main(["bound", "--config", str(config_path), "--seed", str(seed),
                     "--out", str(out / f"run.w{seed}")]) == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "run.w1.records.jsonl", "run.w1.summary.json",
        "run.w2.records.jsonl", "run.w2.summary.json"]
    summary = json.loads((out / "run.w2.summary.json").read_text())
    assert summary["command"] == "bound" and summary["seed"] == 2


def test_aggregate_and_coverage(config_path, capsys):
    assert main(["aggregate", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[0])["type"] == "atom"

    assert main(["coverage", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1])
    assert summary["command"] == "coverage"
    assert summary["replications"] == 50


def test_sweep_csv(config_path, tmp_path, capsys):
    prefix = tmp_path / "sweep"
    code = main(["sweep", "--config", str(config_path), "--axis", "n",
                 "--values", "100,400", "--out", str(prefix)])
    assert code == 0
    csv_lines = prefix.with_suffix(".csv").read_text().splitlines()
    assert csv_lines[0].split(",")[0] == "axis"
    assert len(csv_lines) == 3


def test_seed_flag_overrides(config_path, capsys):
    assert main(["bound", "--config", str(config_path), "--seed", "9"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1])["seed"] == 9


def test_config_error_exit_code(config_path, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(CONFIG.replace("kind: variance", "kind: nonsense"))
    assert main(["bound", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err

    missing = tmp_path / "nope.yaml"
    assert main(["bound", "--config", str(missing)]) == 1


@pytest.mark.parametrize("config, override, named", [
    ("erm_finite_class", "regime.sigma2=-1", ["regime.sigma2"]),
    ("bound_demo", "regime.s2=-1", ["regime.s2"]),
    ("coverage_ar1_t7", "generator.noise.dof=5", ["regime.moment_integral", "generator.noise.dof"]),
    # Exponent rules, checked at load time; several overrides are space-separated.
    ("coverage_ar1_t7", "regime.r=2", ["regime.r", "regime.s"]),
    ("erm_finite_class", "regime.optimize_q=false regime.q=1.5", ["regime.q"]),
    ("erm_finite_class", "regime.optimize_q=false experiment.p=3", ["experiment.p"]),
    # A zero constant would give a zero moment bound; rejected at load time.
    ("bound_demo", "regime.s2=0", ["regime.s2"]),
    ("erm_finite_class", "regime.sigma2=0", ["regime.sigma2"]),
    ("coverage_ar1_t7", "generator.mixing.c1=0", ["generator.mixing.c1"]),
    ("coverage_ar1_t7", "generator.mixing=null", ["generator.mixing"]),
])
def test_regime_value_errors_name_the_key(config, override, named, capsys):
    path = ROOT / "configs" / f"{config}.yaml"
    sets = [arg for item in override.split() for arg in ("--set", item)]
    assert main(["bound", "--config", str(path), *sets]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and all(key in err for key in named)


def test_coverage_replication_floor_names_the_key(capsys):
    path = ROOT / "configs" / "erm_finite_class.yaml"
    assert main(["coverage", "--config", str(path), "--set", "experiment.replications=10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "experiment.replications" in err


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["bound", "--help"], 0),
    ([], 1),
    (["selftest"], 1),
    (["bound"], 1),
    (["bound", "--config", "x.yaml", "--seed", "one"], 1),
])
def test_usage_exit_codes(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert ("error:" in capsys.readouterr().err) == (code == 1)


def test_null_section_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "null_section.yaml"
    head, _, tail = CONFIG.partition("generator:")
    bad.write_text("experiment:\ngenerator:" + tail)
    assert main(["bound", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "experiment" in err


@pytest.mark.parametrize("value, code", [("0", 0), ("5", 1), ("-1", 1), ("true", 1)])
def test_retired_probes_key_loads_only_at_zero(config_path, capsys, value, code):
    assert main(["bound", "--config", str(config_path),
                 "--set", f"experiment.probes={value}"]) == code
    if code:
        assert "config error: experiment.probes" in capsys.readouterr().err


def test_override_on_empty_file_is_a_config_error(tmp_path, capsys):
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert main(["bound", "--config", str(empty), "--set", "experiment.n=3"]) == 1
    assert "config error" in capsys.readouterr().err


def test_assumption_violation_exit_code(tmp_path, capsys):
    cfg = """
experiment:
  seed: 3
  n: 100
  replications: 50
  p: 2.0
  delta: 0.1
  loss: squared
  gamma_grid: [0.9]
  require_complexity: true
generator:
  kind: iid_regression
  theta_star: [0.5, -0.3]
  x_law: {kind: gaussian, scale: 1.0}
  noise: {kind: gaussian, variance: 0.0}
prior:
  kind: explicit
  atoms: [[0.5, -0.3], [9.0, 9.0]]
  weights: [0.001, 0.999]
regime:
  kind: variance
  s2: kappa
"""
    path = tmp_path / "rigged.yaml"
    path.write_text(cfg)
    assert main(["bound", "--config", str(path)]) == 3
    assert "assumption violated" in capsys.readouterr().err
