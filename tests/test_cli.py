import json
import warnings
from pathlib import Path

import pytest

from hostile_pac.aggregation import SolverError
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


def test_sweep_outputs(config_path, tmp_path, capsys):
    prefix = tmp_path / "sweep"
    code = main(["sweep", "--config", str(config_path), "--axis", "n",
                 "--values", "100,400", "--out", str(prefix)])
    assert code == 0
    lines = Path(f"{prefix}.records.jsonl").read_text().splitlines()
    assert [json.loads(line)["type"] for line in lines] == ["sweep_row", "sweep_row"]
    assert json.loads(Path(f"{prefix}.summary.json").read_text())["command"] == "sweep"
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "experiment.yaml", "sweep.records.jsonl", "sweep.summary.json"]


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
    # Both analytic s2 modes need the fourth noise moment: dof > 4.
    ("coverage_iid_t5", "generator.noise.dof=3", ["regime.s2", "generator.noise.dof"]),
    ("coverage_iid_t5", "generator.noise.dof=3 regime.s2=exact",
     ["regime.s2", "generator.noise.dof"]),
    # Prior sizes, checked at load time rather than when the prior is built.
    ("bound_demo", "prior.count=1", ["prior: count"]),
    ("bound_demo", "prior.dim=3", ["prior.dim"]),
    ("bound_demo", "prior.bounds=[[-1,1]] prior.law=uniform", ["unknown keys: prior.bounds"]),
    # Non-finite numbers, rejected where they are read rather than failing a solve later.
    ("bound_demo", "regime.s2=.inf", ["regime.s2"]),
    ("erm_finite_class", "regime.sigma2=.inf", ["regime.sigma2"]),
    ("coverage_ar1_t7", "regime.davydov_factor=.inf", ["regime.davydov_factor"]),
    ("erm_finite_class", "experiment.loss.threshold=.nan", ["experiment.loss.threshold"]),
    ("bound_demo", "experiment.p=.inf", ["experiment.p"]),
    ("erm_finite_class", "regime.optimize_q=false regime.q=.inf", ["regime.q"]),
    ("bound_demo", "generator.theta_star=[.nan,1]", ["generator.theta_star[0]"]),
    ("bound_demo", "generator.noise.dof=.inf", ["generator.noise.dof"]),
    ("bound_demo", 'generator.noise={"kind":"gaussian","variance":.inf}',
     ["generator.noise.variance"]),
    ("bound_demo", "prior.scale=.inf", ["prior.scale"]),
    # Negative seeds and scales, rejected where each spec is built.
    ("bound_demo", "prior.seed=-1", ["prior: seed"]),
    ("bound_demo", "prior.scale=-1", ["prior: scale"]),
    ("coverage_iid_t5", "generator.x_law.scale=-1", ["generator.x_law: scale"]),
    # Finite constants whose moment bound overflows: the sub-Gaussian M names the
    # keys that set it, the others the regime section.
    ("erm_finite_class", "regime.sigma2=1e308",
     ["regime.optimize_q", "regime.sigma2", "experiment.n"]),
    ("coverage_ar1_t7", "regime.davydov_factor=1e308", ["regime (mixing_unbounded)"]),
    ("bound_demo", "experiment.p=1e300", ["experiment.p"]),
    # rho_hat's D + 1 rounds below 1 at this p.
    ("bound_demo", "experiment.p=1e14", ["experiment.p"]),
    # A regime paired with a generator or loss it does not cover.
    ("coverage_ar1_t7", 'regime={"kind":"variance","s2":1.0}', ["generator.kind"]),
    ("bound_demo", 'regime={"kind":"mixing_bounded"}', ["generator.kind"]),
    ("bound_demo", "experiment.loss=zero_one", ["regime.s2"]),
    ("coverage_ar1_t7", 'regime={"kind":"mixing_bounded"}', ["experiment.loss"]),
    # A bound that overflows in Python's float power, and an envelope sum whose
    # 1 - exp(-c2/r) rounds to 0.
    ("erm_finite_class", "regime.optimize_q=false regime.q=2000",
     ["regime.q", "regime.sigma2", "experiment.n"]),
    ("coverage_ar1_t7", "generator.mixing.c2=1e-17", ["generator.mixing.c2"]),
    # A budget M/delta that overflows, and one whose M underflows to 0.
    ("coverage_ar1_t7", "experiment.delta=1e-320", ["regime (mixing_unbounded)", "experiment.delta"]),
    ("erm_finite_class", "regime.sigma2=1e-320", ["regime (subgaussian)", "experiment.delta"]),
    # The design is Gaussian and so is the prior's base law.
    ("coverage_iid_t5", 'generator.x_law={"kind":"uniform"}', ["generator.x_law.kind"]),
    ("bound_demo", "prior.law=gaussian", ["unknown keys: prior.law"]),
    # Closed-form moments that overflow in doubles: at a float power, in a sum of
    # moments, and in E u**4 - (E u**2)**2 = inf - inf; a warning would fail the test.
    ("coverage_iid_t5", "generator.x_law.scale=1e200",
     ["regime (variance)", "generator.x_law.scale"]),
    ("coverage_ar1_t7", "prior.scale=1e60", ["regime (mixing_unbounded)", "prior.scale"]),
    ("oracle_rate_gaussian", "prior.scale=1e200", ["regime (variance)", "prior.scale"]),
    # Sample sizes beyond numpy's index type and beyond its largest array.
    ("bound_demo", "experiment.n=1000000000000000000000", ["experiment.n"]),
    ("bound_demo", f"experiment.n={2**62}", ["experiment.n"]),
    # The grid prior is gone; the retired workers key still takes only positive counts.
    ("bound_demo", "prior.kind=uniform_grid", ["prior.kind"]),
    ("bound_demo", "experiment.workers=0", ["experiment.workers"]),
    # A generator's class attributes are not config keys.
    ("coverage_ar1_t7", "generator.min_n=1", ["unknown keys: generator.min_n"]),
    ("coverage_ar1_t7", "generator.independent_rows=false",
     ["unknown keys: generator.independent_rows"]),
])
def test_regime_value_errors_name_the_key(config, override, named, capsys):
    path = ROOT / "configs" / f"{config}.yaml"
    sets = [arg for item in override.split() for arg in ("--set", item)]
    assert main(["bound", "--config", str(path), *sets]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert all(key in err for key in named)


def test_huge_finite_budget_warns_nothing(capsys):
    # The level solve's starting bracket overflows at this budget; the least
    # bracket is finite, and the run is valid but vacuous.
    path = ROOT / "configs" / "bound_demo.yaml"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bound", "--config", str(path), "--set", "regime.s2=1e308"]) == 0
    assert capsys.readouterr().err == ""


def test_overflowing_prior_moment_fails_with_one_line(capsys):
    # tau = sum_j pi_j ||theta_j||**4 overflows at this prior scale; the
    # infinite moment bound is the one error, and nothing warns before it.
    path = ROOT / "configs" / "bound_demo.yaml"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bound", "--config", str(path), "--set", "prior.scale=1e200"]) == 1
    assert capsys.readouterr().err == (
        "config error: regime (variance): regime.s2: kappa: the closed-form moments give inf "
        "in doubles; lower generator.theta_star, generator.x_law.scale, generator.noise or "
        "prior.scale\n")


@pytest.mark.parametrize("config, override, key", [
    ("bound_demo", "generator.noise.scale=1e80", "generator.noise.scale"),
    ("coverage_ar1_t7", "generator.noise.scale=1e60", "generator.noise.scale"),
    ("oracle_rate_gaussian", "generator.noise.variance=1e200", "generator.noise.variance"),
])
def test_overflowing_noise_moment_fails_with_one_line(config, override, key, capsys):
    # The regime's analytic constant needs a noise moment past the largest double.
    path = ROOT / "configs" / f"{config}.yaml"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bound", "--config", str(path), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and key in err


@pytest.mark.parametrize("config, override, keys", [
    ("bound_demo", "regime.s2=1 generator.noise.scale=1e160", "generator.noise"),
    ("bound_demo", "regime.s2=1 generator.x_law.scale=1e308", "generator.x_law.scale"),
    ("bound_demo", "regime.s2=1 prior.scale=1e200", "prior.scale"),
    ("coverage_ar1_t7", "regime.moment_integral=1 generator.noise.scale=1e160",
     "generator.noise or prior.scale"),
])
def test_overflowing_data_fails_with_one_line(config, override, keys, capsys):
    # A numeric regime constant leaves no closed-form moment to overflow first:
    # the drawn data or their empirical risks overflow instead.
    path = ROOT / "configs" / f"{config}.yaml"
    sets = [arg for item in override.split() for arg in ("--set", item)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bound", "--config", str(path), *sets]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the data overflow doubles") and err.count("\n") == 1
    assert keys in err


@pytest.mark.parametrize("override", ["prior.scale=0", "experiment.n=1"])
def test_reported_divergence_plus_one_is_at_least_one(override, capsys):
    # Both overrides make pi_gamma equal to pi, where D + 1 = 1 rounds to just below 1.
    path = ROOT / "configs" / "bound_demo.yaml"
    records = []
    for command in ("bound", "aggregate"):
        assert main([command, "--config", str(path), "--set", override]) == 0
        records += [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    reported = [r for r in records if "divergence_plus_one" in r]
    assert reported and all(r["divergence_plus_one"] >= 1.0 for r in reported)
    assert [r["divergence_plus_one"] for r in reported if r.get("rho") == "pi_gamma"] == [1.0]


def test_population_budget_overflow_names_the_key(capsys):
    # bound spends M/delta, which is finite here; coverage's population level
    # spends 2**q * M/delta, which overflows.
    path = ROOT / "configs" / "erm_finite_class.yaml"
    sets = ["--set", "regime.optimize_q=false", "--set", "regime.q=1000",
            "--set", "experiment.replications=50"]
    assert main(["bound", "--config", str(path), *sets]) == 0
    capsys.readouterr()
    assert main(["coverage", "--config", str(path), *sets]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: regime (subgaussian): ") and err.count("\n") == 1
    assert "regime.q" in err and "experiment.delta" in err


def test_coverage_replication_floor_names_the_key(capsys):
    path = ROOT / "configs" / "erm_finite_class.yaml"
    assert main(["coverage", "--config", str(path), "--set", "experiment.replications=10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "experiment.replications" in err


@pytest.mark.parametrize("config, override", [
    ("bound_demo", "regime.s2=1 experiment.loss=zero_one"),
    ("erm_finite_class", "experiment.loss.threshold=0.5"),
])
def test_coverage_without_closed_form_risk_names_the_keys(config, override, capsys):
    path = ROOT / "configs" / f"{config}.yaml"
    sets = [arg for item in [*override.split(), "experiment.replications=50"]
            for arg in ("--set", item)]
    assert main(["coverage", "--config", str(path), *sets]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "experiment.loss" in err and "generator.kind" in err


@pytest.mark.parametrize("noise", [None, '{"kind":"gaussian","variance":0.0}'])
def test_coverage_without_closed_form_ar1_sign_risk_names_the_noise(noise, capsys):
    # The AR(1) zero-one risk has a closed form; the innovations rule it out.
    sets = ['regime={"kind":"mixing_bounded"}', "experiment.loss=zero_one",
            "experiment.replications=50", *([f"generator.noise={noise}"] if noise else [])]
    argv = ["coverage", "--config", str(ROOT / "configs" / "coverage_ar1_t7.yaml")]
    assert main([*argv, *(arg for item in sets for arg in ("--set", item))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: generator.noise: ") and err.count("\n") == 1
    assert "experiment.loss" not in err and "generator.kind" not in err


def test_sweep_over_a_p_the_regime_ignores_names_the_key(capsys):
    argv = ["sweep", "--config", str(ROOT / "configs" / "erm_finite_class.yaml"), "--axis", "p",
            "--values", "3,5", "--set", "experiment.replications=50"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("config error: regime.optimize_q ") and "experiment.p" in err


def test_overflowing_spend_fails_with_one_line(capsys):
    # The spend of the far atom overflows doubles before it reaches the budget,
    # so the level solve fails, and nothing warns before its one line.
    path = ROOT / "configs" / "oracle_rate_gaussian.yaml"
    prior = '{"kind":"explicit","atoms":[[0.3,-0.2],[1.0e149,1.0e149]],"weights":[1.0e-310,1.0]}'
    sets = ["generator.noise.variance=0", "regime.s2=100", f"prior={prior}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bound", "--config", str(path), *(a for s in sets for a in ("--set", s))]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("numerical failure: level solve did not reach")


def test_solver_failure_exit_code(config_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise SolverError("level solve did not reach residual tolerance")

    monkeypatch.setattr("hostile_pac.harness.solve_rbar", fail)
    assert main(["bound", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("value, code", [("1", 0), ("2", 0), ("0", 1), ("true", 1)])
def test_retired_workers_key_loads_at_any_positive_count(config_path, capsys, value, code):
    assert main(["bound", "--config", str(config_path),
                 "--set", f"experiment.workers={value}"]) == code
    if code:
        assert "config error: experiment.workers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bound", "sweep"])
def test_unwritable_out_prefix_fails_with_one_line(config_path, tmp_path, capsys, command):
    # The prefix's directory would sit where a file already is.
    blocker = tmp_path / "taken"
    blocker.write_text("")
    sweep = ["--axis", "n", "--values", "100"] if command == "sweep" else []
    assert main([command, "--config", str(config_path), *sweep,
                 "--out", str(blocker / "run")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: --out {blocker / 'run'}: ")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("suffix", ["/", "", "/."])
def test_out_prefix_without_a_file_name_fails_with_one_line(config_path, tmp_path, capsys,
                                                           suffix):
    # "DIR/" would write the hidden files DIR/.records.jsonl and DIR/.summary.json.
    prefix = "" if suffix == "" else f"{tmp_path / 'out'}{suffix}"
    assert main(["bound", "--config", str(config_path), "--out", prefix]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: --out {prefix}: ")
    assert not (tmp_path / "out").exists() and not list(Path().glob(".*.json*"))


@pytest.mark.parametrize("command, sets", [("bound", []), ("aggregate", ["regime.s2=1"])])
def test_explicit_atoms_that_are_not_one_array_fail_with_one_line(command, sets, capsys):
    # Atoms of shape (2, 2, 1): the bound died in the moment constant, and
    # aggregate wrote risks of a mis-shaped product.
    prior = '{"kind":"explicit","atoms":[[[0.5],[-0.3]],[[0.0],[0.0]]],"weights":[0.5,0.5]}'
    args = [arg for item in [*sets, f"prior={prior}"] for arg in ("--set", item)]
    assert main([command, "--config", str(ROOT / "configs" / "bound_demo.yaml"), *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("config error: prior: ")


def test_override_on_empty_file_is_a_config_error(tmp_path, capsys):
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert main(["bound", "--config", str(empty), "--set", "experiment.n=3"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text, argv, message", [
    (None, ["bound", "--set", "experiment.n=[1"],
     "--set experiment.n: '[1', line 1, column 3: expected ',' or ']', but got '<stream end>'"),
    (None, ["sweep", "--axis", "n", "--values", "100,[1"],
     "sweep n: --values item: '[1', line 1, column 3: expected ',' or ']', but got "
     "'<stream end>'"),
    (b"experiment: {n: 3\n", ["bound"],
     "FILE, line 2, column 1: expected ',' or '}', but got '<stream end>'"),
    (b"\xff\xfe" + CONFIG.encode(), ["bound"],
     "FILE, line 1, column 1: byte 0xff is not UTF-8 (invalid start byte)"),
    (b"experiment:\n  seed: 3\n" + CONFIG.encode(), ["bound"],
     "FILE, line 4, column 1: duplicate key 'experiment', first at line 1"),
    (CONFIG.replace("  n: 100\n", "  n: 100\n  n: 7\n").encode(), ["bound"],
     "FILE, line 5, column 3: duplicate key 'n', first at line 4"),
    (None, ["bound", "--set", 'regime={"kind": "variance", "s2": 1, "s2": 2}'],
     "--set regime: '{\"kind\": \"variance\", \"s2\": 1, \"s2\": 2}', line 1, column 31: "
     "duplicate key 's2', first at line 1"),
], ids=["set", "sweep-values", "file", "file-not-utf8", "file-duplicate-section",
        "file-duplicate-key", "set-duplicate-key"])
def test_value_that_is_not_yaml_fails_with_one_line(config_path, capsys, text, argv, message):
    # A PyYAML error spans several lines, and PyYAML keeps the last of two equal keys.
    if text is not None:
        config_path.write_bytes(text)
    assert main([argv[0], "--config", str(config_path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    expected = "config error: " + message.replace("FILE", str(config_path))
    assert captured.out == "" and captured.err.splitlines() == [expected]


@pytest.mark.parametrize("flags", [[], ["--seed", "4"], ["--set", "experiment.n=50"]],
                         ids=["plain", "seed", "set"])
def test_override_keeps_yaml_dates_as_the_plain_load_sees_them(tmp_path, capsys, flags):
    # A date is no JSON value; with or without an override the key is reported, not a traceback.
    dated = tmp_path / "dated.yaml"
    dated.write_text(CONFIG.replace("experiment:\n", "experiment:\n  note: 2020-01-01\n"))
    assert main(["bound", "--config", str(dated), *flags]) == 1
    assert capsys.readouterr().err.splitlines() == ["config error: unknown keys: experiment.note"]


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
