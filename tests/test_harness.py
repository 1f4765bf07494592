import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from hostile_pac import datagen, harness
from hostile_pac.harness import (AssumptionError, ConfigError,
                                 ExperimentConfig,
                                 apply_overrides, config_from_dict,
                                 dump_record, fit_loglog_slope, load_config,
                                 resolve_moment, run_aggregate, run_bound,
                                 run_coverage, run_sweep, _setup)
from hostile_pac.datagen import (AR1, GaussianNoise, IidLinearRegression, _seed_sequences,
                                 IsotropicGaussianX, MixingBoundSpec, StudentTNoise)
from hostile_pac.moments import MixingUnboundedRegime, VarianceRegime
from hostile_pac.param_space import ExplicitPrior, IidSamplePrior, build_prior
from hostile_pac import risk
from hostile_pac.risk import SquaredLoss, ZeroOneLoss

ROOT = Path(__file__).resolve().parents[1]

BASE_YAML = """
experiment:
  seed: 42
  n: 200
  replications: 50
  p: 2.0
  delta: 0.1
  loss: squared
  gamma_grid: {lo: 0.05, hi: 0.8, points: 8}
generator:
  kind: iid_regression
  theta_star: [0.5, -0.3]
  x_law: {kind: gaussian, scale: 1.0}
  noise: {kind: student_t, dof: 5, scale: 1.0}
prior:
  kind: iid_sample
  count: 30
  dim: 2
  scale: 1.0
regime:
  kind: variance
  s2: kappa
"""


def base_config(**updates) -> ExperimentConfig:
    raw = yaml.safe_load(BASE_YAML)
    config = config_from_dict(raw)
    return dataclasses.replace(config, **updates) if updates else config


def test_config_parses_and_validates():
    config = base_config()
    assert config.n == 200 and config.delta == 0.1
    assert isinstance(config.generator, IidLinearRegression)
    assert isinstance(config.prior, IidSamplePrior)
    assert isinstance(config.loss, SquaredLoss)
    assert len(config.gamma_grid) == 8


def test_config_error_cases():
    raw = yaml.safe_load(BASE_YAML)
    bad = dict(raw)
    del bad["regime"]
    with pytest.raises(ConfigError):
        config_from_dict(bad)

    typo = yaml.safe_load(BASE_YAML)
    typo["experiment"]["replicationz"] = 3
    with pytest.raises(ConfigError):
        config_from_dict(typo)

    mix = yaml.safe_load(BASE_YAML)
    mix["regime"] = {"kind": "mixing_bounded"}
    with pytest.raises(ConfigError):  # mixing requires AR(1)
        config_from_dict(mix)

    p_low = yaml.safe_load(BASE_YAML)
    p_low["experiment"]["p"] = 1.5
    with pytest.raises(ConfigError):  # variance regime needs p >= 2
        config_from_dict(p_low)

    sg = yaml.safe_load(BASE_YAML)
    sg["regime"] = {"kind": "subgaussian"}
    with pytest.raises(ConfigError):  # sigma2 required
        config_from_dict(sg)

    ar = yaml.safe_load(BASE_YAML)
    ar["generator"] = {"kind": "ar1", "a": 0.5, "noise": {"kind": "gaussian", "variance": 1.0}}
    with pytest.raises(ConfigError):  # variance regime rejects dependent rows
        config_from_dict(ar)


# A regime kind that has each key, so the value check is what rejects it.
REGIME_OWNING = {"s2": {"kind": "variance"},
                 "sigma2": {"kind": "subgaussian"},
                 "optimize_q": {"kind": "subgaussian", "sigma2": 0.25},
                 "alpha_sum": {"kind": "mixing_bounded"},
                 "moment_integral": {"kind": "mixing_unbounded"}}


@pytest.mark.parametrize("section, key, value, named", [
    # Misspelled or foreign loss keys, truncating ints and truthy strings.
    ("experiment", "loss", {"kind": "zero_one", "thresh": 5}, "experiment.loss.thresh"),
    ("experiment", "loss", {"kind": "squared", "threshold": 1}, "experiment.loss.threshold"),
    ("experiment", "n", 200.7, "experiment.n"),
    ("regime", "optimize_q", "no", "regime.optimize_q"),
    # Strings outside each field's Literal choices.
    ("regime", "s2", "bogus", "regime.s2"),
    ("regime", "alpha_sum", "bogus", "regime.alpha_sum"),
    ("regime", "moment_integral", "bogus", "regime.moment_integral"),
    ("prior", "law", "cauchy", "prior.law"),
    # Negative regime constants, rejected at load time.
    ("regime", "s2", -1.0, "regime.s2"),
    ("regime", "sigma2", -1.0, "regime.sigma2"),
    # q = p/(p-1) rounds to 1, rejected at load time.
    ("experiment", "p", 1e300, "experiment.p"),
    # The variance regime needs p >= 2.
    ("experiment", "p", 1.0000001, "experiment.p"),
    # Finite values whose moment bound overflows, named when the bound is resolved.
    ("regime", "sigma2", 1e308, "regime (subgaussian)"),
    ("prior", "scale", 1e200, "regime (variance)"),
])
def test_config_rejects_bad_values_naming_the_key(section, key, value, named):
    raw = yaml.safe_load(BASE_YAML)
    if section == "regime":
        raw["regime"] = dict(REGIME_OWNING[key])
    raw[section][key] = value
    with pytest.raises(ConfigError, match=re.escape(named)) as info, \
            np.errstate(over="ignore"):
        _setup(config_from_dict(raw))
    assert section != "regime" or "unknown keys" not in str(info.value)


def test_student_t_ar1_burn_in_is_capped_naming_generator_a():
    path = ROOT / "configs" / "coverage_ar1_t7.yaml"
    largest = datagen.largest_burn_in_a()
    assert 0.99998 < largest < 0.99999
    assert datagen.burn_in_chunks(largest) == datagen.AR1_MAX_BURN_IN_CHUNKS
    assert datagen.burn_in_chunks(math.nextafter(largest, 1.0)) > datagen.AR1_MAX_BURN_IN_CHUNKS
    for a in (largest, -largest, 0.999):
        assert load_config(path, [f"generator.a={a!r}"]).generator.a == a
    for a in (0.99999, -math.nextafter(largest, 1.0)):
        with pytest.raises(ConfigError, match=re.escape("generator.a")) as info:
            load_config(path, [f"generator.a={a!r}"])
        assert repr(largest) in str(info.value)
    # Gaussian innovations start in their closed-form stationary law, with no burn-in.
    gaussian = ["generator.a=0.99999", "generator.noise={kind: gaussian, variance: 0.25}"]
    assert load_config(path, gaussian).generator.a == 0.99999


@pytest.mark.parametrize("prior, named", [
    ({"kind": "iid_sample", "count": 30, "dim": 1}, "prior.dim"),
    ({"kind": "explicit", "atoms": [[0.0, 1.0, 2.0]] * 2, "weights": [0.5, 0.5]}, "prior.atoms"),
    ({"kind": "explicit", "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5]}, "prior.atoms"),
])
def test_prior_dimension_must_match_the_generator(prior, named):
    raw = yaml.safe_load(BASE_YAML)
    raw["prior"] = prior
    with pytest.raises(ConfigError, match=re.escape(named)):
        config_from_dict(raw)


@pytest.mark.parametrize("kind, key, value", [
    ("variance", "q", 4.0),
    ("variance", "sigma2", 0.25),
    ("subgaussian", "s2", 1.0),
    ("mixing_bounded", "davydov_factor", 8.0),
    ("mixing_unbounded", "optimize_q", True),
])
def test_regime_rejects_keys_of_other_regimes(kind, key, value):
    raw = yaml.safe_load(BASE_YAML)
    raw["regime"] = {"kind": kind, key: value}
    with pytest.raises(ConfigError, match=re.escape(f"regime.{key}")):
        config_from_dict(raw)


AR1_GENERATOR = {"kind": "ar1", "a": 0.5, "noise": {"kind": "gaussian", "variance": 1.0},
                 "mixing": {"c1": 0.5, "c2": 0.7}}


@pytest.mark.parametrize("kind", ["mixing_bounded", "mixing_unbounded"])
def test_mixing_regimes_reject_p_other_than_2_naming_the_key(kind):
    raw = yaml.safe_load(BASE_YAML)
    raw["generator"] = AR1_GENERATOR
    raw["experiment"]["p"] = 1e6
    raw["regime"] = {"kind": kind}
    with pytest.raises(ConfigError, match=re.escape("experiment.p")):
        config_from_dict(raw)


def test_analytic_moment_integral_checked_at_load():
    raw = yaml.safe_load(BASE_YAML)
    raw["generator"] = AR1_GENERATOR
    raw["regime"] = {"kind": "mixing_unbounded", "r": 2.0, "s": 4.0}
    with pytest.raises(ConfigError, match=re.escape("regime.moment_integral")):
        config_from_dict(raw)
    raw["regime"]["moment_integral"] = 1.0
    assert config_from_dict(raw).regime.moment_integral == 1.0
    # The analytic integral needs sixth noise moments.
    raw["regime"] = {"kind": "mixing_unbounded"}
    raw["generator"] = dict(AR1_GENERATOR, noise={"kind": "student_t", "dof": 6.0})
    with pytest.raises(ConfigError, match="regime.moment_integral.*generator.noise.dof"):
        config_from_dict(raw)
    raw["generator"]["noise"]["dof"] = 7.0
    assert config_from_dict(raw).regime.moment_integral == "analytic"


def test_optimize_q_excludes_q():
    raw = yaml.safe_load(BASE_YAML)
    raw["regime"] = {"kind": "subgaussian", "sigma2": 0.25, "q": 4.0, "optimize_q": True}
    with pytest.raises(ConfigError, match=re.escape("regime.q")):
        config_from_dict(raw)


@pytest.mark.parametrize("regime", [{"q": 4.0}, {"optimize_q": True}])
def test_subgaussian_exponent_used_as_given(regime):
    raw = yaml.safe_load(BASE_YAML)
    raw["regime"] = {"kind": "subgaussian", "sigma2": 0.25, **regime}
    setup = _setup(config_from_dict(raw))
    expected = regime.get("q") or 2.0 * math.log(2.0 * 30 / 0.1)  # BASE_YAML: 30 atoms, delta 0.1
    assert setup.cfg.q == setup.cfg.moment.q == setup.constants["q"] == expected


@pytest.mark.parametrize("path", sorted(ROOT.glob("configs/*.yaml"))
                         + sorted(ROOT.glob("perfbench/configs/*.yaml")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_shipped_configs_load_and_set_up(path):
    setup = _setup(load_config(path))
    assert setup.cfg.moment.value > 0


def test_readme_configuration_example_loads():
    # The example under "Configuration format" is a config the parser accepts as printed.
    section = (ROOT / "README.md").read_text().split("## Configuration format", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    config = config_from_dict(yaml.safe_load(example))
    assert config.generator.x_law == IsotropicGaussianX(1.0)
    assert config.prior == IidSamplePrior(count=100, dim=2, scale=1.0, seed=101)
    assert config.regime == VarianceRegime("kappa")
    assert _setup(config).cfg.moment.value > 0


def test_readme_library_example_runs():
    # The block under "Library use" runs as printed, and its last line reads
    # the level: at rho_hat the upper certificate equals rbar.
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(example, namespace)
    assert namespace["weights"].shape == (1, 50)
    assert namespace["report"].row(0).upper == pytest.approx(namespace["level"][0], rel=1e-12)


def test_config_unknown_kind_names_the_key():
    raw = yaml.safe_load(BASE_YAML)
    raw["generator"]["noise"] = {"kind": "cauchy"}
    with pytest.raises(ConfigError, match=re.escape("generator.noise.kind")):
        config_from_dict(raw)


def test_config_defaults_come_from_the_dataclasses():
    raw = yaml.safe_load(BASE_YAML)
    for key in ("seed", "replications", "p", "gamma_grid"):
        del raw["experiment"][key]
    config = config_from_dict(raw)
    assert (config.seed, config.replications, config.p) == (0, 100, 2.0)
    assert config.gamma_grid == tuple(np.linspace(0.05, 0.9, 10).tolist())


def test_mixing_bounded_requires_zero_one_loss():
    raw = yaml.safe_load(BASE_YAML)
    raw["generator"] = {"kind": "ar1", "a": 0.5,
                        "noise": {"kind": "gaussian", "variance": 1.0},
                        "mixing": {"c1": 0.5, "c2": 0.7}}
    raw["regime"] = {"kind": "mixing_bounded"}
    with pytest.raises(ConfigError):
        config_from_dict(raw)
    raw["experiment"]["loss"] = {"kind": "zero_one"}
    config = config_from_dict(raw)
    assert isinstance(config.loss, ZeroOneLoss)


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(BASE_YAML)
    config = load_config(path, overrides=["experiment.n=400", "experiment.seed=7"])
    assert config.n == 400 and config.seed == 7
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")
    with pytest.raises(ConfigError):
        apply_overrides(yaml.safe_load(BASE_YAML), ["no_equals_sign"])


def test_resolve_moment_kappa_route():
    config = base_config()
    atoms, pi = build_prior(config.prior, config.seed)
    cfg, constants = resolve_moment(config, atoms, pi)
    assert cfg.q == 2.0 and constants["regime"] == "variance"
    assert constants["s2"] == pytest.approx(
        8.0 * (constants["ey4"] + constants["tau"] * constants["ex4"]))
    assert constants["c1"] is None


def test_resolve_moment_exact_below_kappa():
    config = base_config(regime=VarianceRegime(s2="exact"))
    atoms, pi = build_prior(config.prior, config.seed)
    cfg_exact, consts_exact = resolve_moment(config, atoms, pi)
    cfg_kappa, consts_kappa = resolve_moment(base_config(), atoms, pi)
    assert consts_exact["s2"] <= consts_kappa["s2"]
    assert cfg_exact.moment.value <= cfg_kappa.moment.value


AR1_T7 = dict(AR1_GENERATOR, noise={"kind": "student_t", "dof": 7.0, "scale": 0.5})
_ZERO_ONE_AR1 = {"loss": "zero_one", "generator": AR1_GENERATOR}
_NO_ENVELOPE = {"regime": None, "c1": None, "c2": None}


# Every route through resolve_moment: experiment overrides (plus the
# generator), the regime section, then (p, q, M) and the echoed constants.
@pytest.mark.parametrize("experiment, regime, pqm, constants", [
    ({}, {"kind": "variance", "s2": "kappa"},
     (2.0, 2.0, 2.076887736803201),
     dict(_NO_ENVELOPE, regime="variance", s2=415.37754736064016, s2_mode="kappa",
          tau=2.896924177510002, ey4=28.7468, ex4=8.0)),
    ({"p": 4.0}, {"kind": "variance", "s2": "exact"},
     (4.0, 1.3333333333333333, 0.3445309364403282),
     dict(_NO_ENVELOPE, regime="variance", s2=40.44569779226035, s2_mode="exact")),
    ({"p": 3.0}, {"kind": "variance", "s2": 0.5},
     (3.0, 1.5, 0.011180339887498949),
     dict(_NO_ENVELOPE, regime="variance", s2=0.5, s2_mode="given")),
    ({"p": 1.3}, {"kind": "subgaussian", "sigma2": 0.25},
     (1.3, 4.333333333333333, 2.4591380063984843e-05),
     dict(_NO_ENVELOPE, regime="subgaussian", sigma2=0.25, q=4.333333333333333)),
    ({}, {"kind": "subgaussian", "sigma2": 0.25, "q": 3.0},
     (1.5, 3.0, 0.00045927932677184585),
     dict(_NO_ENVELOPE, regime="subgaussian", sigma2=0.25, q=3.0)),
    ({}, {"kind": "subgaussian", "sigma2": 0.25, "optimize_q": True},
     (1.0847898871504638, 12.793859310432293, 6.4800557402974094e-12),
     dict(_NO_ENVELOPE, regime="subgaussian", sigma2=0.25, q=12.793859310432293,
          q_clamped=False)),
    (_ZERO_ONE_AR1, {"kind": "mixing_bounded"},
     (2.0, 2.0, 0.009932169318172318),
     {"regime": "mixing_bounded", "c1": 0.5, "c2": 0.7, "alpha_sum": 1.9864338636344634}),
    (_ZERO_ONE_AR1, {"kind": "mixing_bounded", "alpha_sum": 2.5},
     (2.0, 2.0, 0.0125),
     {"regime": "mixing_bounded", "c1": 0.5, "c2": 0.7, "alpha_sum": 2.5}),
    ({"generator": AR1_T7}, {"kind": "mixing_unbounded"},
     (2.0, 2.0, 4.952922660600645),
     {"regime": "mixing_unbounded", "c1": 0.5, "c2": 0.7, "r": 3.0, "s": 3.0,
      "moment_integral": 16.233372176488746, "alpha_frac_sum": 7.627686051229245,
      "davydov_factor": 8.0}),
    ({"generator": AR1_GENERATOR},
     {"kind": "mixing_unbounded", "r": 2.0, "s": 4.0, "moment_integral": 1.5, "alpha_sum": 3.0},
     (2.0, 2.0, 0.18),
     {"regime": "mixing_unbounded", "c1": 0.5, "c2": 0.7, "r": 2.0, "s": 4.0,
      "moment_integral": 1.5, "alpha_frac_sum": 3.0, "davydov_factor": 8.0}),
], ids=["variance-kappa", "variance-exact", "variance-given", "subgaussian-p",
        "subgaussian-q", "subgaussian-optimize_q", "mixing_bounded-envelope",
        "mixing_bounded-given", "mixing_unbounded-analytic", "mixing_unbounded-given"])
def test_resolve_moment_pins_every_route(experiment, regime, pqm, constants):
    raw = yaml.safe_load(BASE_YAML)
    experiment = dict(experiment)
    raw["generator"] = experiment.pop("generator", raw["generator"])
    raw["experiment"].update(experiment)
    raw["regime"] = regime
    config = config_from_dict(raw)
    cfg, echoed = resolve_moment(config, *build_prior(config.prior, config.seed))
    # The exponents keep their exact bits: p is experiment.p under variance,
    # q/(q - 1) under subgaussian and 2 under the mixing regimes.
    assert (cfg.p, cfg.q) == pqm[:2] and cfg.moment.q == cfg.q
    # Floats that pass through a BLAS dot product may move in the last bits
    # across machines; everything else matches exactly.
    assert cfg.moment.value == pytest.approx(pqm[2], rel=1e-12, abs=0.0)
    assert echoed.keys() == constants.keys()
    for key, value in constants.items():
        if type(value) is float:
            assert echoed[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
        else:
            assert type(echoed[key]) is type(value) and echoed[key] == value, key


def _bound_reports(result) -> dict[str, dict]:
    assert all(rec["type"] == "bound" for rec in result.records)
    return {rec["rho"]: rec for rec in result.records}


def test_run_bound_reports_and_ordering():
    result = run_bound(base_config())
    reports = _bound_reports(result)
    assert {"rho_hat", "prior", "erm"} <= set(reports)
    if result.summary["complexity_satisfied"]:
        assert "pi_gamma" in reports
    # The optimizer attains the smallest upper certificate.
    best = reports["rho_hat"]["upper"]
    for name, report in reports.items():
        assert best <= report["upper"] + 1e-9, name
    assert reports["rho_hat"]["upper"] == pytest.approx(result.summary["rbar"], rel=1e-8)
    # D + 1 is exactly 1 at the prior and pi_erm**(1 - p) at the ERM point mass.
    assert reports["prior"]["divergence_plus_one"] == 1.0
    atoms, pi = build_prior(base_config().prior, 42)
    pi_erm = pi.weights[result.summary["erm_index"]]
    assert reports["erm"]["divergence_plus_one"] == pytest.approx(1.0 / pi_erm, rel=1e-12)
    assert result.summary["command"] == "bound"


@pytest.mark.parametrize("name, certifies", [("bound_demo", False),
                                             ("oracle_rate_gaussian", True)])
def test_bound_oracle_is_certified_and_bounds_the_level(name, certifies):
    # bound_demo's proof point (rbar - min r_n)/2 lies far outside its gamma
    # interval, so no oracle is reported there.
    summary = run_bound(load_config(ROOT / "configs" / f"{name}.yaml")).summary
    assert summary["complexity_satisfied"]
    assert (summary["oracle_empirical"] is not None) == certifies
    if certifies:
        assert summary["oracle_empirical"] >= summary["rbar"]


def test_replication_oracle_bounds_the_level():
    config = dataclasses.replace(load_config(ROOT / "configs" / "oracle_rate_gaussian.yaml"),
                                 replications=50)
    records = run_coverage(config).records
    assert all(rec["complexity_certified"] for rec in records)
    for rec in records:
        assert rec["oracle_dim_bound"] >= rec["rbar"], rec["index"]


def test_run_bound_noiseless_erm_is_zero():
    config = base_config(
        generator=IidLinearRegression(theta_star=(0.5, -0.3),
                                      x_law=IsotropicGaussianX(1.0),
                                      noise=GaussianNoise(variance=0.0)),
        prior=ExplicitPrior(atoms=np.array([[0.5, -0.3], [0.0, 0.0], [1.0, 1.0]]),
                            weights=np.array([0.2, 0.4, 0.4])),
    )
    result = run_bound(config)
    assert _bound_reports(result)["erm"]["rn_integral"] == pytest.approx(0.0, abs=1e-15)


def test_run_bound_infinite_divergence_completes():
    # The truth atom carries no prior mass, so the ERM point mass is not
    # dominated by the prior and its certificate is vacuous but reported.
    config = base_config(
        generator=IidLinearRegression(theta_star=(0.5, -0.3),
                                      x_law=IsotropicGaussianX(1.0),
                                      noise=GaussianNoise(variance=0.0)),
        prior=ExplicitPrior(atoms=np.array([[0.5, -0.3], [0.0, 0.0], [1.0, 1.0]]),
                            weights=np.array([0.0, 0.5, 0.5])),
    )
    reports = _bound_reports(run_bound(config))
    assert math.isinf(reports["erm"]["margin"])
    assert math.isinf(reports["erm"]["upper"])
    assert np.isfinite(reports["rho_hat"]["upper"])


def test_run_bound_require_complexity():
    config = base_config(
        prior=ExplicitPrior(atoms=np.array([[0.5, -0.3], [5.0, 5.0]]),
                            weights=np.array([0.001, 0.999])),
        gamma_grid=(0.9,),
        require_complexity=True,
    )
    with pytest.raises(AssumptionError):
        run_bound(config)


def test_run_aggregate_records():
    records, summary = run_aggregate(base_config())
    assert len(records) == 30
    weights = np.array([r["rho_hat_weight"] for r in records])
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert summary["rbar"] > 0 and summary["command"] == "aggregate"


def test_run_coverage_small():
    report = run_coverage(base_config())
    assert report.summary["replications"] == 50
    assert 0.0 <= report.summary["coverage_two_sided"] <= 1.0
    assert 0.0 <= report.summary["coverage_oracle"] <= 1.0
    assert report.summary["coverage_two_sided"] >= 0.9  # conservative bound, tiny sample
    rec = report.records[0]
    for key in ("rbar", "margin_rho_hat", "hit_two_sided", "regime", "c1", "moment_bound"):
        assert key in rec
    assert report.summary["replications"] == 50


def test_oracle_level_sandwich_on_two_sided_event():
    # Whenever the two-sided certificate holds for the optimal weights, the
    # true risk integral is sandwiched below the spent level.
    report = run_coverage(base_config())
    for rec in report.records:
        if rec["hit_rho_hat"]:
            assert rec["rho_hat_true_integral"] <= rec["rbar"] + 1e-9


def test_run_coverage_erm_off_prior_support():
    # Noiseless data make the truth atom the ERM; it carries no prior mass,
    # so its point-mass certificate is vacuous and counts as a hit.
    config = base_config(
        generator=IidLinearRegression(theta_star=(0.5, -0.3),
                                      x_law=IsotropicGaussianX(1.0),
                                      noise=GaussianNoise(variance=0.0)),
        prior=ExplicitPrior(atoms=np.array([[0.5, -0.3], [0.0, 0.0], [1.0, 1.0]]),
                            weights=np.array([0.0, 0.5, 0.5])),
    )
    report = run_coverage(config)
    for rec in report.records:
        assert rec["erm_index"] == 0
        assert math.isinf(rec["margin_erm"]) and rec["hit_erm"] is True
    assert report.summary["coverage_erm"] == 1.0


def test_squared_loss_coverage_never_builds_the_loss_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the squared loss built the n x K loss table")

    monkeypatch.setattr(risk, "compute_loss_table", refuse)
    report = run_coverage(base_config())
    assert len(report.records) == report.summary["replications"] == 50


def test_run_coverage_requires_50_replications():
    with pytest.raises(ConfigError):
        run_coverage(base_config(replications=10))
    # A dataset index is one 32-bit seed word.
    with pytest.raises(ConfigError, match="at most 2\\*\\*32"):
        run_coverage(base_config(replications=2**32 + 1))


def test_run_coverage_records_merge_columns_then_constants(monkeypatch):
    # A column named "type" replaces the record type, and a constant replaces a
    # column of its name, as in {"type": "replication", **columns, **constants}.
    config = base_config()
    rows = np.arange(config.replications)
    columns = {"index": rows, "type": rows % 3, "seed": rows + 0.5, "hit": rows % 2 == 0}
    constants = {"seed": 42, "n": config.n}
    monkeypatch.setattr(harness, "_coverage", lambda config: (columns, {"type": "summary"},
                                                              constants))
    records, _ = run_coverage(config)
    expected = [{"type": "replication", **dict(zip(columns, row)), **constants}
                for row in zip(*(column.tolist() for column in columns.values()))]
    assert records == expected
    assert [list(record) for record in records] == [list(record) for record in expected]


def test_run_coverage_two_sided_implies_rho_hat():
    report = run_coverage(base_config())
    assert all(rec["hit_rho_hat"] for rec in report.records if rec["hit_two_sided"])
    assert all(rec["hit_two_sided"] == (rec["hit_rho_hat"] and rec["hit_sup"])
               and rec["hit_sup"] == (rec["sup_ratio"] <= 1.0) for rec in report.records)


def test_coverage_fails_below_the_critical_moment():
    # The coverage check can fail: with a moment bound of half the critical
    # moment M_crit the two-sided coverage falls below 1 - delta; at M_crit
    # it is at least 1 - delta.
    path = ROOT / "configs" / "oracle_rate_gaussian.yaml"
    summary = run_coverage(load_config(path)).summary
    bound, critical = summary["moment_bound"], summary["critical_moment"]
    assert summary["constant_slack"] == pytest.approx(
        summary["constant_layer"] * summary["markov_layer"], rel=1e-12)
    assert summary["constant_slack"] == pytest.approx(bound / critical, rel=1e-12)
    assert summary["certified_fraction"] == 1.0
    assert summary["coverage_oracle_certified"] == summary["coverage_oracle"]
    assert summary["q"] == 2.0  # so the moment bound (s2/n)**(q/2) is linear in s2
    coverage = {}
    for factor in (1.0, 0.5):
        s2 = summary["s2"] * factor * critical / bound
        report = run_coverage(load_config(path, [f"regime.s2={s2!r}"]))
        assert report.summary["moment_bound"] == pytest.approx(factor * critical, rel=1e-12)
        coverage[factor] = report.summary["coverage_two_sided"]
    assert coverage[1.0] >= 1.0 - summary["delta"] > coverage[0.5]


def test_run_coverage_reproducible_and_monotone_in_moment():
    config = base_config(replications=50)
    r1 = run_coverage(config)
    r2 = run_coverage(config)
    assert [dump_record(a) for a in r1.records] == [dump_record(b) for b in r2.records]
    assert dump_record(r1.summary) == dump_record(r2.summary)

    # Inflating the moment bound can only widen margins: coverage is monotone.
    inflated = base_config(replications=50, regime=VarianceRegime(s2=1e6))
    r3 = run_coverage(inflated)
    assert r3.summary["coverage_two_sided"] >= r1.summary["coverage_two_sided"]
    assert r3.summary["coverage_two_sided"] == 1.0


def test_run_coverage_block_size_equivalence(monkeypatch):
    # A replication counts K + n (k + 1) / 2 values: its data are held once, as
    # the QR copies fixed chunks of a block only. The 50 replications fit one
    # block of the 30-atom prior; a cap of one row certifies each alone, a cap
    # of 7 rows splits them into 8 blocks of 6 and 7 rows, and a cap of 16 into
    # 4 of 12 and 13. The uneven case, 51 replications under a cap of 16, takes
    # blocks of 12, 13, 13 and 13. At K = 3,000 the default cap is 26 rows at
    # n = 200 (2 blocks of 25) and 19 at n = 1,000 (16, 17 and 17), and each is
    # compared with one-row blocks. Each dataset draws from its own seed
    # sequence and every row sum reads its own row only, so every field of
    # every record and of the summary keeps its bytes.
    def values(config):
        assert config.n * (config.prior.dim + 1) % 2 == 0
        return config.prior.count + config.n * (config.prior.dim + 1) // 2

    sizes = []
    certify_block = harness._replication_block

    def run_blocks(config):
        sizes.clear()
        monkeypatch.setattr(harness, "_replication_block",
                            lambda *args: sizes.append(len(args[-1])) or certify_block(*args))
        run = run_coverage(config)
        monkeypatch.setattr(harness, "_replication_block", certify_block)
        return run, list(sizes)

    default_values = harness.COVERAGE_BLOCK_VALUES
    compared = []
    for replications, cases in ((50, ((1, [1] * 50), (7, [6, 6, 6, 7] * 2),
                                      (16, [12, 13] * 2))),
                                (51, ((16, [12, 13, 13, 13]),))):
        config = base_config(replications=replications)
        assert default_values // values(config) >= replications
        one_block, one_sizes = run_blocks(config)
        assert one_sizes == [replications]
        for rows, expected_sizes in cases:
            monkeypatch.setattr(harness, "COVERAGE_BLOCK_VALUES", rows * values(config))
            run, run_sizes = run_blocks(config)
            assert run_sizes == expected_sizes
            compared.append((one_block, run))
        monkeypatch.setattr(harness, "COVERAGE_BLOCK_VALUES", default_values)
    wide_prior = dataclasses.replace(base_config().prior, count=3000)
    for n, default_rows, default_sizes in ((200, 26, [25, 25]), (1000, 19, [16, 17, 17])):
        wide = base_config(replications=50, n=n, prior=wide_prior)
        assert default_values // values(wide) == default_rows
        monkeypatch.setattr(harness, "COVERAGE_BLOCK_VALUES", default_values)
        default_blocks, run_sizes = run_blocks(wide)
        assert run_sizes == default_sizes
        monkeypatch.setattr(harness, "COVERAGE_BLOCK_VALUES", values(wide))
        one_row, run_sizes = run_blocks(wide)
        assert run_sizes == [1] * 50
        compared.append((default_blocks, one_row))
    for expected_run, run in compared:
        # The slack summary is built from values the blocks return beside the records.
        pairs = [*zip(expected_run.records, run.records), (expected_run.summary, run.summary)]
        assert len(pairs) == len(run.records) + 1 == len(expected_run.records) + 1
        for expected, record in pairs:
            assert expected.keys() == record.keys()
            for key in expected:
                assert dump_record(record[key]) == dump_record(expected[key]), key


def test_even_blocks_split_in_order_within_one_row():
    # The fewest blocks under the cap, contiguous and in order, covering every
    # replication once, their sizes within one row of each other.
    for total in range(1, 601):
        for cap in range(1, total + 2):
            blocks = harness._even_blocks(total, cap)
            assert len(blocks) == -(-total // cap)
            assert blocks[0].start == 0 and blocks[-1].stop == total
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            lengths = [len(block) for block in blocks]
            assert 1 <= min(lengths) and max(lengths) <= min(cap, min(lengths) + 1)
            assert all(block.step == 1 for block in blocks)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**64 + 7])
def test_seed_sequences_are_those_of_the_seed_index_list(seed):
    # 2**64 reads as the words [0, 0, 1]: the zero words below the top one
    # are part of the entropy.
    for index in (0, 1, 2**32 - 1):
        block = _seed_sequences(seed, range(index, index + 1))
        assert len(block) == 1
        assert np.array_equal(block[0].generate_state(4, np.uint64),
                              np.random.SeedSequence([seed, 0, index]).generate_state(4, np.uint64))
    for got, index in zip(_seed_sequences(seed, range(5, 9)), range(5, 9)):
        assert np.array_equal(got.generate_state(4, np.uint64),
                              np.random.SeedSequence([seed, 0, index]).generate_state(4, np.uint64))


def test_run_sweep_rows():
    config = base_config()
    rows, summary = run_sweep(config, "n", [100, 400])
    assert summary == {"type": "summary", "command": "sweep", "axis": "n", "rows": 2}
    assert [(row["type"], row["n"]) for row in rows] == [("sweep_row", 100), ("sweep_row", 400)]
    # Margin scales like n**(-1/2) when the moment constant is analytic.
    ratio = rows[1]["median_margin"] / rows[0]["median_margin"]
    assert ratio == pytest.approx(0.5, rel=1e-9)


def test_run_sweep_delta_scaling():
    config = base_config()
    rows = run_sweep(config, "delta", [0.5, 0.05, 0.005]).records
    margins = [row["median_margin"] for row in rows]
    assert margins[1] / margins[0] == pytest.approx(math.sqrt(10.0), rel=1e-9)
    assert margins[2] / margins[1] == pytest.approx(math.sqrt(10.0), rel=1e-9)


def test_run_sweep_rows_report_the_p_the_bound_used():
    # The mixing regimes certify p = 2 and accept a p within 1e-12 of it; each
    # row echoes the p its bound used, as its summary does.
    config = load_config(ROOT / "configs" / "coverage_ar1_t7.yaml",
                         ["experiment.replications=50"])
    rows = run_sweep(config, "p", [2.0000000000001, 2]).records
    assert [row["value"] for row in rows] == [2.0000000000001, 2]
    assert [row["p"] for row in rows] == [2.0, 2.0]
    # Under the variance regime the bound uses the swept p itself.
    rows = run_sweep(base_config(), "p", [3, 5]).records
    assert [row["p"] for row in rows] == [3.0, 5.0]


def test_run_sweep_refuses_a_p_that_the_bound_ignores():
    config = load_config(ROOT / "configs" / "erm_finite_class.yaml",
                         ["experiment.replications=50"])
    with pytest.raises(ConfigError, match=r"^regime\.optimize_q sets q=11\.98"):
        run_sweep(config, "p", [3, 5])
    given_q = dataclasses.replace(config, regime=dataclasses.replace(
        config.regime, optimize_q=False, q=4.0))
    with pytest.raises(ConfigError, match=r"^regime\.q sets q=4\.0,"):
        run_sweep(given_q, "p", [1.5])
    # A p whose conjugate is the given q passes, though q/(q-1) need not give p back.
    rows = run_sweep(given_q, "p", [4.0 / 3.0]).records
    assert [row["p"] for row in rows] == [4.0 / 3.0]


def test_run_sweep_validation():
    config = base_config()
    with pytest.raises(ConfigError):
        run_sweep(config, "bogus", [1])
    with pytest.raises(ConfigError):
        run_sweep(config, "n", [])
    with pytest.raises(ConfigError):
        run_sweep(config, "delta", [1.5])
    with pytest.raises(ConfigError):
        run_sweep(config, "n", [10.5])


def test_fit_loglog_slope_exact_power_law():
    xs = np.array([100, 400, 1600])
    ys = 3.0 * xs ** (-0.5)
    assert fit_loglog_slope(xs, ys) == pytest.approx(-0.5, abs=1e-12)


def test_mixing_unbounded_resolution():
    config = base_config(
        generator=AR1(a=0.5, noise=StudentTNoise(dof=7.0, scale=0.5),
                      mixing=MixingBoundSpec(c1=0.5, c2=math.log(2.0))),
        prior=IidSamplePrior(count=20, dim=2, scale=0.5, seed=5),
        regime=MixingUnboundedRegime(r=3.0, s=3.0),
        n=500,
    )
    atoms, pi = build_prior(config.prior, config.seed)
    cfg, constants = resolve_moment(config, atoms, pi)
    assert cfg.q == 2.0
    assert constants["c1"] == 0.5
    assert constants["davydov_factor"] == 8.0
    assert constants["moment_integral"] > 0
    assert cfg.moment.value == pytest.approx(
        8.0 * constants["moment_integral"] * constants["alpha_frac_sum"] / 500)
