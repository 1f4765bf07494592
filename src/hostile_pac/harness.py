"""Config-driven orchestration: one-shot bounds, coverage experiments, sweeps.

A single YAML file with four sections (``experiment``, ``generator``,
``prior``, ``regime``) describes a full experiment; the CLI in
:mod:`hostile_pac.cli` maps subcommands onto the ``run_*`` functions here.
The file is read into the spec dataclasses: their fields are the allowed
keys, their defaults the defaults and their annotations the accepted values,
and every error names the offending ``section.key``.

``bound``, ``aggregate`` and each coverage replication share one path:
``_setup`` builds the prior and the moment constant of a configuration, and
``_fit`` turns dataset ``index`` into r_n, rbar and rho_hat; ``_certify``
adds, for ``bound`` and coverage, the ERM, the sublevel-mass exponent, the
certified oracle and the rho_hat, prior and ERM certificates. Dataset
``index`` draws from the seed sequence ``[seed, 0, index]`` (coverage probes
from ``[seed, 1, index]``), so results are identical at any worker count.

All regime constants entering a bound are analytic (closed forms from the
generator spec and prior); nothing is estimated from the data that the bound
is then applied to. Every output record repeats the constants and the
assumed mixing envelope (c1, c2) under which it was produced.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path
from types import UnionType
from typing import Literal, NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from . import datagen
from .aggregation import (BoundConfig, BoundReport, ComplexityEstimate, catoni_pi_gamma,
                          certificate, certified_oracle, erm_index, evaluate_bound,
                          optimal_gamma, pac_margin, rho_hat, solve_rbar)
from .datagen import (AR1, BoundedClassification, GaussianNoise, GeneratorSpec,
                      IidLinearRegression, IsotropicGaussianX, MixingBoundSpec,
                      NoClosedFormError, StudentTNoise, UniformBoxX)
from .divergence import power_divergence_plus_one
from .moments import (MixingBoundedRegime, MixingUnbounded, MixingUnboundedRegime,
                      RegimeSpec, SubGaussianRegime, VarianceRegime, check_mixing_exponents,
                      geometric_alpha_sum, kappa_quadratic, moment_iid_variance,
                      moment_mixing_bounded, moment_mixing_unbounded, moment_subgaussian,
                      optimal_q_finite)
from .param_space import (AtomSet, DiscreteDistribution, ExplicitPrior,
                          IidSamplePrior, PriorSpec, UniformGridPrior, build_prior,
                          expectation, prior_moment_tau)
from .risk import AbsoluteLoss, LossKind, SquaredLoss, ZeroOneLoss, empirical_risks


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration (CLI exit code 1)."""


class AssumptionError(RuntimeError):
    """A required prior-mass assumption failed to certify (CLI exit code 3)."""


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One experiment; the config file's ``experiment`` section plus the
    ``generator``, ``prior`` and ``regime`` sections. Defaults here are the
    config file's defaults."""

    generator: GeneratorSpec
    prior: PriorSpec
    loss: LossKind
    p: float = 2.0
    delta: float
    regime: RegimeSpec
    n: int
    replications: int = 100
    seed: int = 0
    gamma_grid: tuple[float, ...] = tuple(np.linspace(0.05, 0.9, 10).tolist())
    probes: int = 100
    workers: int = 1
    require_complexity: bool = False

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("experiment.seed must be nonnegative")
        if self.n < 1:
            raise ConfigError("experiment.n must be positive")
        if self.probes < 0:
            raise ConfigError("experiment.probes must be nonnegative")
        if self.workers < 1:
            raise ConfigError("experiment.workers must be positive")
        if not 0 < self.delta < 1:
            raise ConfigError("experiment.delta must lie in (0, 1)")
        if not self.p > 1:
            raise ConfigError("experiment.p must exceed 1")
        _validate_cross_fields(self)


def _validate_cross_fields(cfg: ExperimentConfig) -> None:
    regime = cfg.regime
    is_ar1 = isinstance(cfg.generator, AR1)
    if isinstance(regime, (MixingBoundedRegime, MixingUnboundedRegime)):
        if not is_ar1:
            raise ConfigError("mixing regimes require the AR(1) generator")
        if abs(cfg.p - 2.0) > 1e-12:
            raise ConfigError("mixing regimes certify q = 2, so p must be 2")
        if cfg.generator.mixing is None:
            raise ConfigError("generator.mixing: mixing regimes need the assumed envelope "
                              "{c1, c2}")
        if regime.alpha_sum == "envelope" and not cfg.generator.mixing.c1 > 0:
            raise ConfigError("generator.mixing.c1 must be positive under regime.alpha_sum: "
                              "envelope, which would otherwise give a zero moment bound")
    elif is_ar1:
        raise ConfigError(f"the {_REGIME_KIND[type(regime)]} regime requires independent "
                          "rows, not AR(1)")
    if isinstance(regime, MixingBoundedRegime) and not isinstance(cfg.loss, ZeroOneLoss):
        raise ConfigError("mixing_bounded requires losses in [0, 1]: use the zero-one loss")
    if isinstance(regime, VarianceRegime) and cfg.p < 2:
        raise ConfigError("the variance regime needs q <= 2, i.e. p >= 2")
    if isinstance(regime, VarianceRegime) and regime.s2 in ("kappa", "exact"):
        if not (isinstance(cfg.generator, IidLinearRegression)
                and isinstance(cfg.loss, SquaredLoss)):
            raise ConfigError(
                "analytic s2 modes apply to i.i.d. squared-loss regression; "
                "supply a numeric s2 otherwise"
            )
    if isinstance(regime, SubGaussianRegime) and regime.optimize_q and regime.q is not None:
        raise ConfigError("regime.q cannot be combined with regime.optimize_q, which sets q")
    if isinstance(regime, SubGaussianRegime) and not regime.optimize_q:
        key, q = (("regime.q", regime.q) if regime.q is not None
                  else ("experiment.p", cfg.p / (cfg.p - 1.0)))
        if q < 2:
            raise ConfigError(f"{key}: the sub-Gaussian moment inequality requires q >= 2 "
                              f"(q = p/(p-1) unless regime.q is set), got q={q}")
    if isinstance(regime, MixingUnboundedRegime):
        try:
            check_mixing_exponents(regime.r, regime.s)
        except ValueError as exc:
            raise ConfigError(f"regime.r, regime.s: {exc}") from exc
    for f in dataclasses.fields(regime):
        value = getattr(regime, f.name)
        if isinstance(value, float) and not value > 0:
            raise ConfigError(f"regime.{f.name} must be positive, got {value}")
    if isinstance(regime, MixingUnboundedRegime) and regime.moment_integral == "analytic":
        if abs(regime.s - 3.0) > 1e-12 or not isinstance(cfg.loss, SquaredLoss):
            raise ConfigError(
                "regime.moment_integral: analytic is implemented for the squared loss "
                "at s = 3; supply a number otherwise"
            )
        try:
            datagen.noise_moment(cfg.generator.noise, 6)
        except datagen.MomentDoesNotExistError as exc:
            raise ConfigError(
                f"regime.moment_integral: analytic needs sixth noise moments ({exc}); "
                "raise generator.noise.dof or supply a number"
            ) from exc
    if isinstance(cfg.generator, AR1) and cfg.n < 2:
        raise ConfigError("experiment.n must be at least 2 for AR(1)")
    if not cfg.gamma_grid or not all(0 < g < 1 for g in cfg.gamma_grid):
        raise ConfigError("experiment.gamma_grid must be nonempty, with values inside (0, 1)")


# ---------------------------------------------------------------------------
# Config file parsing: keys, defaults and types come from the dataclasses
# ---------------------------------------------------------------------------

_KINDS = {
    GeneratorSpec: {"iid_regression": IidLinearRegression, "ar1": AR1,
                    "classification": BoundedClassification},
    datagen.NoiseLaw: {"gaussian": GaussianNoise, "student_t": StudentTNoise},
    datagen.XLaw: {"gaussian": IsotropicGaussianX, "uniform": UniformBoxX},
    PriorSpec: {"uniform_grid": UniformGridPrior, "iid_sample": IidSamplePrior,
                "explicit": ExplicitPrior},
    LossKind: {"squared": SquaredLoss, "absolute": AbsoluteLoss, "zero_one": ZeroOneLoss},
    RegimeSpec: {"variance": VarianceRegime, "subgaussian": SubGaussianRegime,
                 "mixing_bounded": MixingBoundedRegime,
                 "mixing_unbounded": MixingUnboundedRegime},
}
_REGIME_KIND = {cls: kind for kind, cls in _KINDS[RegimeSpec].items()}
_SECTIONS = ("generator", "prior", "regime")
_hints = cache(get_type_hints)  # resolves string annotations once per class
# YAML value types accepted for each scalar annotation; no truncation, no truthiness.
_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


@dataclass(frozen=True)
class _GammaRange:
    """The ``gamma_grid: {lo, hi, points}`` form of an evenly spaced grid."""

    lo: float
    hi: float
    points: int = 10

    def __post_init__(self) -> None:
        if self.points < 1 or not self.lo < self.hi:
            raise ValueError("gamma grid needs lo < hi and at least one point")


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {value!r}")
    return value


def _coerce(value, hint, where: str):
    """``value`` read from YAML at key ``where``, checked against the annotation ``hint``."""
    origin, args = get_origin(hint), get_args(hint)
    if hint in _KINDS:
        kind = _mapping(value, where).get("kind")
        if not isinstance(kind, str) or kind not in _KINDS[hint]:
            raise ConfigError(f"{where}.kind must be one of {list(_KINDS[hint])}, got {kind!r}")
        return _build(_KINDS[hint][kind], {k: v for k, v in value.items() if k != "kind"}, where)
    if origin in (Union, UnionType):
        options = [a for a in args if a is not type(None)]
        if value is None and len(options) < len(args):
            return None
        if len(options) == 1:
            return _coerce(value, options[0], where)
        for option in options:
            try:
                return _coerce(value, option, where)
            except ConfigError:
                pass
    elif origin is Literal:
        if isinstance(value, str) and value in args:
            return value
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            if args[-1] is Ellipsis:
                args = args[:1] * len(value)
            if len(value) == len(args):
                return tuple(_coerce(v, a, f"{where}[{i}]")
                             for i, (v, a) in enumerate(zip(value, args)))
    elif dataclasses.is_dataclass(hint):
        return _build(hint, value, where)
    elif hint is np.ndarray:
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            pass
    else:
        if hint is float and isinstance(value, str):  # PyYAML reads 1e-3 (no dot) as a string
            try:
                value = float(value)
            except ValueError:
                pass
        if hint is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        if type(value) in _ACCEPTS[hint]:
            return hint(value)
    expected = hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")
    raise ConfigError(f"{where}: expected {expected}, got {value!r}")


def _build(cls, raw, where: str, **built):
    """Instance of the dataclass ``cls`` from the mapping ``raw`` at key ``where``.

    Keys are the fields of ``cls`` not given in ``built``; fields without a
    default are required.
    """
    hints = _hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in built]
    unknown = set(_mapping(raw, where)) - {f.name for f in fields}
    if unknown:
        raise ConfigError("unknown keys: " + ", ".join(sorted(f"{where}.{k}" for k in unknown)))
    kwargs = dict(built)
    for f in fields:
        if f.name in raw:
            kwargs[f.name] = _coerce(raw[f.name], hints[f.name], f"{where}.{f.name}")
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"missing key {where}.{f.name}")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate an :class:`ExperimentConfig` from parsed YAML."""
    unknown = set(_mapping(raw, "config root")) - {"experiment", *_SECTIONS}
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(map(str, unknown))}")
    exp = dict(_mapping(raw.get("experiment"), "experiment"))
    if isinstance(exp.get("loss"), str):
        exp["loss"] = {"kind": exp["loss"]}
    if isinstance(exp.get("gamma_grid"), dict):
        grid = _build(_GammaRange, exp["gamma_grid"], "experiment.gamma_grid")
        exp["gamma_grid"] = np.linspace(grid.lo, grid.hi, grid.points).tolist()
    hints = _hints(ExperimentConfig)
    sections = {s: _coerce(raw.get(s), hints[s], s) for s in _SECTIONS}
    return _build(ExperimentConfig, exp, "experiment", **sections)


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` strings onto a parsed config mapping."""
    out = json.loads(json.dumps(raw))  # deep copy of plain data
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, _, value = item.partition("=")
        *path, key = dotted.split(".")
        node = _mapping(out, "config root")
        for depth, part in enumerate(path):
            node = _mapping(node.setdefault(part, {}), ".".join(path[:depth + 1]))
        node[key] = yaml.safe_load(value)
    return out


def load_config(path: str | Path, overrides: list[str] | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if overrides:
        raw = apply_overrides(raw, overrides)
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# Moment-bound resolution
# ---------------------------------------------------------------------------

def resolve_moment(config: ExperimentConfig, atoms: AtomSet,
                   pi: DiscreteDistribution) -> tuple[BoundConfig, dict]:
    """Turn the regime section into a certified moment bound plus a record
    of the analytic constants it used."""
    regime = config.regime
    spec = config.generator
    n = config.n
    constants: dict = {"regime": _REGIME_KIND[type(regime)], "c1": None, "c2": None}
    if isinstance(regime, VarianceRegime):
        if regime.s2 == "kappa":
            ey4, ex4 = datagen.kappa_moments(spec)
            tau = prior_moment_tau(atoms, pi)
            s2 = kappa_quadratic(ey4, tau, ex4)
            constants.update(s2=s2, s2_mode="kappa", tau=tau, ey4=ey4, ex4=ex4)
        elif regime.s2 == "exact":
            variances = datagen.squared_loss_variances(spec, atoms)
            s2 = float(pi.weights @ variances)
            constants.update(s2=s2, s2_mode="exact")
        else:
            s2 = float(regime.s2)
            constants.update(s2=s2, s2_mode="given")
        q = config.p / (config.p - 1.0)
        bound = moment_iid_variance(s2, n, q)
        return BoundConfig(p=config.p, delta=config.delta, moment=bound), constants

    if isinstance(regime, SubGaussianRegime):
        sigma2 = float(regime.sigma2)
        if regime.optimize_q:
            opt = optimal_q_finite(len(atoms), config.delta)
            q = opt.q
            constants["q_clamped"] = opt.clamped
        elif regime.q is not None:
            q = regime.q
        else:
            q = config.p / (config.p - 1.0)
        constants.update(sigma2=sigma2, q=q)
        bound = moment_subgaussian(sigma2, n, q)
        return BoundConfig.from_q(q, config.delta, bound), constants

    envelope = spec.mixing
    constants.update(c1=envelope.c1, c2=envelope.c2)
    bounded = isinstance(regime, MixingBoundedRegime)
    # Sum of alpha_j**(1/power) over the envelope: power 1 when bounded, r otherwise.
    power = 1.0 if bounded else regime.r
    if regime.alpha_sum == "envelope":
        alpha_sum = geometric_alpha_sum(envelope.c1, envelope.c2, power)
    else:
        alpha_sum = float(regime.alpha_sum)
    if bounded:
        constants["alpha_sum"] = alpha_sum
        bound = moment_mixing_bounded(alpha_sum, n)
        return BoundConfig(p=2.0, delta=config.delta, moment=bound), constants

    if regime.moment_integral == "analytic":
        third = datagen.squared_loss_third_moments(spec, atoms)
        moment_integral = float(pi.weights @ third ** (2.0 / 3.0))
    else:
        moment_integral = float(regime.moment_integral)
    unbounded = MixingUnbounded(r=regime.r, s=regime.s,
                                moment_integral=moment_integral,
                                alpha_frac_sum=alpha_sum,
                                davydov_factor=regime.davydov_factor)
    constants.update(dataclasses.asdict(unbounded))
    bound = moment_mixing_unbounded(unbounded, n)
    return BoundConfig(p=2.0, delta=config.delta, moment=bound), constants


# ---------------------------------------------------------------------------
# Per-dataset fit and certification, shared by bound, aggregate and coverage
# ---------------------------------------------------------------------------

class _Setup(NamedTuple):
    """What every dataset of one configuration shares."""

    atoms: AtomSet
    pi: DiscreteDistribution
    cfg: BoundConfig
    constants: dict  # echoed into every output record


class RunResult(NamedTuple):
    """Output records and the summary record of one command."""

    records: list[dict]
    summary: dict


def _setup(config: ExperimentConfig) -> _Setup:
    atoms, pi = build_prior(config.prior, config.seed)
    cfg, regime_constants = resolve_moment(config, atoms, pi)
    constants = {"n": config.n, "p": cfg.p, "q": cfg.q, "delta": cfg.delta,
                 "moment_bound": cfg.moment.value, "seed": config.seed}
    constants.update(regime_constants)
    return _Setup(atoms, pi, cfg, constants)


def _fit(config: ExperimentConfig, setup: _Setup,
         index: int) -> tuple[np.ndarray, float, DiscreteDistribution]:
    """Empirical risks r_n of dataset ``index``, the level rbar and rho_hat."""
    seed = np.random.SeedSequence([config.seed, 0, index])
    data = datagen.generate(config.generator, config.n, seed)
    rn = empirical_risks(data, setup.atoms, config.loss)
    cfg = setup.cfg
    rbar = solve_rbar(rn, setup.pi, cfg.q, cfg.moment.value, cfg.delta)
    return rn, rbar, rho_hat(rn, setup.pi, cfg.p, rbar)


class _Certified(NamedTuple):
    """One dataset certified: what ``bound`` and a coverage replication share."""

    rn: np.ndarray
    rbar: float
    rho: DiscreteDistribution
    erm: int
    complexity: ComplexityEstimate
    oracle: float | None  # the certified oracle bound on rbar
    reports: dict[str, BoundReport]  # rho_hat, prior and erm


def _certify(config: ExperimentConfig, setup: _Setup, index: int) -> _Certified:
    rn, rbar, rho = _fit(config, setup, index)
    pi, cfg = setup.pi, setup.cfg
    erm = erm_index(rn)
    complexity, oracle = certified_oracle(rn, pi, np.asarray(config.gamma_grid), rbar,
                                          cfg.moment.value, cfg.delta, cfg.q)
    # D + 1 is exactly 1 at the prior; at the point mass on erm it is
    # pi_erm**(1 - p), +inf off the support.
    pi_erm = pi.weights[erm]
    reports = {
        "rho_hat": evaluate_bound(rho, pi, rn, cfg),
        "prior": certificate(expectation(pi, rn), 1.0, cfg),
        "erm": certificate(float(rn[erm]),
                           float(pi_erm ** (1.0 - cfg.p)) if pi_erm > 0 else math.inf, cfg),
    }
    return _Certified(rn, rbar, rho, erm, complexity, oracle, reports)


def run_bound(config: ExperimentConfig) -> RunResult:
    """Generate one dataset and certify the four canonical distributions.

    Reports cover the optimal aggregation weights, the sublevel restriction
    of the prior at its optimized width (when the prior-mass exponent
    certifies), the empirical-risk minimizer point mass, and the prior
    itself. The optimal weights always achieve the smallest upper
    certificate of the four.
    """
    setup = _setup(config)
    pi, cfg = setup.pi, setup.cfg
    fit = _certify(config, setup, 0)
    complexity = fit.complexity
    if config.require_complexity and not complexity.satisfied:
        raise AssumptionError(
            "prior-mass exponent failed to certify on the configured gamma grid"
        )
    reports = dict(fit.reports)
    gamma_star = None
    if complexity.satisfied:
        gamma_star = optimal_gamma(complexity.d, cfg.p, cfg.moment.value, cfg.delta)
        reports["pi_gamma"] = evaluate_bound(catoni_pi_gamma(fit.rn, pi, gamma_star),
                                             pi, fit.rn, cfg)

    records = [{"type": "bound", "rho": name, **dataclasses.asdict(report), **setup.constants}
               for name, report in reports.items()]
    summary = {
        "type": "summary", "command": "bound",
        "erm_index": fit.erm, "rbar": fit.rbar, "oracle_empirical": fit.oracle,
        "complexity_d": complexity.d, "complexity_satisfied": complexity.satisfied,
        "gamma_star": gamma_star,
        "timestamp": _timestamp(),
    }
    summary.update(setup.constants)
    return RunResult(records, summary)


def run_aggregate(config: ExperimentConfig) -> RunResult:
    """Optimal aggregation weights for one dataset, one record per atom."""
    setup = _setup(config)
    rn, rbar, rho = _fit(config, setup, 0)
    records = [{"type": "atom", "index": j, "coords": [float(c) for c in setup.atoms.atom(j)],
                "prior_weight": float(setup.pi.weights[j]),
                "rho_hat_weight": float(rho.weights[j]), "rn": float(rn[j])}
               for j in range(len(setup.atoms))]
    summary = {"type": "summary", "command": "aggregate",
               "rbar": rbar, "erm_index": erm_index(rn),
               "rn_integral_rho_hat": expectation(rho, rn),
               "timestamp": _timestamp()}
    summary.update(setup.constants)
    return RunResult(records, summary)


# ---------------------------------------------------------------------------
# Coverage experiments
# ---------------------------------------------------------------------------

def _replication_record(config: ExperimentConfig, setup: _Setup,
                        true_values: np.ndarray, index: int) -> dict:
    fit = _certify(config, setup, index)
    rn, rbar, rho, erm = fit.rn, fit.rbar, fit.rho, fit.erm
    pi, cfg = setup.pi, setup.cfg
    at_rho, at_erm = fit.reports["rho_hat"], fit.reports["erm"]

    rho_true = expectation(rho, true_values)
    dev_rho = abs(rho_true - at_rho.rn_integral)
    hit_rho = dev_rho <= at_rho.margin

    hit_probes = True
    max_probe_violation = 0.0
    if config.probes > 0:
        probe_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, index]))
        rows = probe_rng.dirichlet(np.ones(len(pi)), size=config.probes)
        margins = pac_margin(cfg, power_divergence_plus_one(rows, pi.weights, cfg.p))
        devs = np.abs(rows @ (true_values - rn))
        hit_probes = bool(np.all(devs <= margins))
        with np.errstate(invalid="ignore"):
            max_probe_violation = float(np.max(np.where(np.isinf(margins), 0.0, devs - margins)))

    hit_oracle_level = rho_true <= rbar
    hit_oracle = hit_oracle_level and (fit.oracle is None or rho_true <= fit.oracle)
    return {
        "type": "replication",
        "index": index,
        "rn_min": float(rn.min()),
        "erm_index": erm,
        "rbar": rbar,
        "rho_hat_rn_integral": at_rho.rn_integral,
        "rho_hat_true_integral": rho_true,
        "divergence_plus_one": at_rho.divergence_plus_one,
        "margin_rho_hat": at_rho.margin,
        "margin_prior": fit.reports["prior"].margin,
        "margin_erm": at_erm.margin,
        "slack_rho_hat": float(at_rho.margin - dev_rho),
        "hit_rho_hat": bool(hit_rho),
        "hit_probes": hit_probes,
        "hit_two_sided": bool(hit_rho and hit_probes),
        "max_probe_violation": max_probe_violation,
        "hit_erm": bool(true_values[erm] <= at_erm.upper),
        "true_risk_erm": float(true_values[erm]),
        "complexity_d": fit.complexity.d,
        "complexity_certified": fit.oracle is not None,
        "oracle_dim_bound": fit.oracle,
        "hit_oracle_level": bool(hit_oracle_level),
        "hit_oracle": bool(hit_oracle),
        **setup.constants,
    }


def run_coverage(config: ExperimentConfig) -> RunResult:
    """Monte Carlo coverage of the certificates on a synthetic generator.

    Per replication the two-sided certificate is tested jointly for the
    optimal weights and all random probe distributions (the guarantee is
    uniform over distributions, so one replication is a hit only when every
    tested distribution is inside its margin). True risks come from the
    generator's closed form, so hit/miss decisions carry no oracle noise.
    """
    if config.replications < 50:
        raise ConfigError("experiment.replications: coverage runs need at least 50 replications")
    setup = _setup(config)
    pi, cfg = setup.pi, setup.cfg
    try:
        true_values = datagen.true_risk_closed_form(config.generator, setup.atoms, config.loss)
    except NoClosedFormError as exc:
        raise ConfigError(f"coverage requires a closed-form true risk: {exc}") from exc
    replicate = partial(_replication_record, config, setup, true_values)
    indices = range(config.replications)
    if config.workers > 1:
        chunk = max(1, config.replications // (config.workers * 4))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(replicate, indices, chunksize=chunk))
    else:
        records = [replicate(i) for i in indices]

    slack = np.array([r["slack_rho_hat"] for r in records])
    finite_slack = slack[np.isfinite(slack)]

    # Population-side quantities are deterministic for the configuration; the
    # population level spends the budget 2**q * M / delta.
    pop_moment = cfg.moment.value * 2.0 ** cfg.q
    rbar_pop = solve_rbar(true_values, pi, cfg.q, pop_moment, cfg.delta)
    pop_complexity, oracle_pop = certified_oracle(true_values, pi, np.asarray(config.gamma_grid),
                                                  rbar_pop, pop_moment, cfg.delta, cfg.q)

    summary = {
        "type": "summary", "command": "coverage",
        "replications": config.replications,
        "coverage_two_sided": float(np.mean([r["hit_two_sided"] for r in records])),
        "coverage_oracle": float(np.mean([r["hit_oracle"] for r in records])),
        "coverage_erm": float(np.mean([r["hit_erm"] for r in records])),
        "mean_slack": float(finite_slack.mean()) if finite_slack.size else math.inf,
        "certified_fraction": float(np.mean([r["complexity_certified"] for r in records])),
        "population_complexity_d": pop_complexity.d,
        "population_complexity_satisfied": pop_complexity.satisfied,
        "rbar_population": rbar_pop,
        "oracle_population_bound": oracle_pop,
        "probes": config.probes,
        "timestamp": _timestamp(),
    }
    summary.update(setup.constants)
    return RunResult(records, summary)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("n", "delta", "p")


def run_sweep(config: ExperimentConfig, axis: str, values: list) -> list[dict]:
    """Coverage summaries along one axis; one row per value."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    hint = _hints(ExperimentConfig)[axis]
    rows = []
    for value in values:
        # replace() reruns the config validation on the swept value.
        cfg_v = dataclasses.replace(config, **{axis: _coerce(value, hint, f"sweep {axis}")})
        report = run_coverage(cfg_v)
        margins_prior = [r["margin_prior"] for r in report.records]
        margins_rho = [r["margin_rho_hat"] for r in report.records]
        rows.append({
            "axis": axis,
            "value": value,
            "n": cfg_v.n,
            "delta": cfg_v.delta,
            "p": cfg_v.p,
            "coverage_two_sided": report.summary["coverage_two_sided"],
            "coverage_oracle": report.summary["coverage_oracle"],
            "median_margin": float(np.median(margins_prior)),
            "median_margin_rho_hat": float(np.median(margins_rho)),
            "mean_slack": report.summary["mean_slack"],
            "moment_bound": report.summary["moment_bound"],
        })
    return rows


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    """CSV with a header row, one sweep row per line; floats by repr, None empty."""
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Record output
# ---------------------------------------------------------------------------

def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)


def dump_record(record: dict) -> str:
    """Canonical one-line JSON; infinities use the Python JSON dialect."""
    return _RECORD_ENCODER.encode(record)


def write_records(records: list[dict], path: str | Path) -> None:
    Path(path).write_text("".join(dump_record(r) + "\n" for r in records))


def write_outputs(prefix: str | Path, records: list[dict], summary: dict,
                  csv_rows: list[dict] | None = None) -> list[Path]:
    """Write ``PREFIX.records.jsonl``, ``PREFIX.summary.json`` and, given
    ``csv_rows``, ``PREFIX.csv``; return the paths written.

    The suffixes are appended, so prefixes that differ after a dot
    (``run.w1``, ``run.w2``) never share a file.
    """
    paths = [Path(f"{prefix}.records.jsonl"), Path(f"{prefix}.summary.json")]
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    write_records(records, paths[0])
    paths[1].write_text(dump_record(summary) + "\n")
    if csv_rows is not None:
        paths.append(Path(f"{prefix}.csv"))
        write_sweep_csv(csv_rows, paths[2])
    return paths
