"""Config-driven orchestration: one-shot bounds, coverage experiments, sweeps.

A single YAML file with four sections (``experiment``, ``generator``,
``prior``, ``regime``) describes a full experiment; the CLI in
:mod:`hostile_pac.cli` maps subcommands onto the ``run_*`` functions here.
The file is read into the spec dataclasses: their fields are the allowed
keys, their defaults the defaults and their annotations the accepted values,
and every error names the offending ``section.key``.

``bound``, ``aggregate`` and coverage share one path: ``_setup`` builds the
prior and the moment constant of a configuration, and ``_fit`` draws a range
of dataset indices as one stacked dataset and turns it into rows of r_n,
their levels rbar and rho_hat weights;
``_certify`` adds, for ``bound`` and coverage, the ERM, the sublevel-mass
exponent, the certified oracle and the rho_hat, prior and ERM certificates,
row by row. ``bound`` and ``aggregate`` take the one-row range of dataset 0;
coverage takes fixed blocks of ``COVERAGE_BLOCK_ATOMS // K`` rows. Dataset
``index`` draws from the seed sequence ``[seed, 0, index]``, and the blocks
do not depend on the worker count, so neither do the results.

Each regime's load-time rules and moment constant live on its class in
:mod:`hostile_pac.moments`, called by ``_validate_cross_fields`` and
``resolve_moment``. All regime constants entering a bound are analytic
(closed forms from the generator spec and prior); nothing is estimated from
the data that the bound is then applied to. Every output record repeats the
constants and the assumed mixing envelope (c1, c2) under which it was produced.
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
                          certificate, certified_oracle, deviation_moments, erm_index,
                          evaluate_bound, optimal_gamma, rho_hat, solve_rbar)
from .datagen import (AR1, BoundedClassification, GaussianNoise, GeneratorSpec,
                      IidLinearRegression, IsotropicGaussianX, NoClosedFormError, StudentTNoise,
                      UniformBoxX)
from .moments import (MixingBoundedRegime, MixingUnboundedRegime, RegimeSpec, SubGaussianRegime,
                      VarianceRegime)
from .param_space import (AtomSet, DiscreteDistribution, ExplicitPrior, IidSamplePrior,
                          PriorSpec, UniformGridPrior, build_prior, expectation)
from .risk import LossKind, SquaredLoss, ZeroOneLoss, empirical_risks


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
    workers: int = 1
    require_complexity: bool = False

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("experiment.seed must be nonnegative")
        if self.n < 1:
            raise ConfigError("experiment.n must be positive")
        if self.workers < 1:
            raise ConfigError("experiment.workers must be positive")
        if not 0 < self.delta < 1:
            raise ConfigError("experiment.delta must lie in (0, 1)")
        if not self.p > 1:
            raise ConfigError("experiment.p must exceed 1")
        if not self.p / (self.p - 1.0) > 1:
            raise ConfigError(f"experiment.p={self.p!r} is so large that q = p/(p-1) rounds to 1")
        _validate_cross_fields(self)


def _validate_cross_fields(cfg: ExperimentConfig) -> None:
    """The regime's own rules, then those of every regime."""
    try:
        cfg.regime.check(cfg)
        for key, value in vars(cfg.regime).items():
            if isinstance(value, float) and not value > 0:
                raise ValueError(f"regime.{key} must be positive, got {value}")
        if isinstance(cfg.generator, AR1) and cfg.n < 2:
            raise ValueError("experiment.n must be at least 2 for AR(1)")
        if cfg.prior.dim != cfg.generator.dim:
            key = {UniformGridPrior: "bounds", ExplicitPrior: "atoms"}.get(type(cfg.prior), "dim")
            raise ValueError(f"prior.{key}: the prior's atoms have dimension {cfg.prior.dim}, "
                             f"the generator's parameters {cfg.generator.dim}")
        if not cfg.gamma_grid or not all(0 < g < 1 for g in cfg.gamma_grid):
            raise ValueError("experiment.gamma_grid must be nonempty, with values inside (0, 1)")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    LossKind: {"squared": SquaredLoss, "zero_one": ZeroOneLoss},
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
            if hint is float and not math.isfinite(value):
                raise ConfigError(f"{where}: expected a finite number, got {value!r}")
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
    if exp.pop("probes", 0) != 0:  # retired key; perfbench/configs still write probes: 0
        raise ConfigError("experiment.probes is retired: coverage decides the event over "
                          "every rho exactly, so only probes: 0 is accepted")
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
# Per-dataset fit and certification, shared by bound, aggregate and coverage
# ---------------------------------------------------------------------------

def resolve_moment(config: ExperimentConfig, atoms: AtomSet,
                   pi: DiscreteDistribution) -> tuple[BoundConfig, dict]:
    """Turn the regime section into a certified moment bound plus a record
    of the analytic constants it used; (c1, c2) are null without mixing."""
    kind = _REGIME_KIND[type(config.regime)]
    try:
        p, bound, constants = config.regime.resolve(config, atoms, pi)
    except ValueError as exc:  # a finite constant whose moment bound overflows, say
        raise ConfigError(f"regime ({kind}): {exc}") from exc
    echoed = {"regime": kind, "c1": None, "c2": None, **constants}
    return BoundConfig(p=p, delta=config.delta, moment=bound), echoed


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
                 "moment_bound": cfg.moment.value, "seed": config.seed, **regime_constants}
    return _Setup(atoms, pi, cfg, constants)


def _fit(config: ExperimentConfig, setup: _Setup,
         indices: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical risks r_n of datasets ``indices``, one row each, their
    levels rbar and rho_hat weights."""
    data = datagen.generate(config.generator, config.n,
                            [np.random.SeedSequence([config.seed, 0, index]) for index in indices])
    rn = empirical_risks(data, setup.atoms, config.loss)
    rbar = solve_rbar(rn, setup.pi, setup.cfg.q, setup.cfg.budget)
    return rn, rbar, rho_hat(rn, setup.pi, setup.cfg.p, rbar)


class _Certified(NamedTuple):
    """Datasets certified in rows: what ``bound`` and coverage share."""

    rn: np.ndarray  # (rows, K)
    rbar: np.ndarray
    rho: np.ndarray  # rho_hat weights, (rows, K)
    erm: np.ndarray
    complexity: ComplexityEstimate
    oracle: np.ndarray  # the certified oracle bound on rbar, NaN where uncertified
    reports: dict[str, BoundReport]  # rho_hat, prior and erm


def _certify(config: ExperimentConfig, setup: _Setup, indices: range) -> _Certified:
    rn, rbar, rho = _fit(config, setup, indices)
    pi, cfg = setup.pi, setup.cfg
    erm = erm_index(rn)
    complexity, oracle = certified_oracle(rn, pi, np.asarray(config.gamma_grid), rbar,
                                          cfg.budget, cfg.q)
    # D + 1 is exactly 1 at the prior; at the point mass on erm it is
    # pi_erm**(1 - p), +inf off the support.
    with np.errstate(divide="ignore", over="ignore"):
        erm_div = pi.weights[erm] ** (1.0 - cfg.p)
    reports = {
        "rho_hat": evaluate_bound(rho, pi, rn, cfg),
        "prior": certificate(expectation(pi, rn), np.ones(len(rn)), cfg),
        "erm": certificate(rn[np.arange(len(rn)), erm], erm_div, cfg),
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
    fit = _certify(config, setup, range(1))
    rn, complexity = fit.rn[0], fit.complexity.row(0)
    if config.require_complexity and not complexity.satisfied:
        raise AssumptionError(
            "prior-mass exponent failed to certify on the configured gamma grid"
        )
    reports = {name: report.row(0) for name, report in fit.reports.items()}
    gamma_star = None
    if complexity.satisfied:
        gamma_star = optimal_gamma(complexity.d, cfg.p, cfg.budget)
        reports["pi_gamma"] = evaluate_bound(catoni_pi_gamma(rn, pi, gamma_star), pi, rn, cfg)

    records = [{"type": "bound", "rho": name, **dataclasses.asdict(report), **setup.constants}
               for name, report in reports.items()]
    oracle = float(fit.oracle[0])
    summary = {
        "type": "summary", "command": "bound",
        "erm_index": int(fit.erm[0]), "rbar": float(fit.rbar[0]),
        "oracle_empirical": None if math.isnan(oracle) else oracle,
        "complexity_d": complexity.d, "complexity_satisfied": complexity.satisfied,
        "gamma_star": gamma_star,
        "timestamp": _timestamp(),
    }
    summary.update(setup.constants)
    return RunResult(records, summary)


def run_aggregate(config: ExperimentConfig) -> RunResult:
    """Optimal aggregation weights for one dataset, one record per atom."""
    setup = _setup(config)
    rn, rbar, rho = (rows[0] for rows in _fit(config, setup, range(1)))
    records = [{"type": "atom", "index": j, "coords": coords, "prior_weight": prior_weight,
                "rho_hat_weight": weight, "rn": risk}
               for j, (coords, prior_weight, weight, risk) in enumerate(zip(
                   setup.atoms.coords.tolist(), setup.pi.weights.tolist(), rho.tolist(),
                   rn.tolist()))]
    summary = {"type": "summary", "command": "aggregate",
               "rbar": float(rbar), "erm_index": erm_index(rn),
               "rn_integral_rho_hat": float(rho @ rn),
               "timestamp": _timestamp()}
    summary.update(setup.constants)
    return RunResult(records, summary)


# ---------------------------------------------------------------------------
# Coverage experiments
# ---------------------------------------------------------------------------

# Atom-rows per coverage block. A block certifies max(1, COVERAGE_BLOCK_ATOMS // K)
# replications at once as (rows, K) arrays, which bounds its memory at any K;
# one block of every replication raised peak memory and ran slower at K = 10**4.
COVERAGE_BLOCK_ATOMS = 4096


def _replication_block(config: ExperimentConfig, setup: _Setup, true_values: np.ndarray,
                       indices: range) -> dict[str, np.ndarray]:
    """The record columns of a block of coverage replications, plus ``sup``,
    S = max(E_pi gap_+**q, E_pi gap_-**q), and ``moment``, E_pi |gap|**q, of
    the gap R - r_n, which feed the summary and are not written."""
    fit = _certify(config, setup, indices)
    cfg = setup.cfg
    at_rho, at_erm = fit.reports["rho_hat"], fit.reports["erm"]

    rho_true = fit.rho @ true_values
    dev_rho = np.abs(rho_true - at_rho.rn_integral)
    hit_rho = dev_rho <= at_rho.margin

    # The certificate over every rho at once, decided exactly (Hoelder duality).
    upper_side, lower_side = deviation_moments(true_values - fit.rn, setup.pi.weights, cfg.q)
    sup = np.maximum(upper_side, lower_side)
    hit_sup = sup <= cfg.budget

    certified = ~np.isnan(fit.oracle)
    hit_oracle_level = rho_true <= fit.rbar
    true_erm = true_values[fit.erm]
    columns = {
        "index": np.asarray(indices),
        "rn_min": fit.rn.min(axis=1),
        "erm_index": fit.erm,
        "rbar": fit.rbar,
        "rho_hat_rn_integral": at_rho.rn_integral,
        "rho_hat_true_integral": rho_true,
        "divergence_plus_one": at_rho.divergence_plus_one,
        "margin_rho_hat": at_rho.margin,
        "margin_prior": fit.reports["prior"].margin,
        "margin_erm": at_erm.margin,
        "slack_rho_hat": at_rho.margin - dev_rho,
        "hit_rho_hat": hit_rho,
        "hit_sup": hit_sup,
        "hit_two_sided": hit_rho & hit_sup,
        "sup_ratio": sup / cfg.budget,
        "hit_erm": true_erm <= at_erm.upper,
        "true_risk_erm": true_erm,
        "complexity_d": fit.complexity.d,
        "complexity_certified": certified,
        "oracle_dim_bound": np.where(certified, fit.oracle, None),
        "hit_oracle_level": hit_oracle_level,
        "hit_oracle": hit_oracle_level & (~certified | (rho_true <= fit.oracle)),
        "sup": sup,
        "moment": upper_side + lower_side,
    }
    return columns


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else math.inf


def run_coverage(config: ExperimentConfig) -> RunResult:
    """Monte Carlo coverage of the certificates on a synthetic generator.

    Per replication the two-sided certificate is decided uniformly over all
    aggregation distributions: by Hoelder duality it holds for every rho
    exactly when S = max(E_pi gap_+**q, E_pi gap_-**q) <= M/delta, with
    gap = R - r_n (``hit_sup``, ``sup_ratio`` = S/(M/delta)). A replication
    is a two-sided hit when that event and the optimal weights' own
    certificate hold. True risks come from the generator's closed form, so
    hit/miss decisions carry no oracle noise.

    Replications are certified in fixed blocks of
    ``max(1, COVERAGE_BLOCK_ATOMS // K)`` rows, and the worker pool maps
    blocks, so the output does not depend on ``experiment.workers``.

    The summary splits the slack of the moment constant M by layer:
    ``realized_moment`` m = mean E_pi |gap|**q, ``critical_moment``
    M_crit = delta times the (1 - delta) quantile of S taken as an order
    statistic (``method="higher"``), so that the sup event holds in at least
    a 1 - delta share of the replications at M = M_crit, ``constant_layer``
    M/m, ``markov_layer`` m/M_crit and their product ``constant_slack``
    M/M_crit.
    """
    if config.replications < 50:
        raise ConfigError("experiment.replications: coverage runs need at least 50 replications")
    setup = _setup(config)
    pi, cfg = setup.pi, setup.cfg
    try:
        true_values = datagen.true_risk_closed_form(config.generator, setup.atoms, config.loss)
    except NoClosedFormError as exc:
        raise ConfigError(f"coverage requires a closed-form true risk: {exc}") from exc
    rows = max(1, COVERAGE_BLOCK_ATOMS // len(setup.atoms))
    blocks = [range(start, min(start + rows, config.replications))
              for start in range(0, config.replications, rows)]
    certify_block = partial(_replication_block, config, setup, true_values)
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            done = list(pool.map(certify_block, blocks))
    else:
        done = [certify_block(block) for block in blocks]
    columns = {name: np.concatenate([block[name] for block in done]) for name in done[0]}
    sup, moment = columns.pop("sup"), float(np.mean(columns.pop("moment")))
    records = [{"type": "replication", **dict(zip(columns, row)), **setup.constants}
               for row in zip(*(column.tolist() for column in columns.values()))]

    # Population-side quantities are deterministic for the configuration; the
    # population level spends the budget 2**q * M / delta.
    pop_budget = cfg.moment.value * 2.0 ** cfg.q / cfg.delta
    rbar_pop = solve_rbar(true_values, pi, cfg.q, pop_budget)
    pop_complexity, oracle_pop = certified_oracle(true_values, pi, np.asarray(config.gamma_grid),
                                                  rbar_pop, pop_budget, cfg.q)

    slack = columns["slack_rho_hat"]
    finite_slack = slack[np.isfinite(slack)]
    certified = columns["complexity_certified"]
    certified_hits = columns["hit_oracle"][certified]
    critical = cfg.delta * float(np.quantile(sup, 1.0 - cfg.delta, method="higher"))

    summary = {
        "type": "summary", "command": "coverage",
        "replications": config.replications,
        "coverage_two_sided": float(np.mean(columns["hit_two_sided"])),
        "coverage_oracle": float(np.mean(columns["hit_oracle"])),
        "coverage_oracle_certified": (float(np.mean(certified_hits)) if certified_hits.size
                                      else None),
        "coverage_erm": float(np.mean(columns["hit_erm"])),
        "mean_slack": float(finite_slack.mean()) if finite_slack.size else math.inf,
        "certified_fraction": float(np.mean(certified)),
        "population_complexity_d": pop_complexity.d,
        "population_complexity_satisfied": pop_complexity.satisfied,
        "rbar_population": rbar_pop,
        "oracle_population_bound": oracle_pop,
        "realized_moment": moment,
        "critical_moment": critical,
        "constant_slack": _ratio(cfg.moment.value, critical),
        "constant_layer": _ratio(cfg.moment.value, moment),
        "markov_layer": _ratio(moment, critical),
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
