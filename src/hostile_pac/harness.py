"""Config-driven orchestration: one-shot bounds, coverage experiments, sweeps.

A single YAML file with four sections (``experiment``, ``generator``,
``prior``, ``regime``) describes a full experiment; the CLI in
:mod:`hostile_pac.cli` maps subcommands onto the ``run_*`` functions here.
The file is read into the spec dataclasses: their fields are the allowed
keys, their defaults the defaults and their annotations the accepted values,
and every error names the offending ``section.key``.

``bound``, ``aggregate`` and coverage share one path: ``_setup`` builds the
prior and the moment constant of a configuration, ``_fit`` draws a range of
the run's datasets (``datagen.generate``) as one stacked dataset and turns it
into rows of r_n, their levels rbar and rho_hat weights, and ``_certify`` adds,
for ``bound`` and coverage, the ERM, the sublevel-mass exponent, the certified
oracle and the rho_hat, prior and ERM certificates, row by row. ``bound`` and
``aggregate`` take the one-row range of dataset 0; coverage runs the fewest
contiguous blocks of at most ``COVERAGE_BLOCK_VALUES // (K + n (k + 1) / 2)``
rows (K atoms of dimension k, n observations), sized within one of each other,
in one process. A dataset is the same in any block and every row sum reads
its own row only, so no output depends on the block size.

Each regime's load-time rules and moment constant live on its class in
:mod:`hostile_pac.moments`, called by ``ExperimentConfig``'s load-time check and
``resolve_moment``. All regime constants entering a bound are analytic
(closed forms from the generator spec and prior); nothing is estimated from
the data that the bound is then applied to. Every output record repeats the
constants and the assumed mixing envelope (c1, c2) under which it was produced.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from functools import cache
from itertools import chain, groupby, repeat
from operator import is_
from pathlib import Path
from types import UnionType
from typing import Literal, NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from . import datagen
from .aggregation import (CONJUGACY_TOL, BoundConfig, BoundReport, ComplexityEstimate,
                          catoni_pi_gamma, certificate, certified_oracle, deviation_moments,
                          erm_index, evaluate_bound, optimal_gamma, rho_hat, solve_rbar)
from .datagen import (AR1, BoundedClassification, GaussianNoise, GeneratorSpec,
                      IidLinearRegression, IsotropicGaussianX, NoClosedFormError, StudentTNoise)
from .moments import (MixingBoundedRegime, MixingUnboundedRegime, RegimeSpec, SubGaussianRegime,
                      VarianceRegime, scale_keys)
from .param_space import (AtomSet, DiscreteDistribution, ExplicitPrior, IidSamplePrior,
                          PriorSpec, _row_dots, build_prior, expectation)
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
    require_complexity: bool = False

    def __post_init__(self) -> None:
        """Every load-time rule: the experiment's own values, the regime's
        rules, then those of every regime."""
        try:
            if self.seed < 0:
                raise ValueError("experiment.seed must be nonnegative")
            if self.n < 1:
                raise ValueError("experiment.n must be positive")
            most = np.iinfo(np.intp).max // (8 * self.generator.dim)
            if self.n > most:  # numpy cannot index one dataset's n x k doubles
                raise ValueError(f"experiment.n must be at most {most}, the most rows of "
                                 f"{self.generator.dim} doubles that one array can hold")
            if not 0 < self.delta < 1:
                raise ValueError("experiment.delta must lie in (0, 1)")
            if not self.p > 1:
                raise ValueError("experiment.p must exceed 1")
            if not self.p / (self.p - 1.0) > 1:
                raise ValueError(f"experiment.p={self.p!r} is so large that q = p/(p-1) "
                                 "rounds to 1")
            self.regime.check(self)
            for key, value in vars(self.regime).items():
                if isinstance(value, float) and not value > 0:
                    raise ValueError(f"regime.{key} must be positive, got {value}")
            if isinstance(self.generator, AR1) and self.n < 2:
                raise ValueError("experiment.n must be at least 2 for AR(1)")
            if self.prior.dim != self.generator.dim:
                key = "atoms" if isinstance(self.prior, ExplicitPrior) else "dim"
                raise ValueError(f"prior.{key}: the prior's atoms have dimension "
                                 f"{self.prior.dim}, the generator's parameters "
                                 f"{self.generator.dim}")
            if not self.gamma_grid or not all(0 < g < 1 for g in self.gamma_grid):
                raise ValueError("experiment.gamma_grid must be nonempty, with values inside "
                                 "(0, 1)")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Config file parsing: keys, defaults and types come from the dataclasses
# ---------------------------------------------------------------------------

_KINDS = {
    GeneratorSpec: {"iid_regression": IidLinearRegression, "ar1": AR1,
                    "classification": BoundedClassification},
    datagen.NoiseLaw: {"gaussian": GaussianNoise, "student_t": StudentTNoise},
    datagen.XLaw: {"gaussian": IsotropicGaussianX},
    PriorSpec: {"iid_sample": IidSamplePrior, "explicit": ExplicitPrior},
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
    elif origin is tuple:  # tuple[X, ...]
        if isinstance(value, (list, tuple)):
            return tuple(_coerce(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
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
    except (ValueError, TypeError) as exc:  # a message that names a key of ``where`` stands alone
        named = str(exc).startswith(f"{where}.")
        raise ConfigError(str(exc) if named else f"{where}: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate an :class:`ExperimentConfig` from parsed YAML."""
    unknown = set(_mapping(raw, "config root")) - {"experiment", *_SECTIONS}
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(map(str, unknown))}")
    exp = dict(_mapping(raw.get("experiment"), "experiment"))
    if exp.pop("probes", 0) != 0:  # retired key; perfbench/configs still write probes: 0
        raise ConfigError("experiment.probes is retired: coverage decides the event over "
                          "every rho exactly, so only probes: 0 is accepted")
    if "workers" in exp:  # retired key; perfbench still writes experiment.workers=1|2
        if _coerce(exp.pop("workers"), int, "experiment.workers") < 1:
            raise ConfigError("experiment.workers must be positive")
    if isinstance(exp.get("loss"), str):
        exp["loss"] = {"kind": exp["loss"]}
    if isinstance(exp.get("gamma_grid"), dict):
        grid = _build(_GammaRange, exp["gamma_grid"], "experiment.gamma_grid")
        exp["gamma_grid"] = np.linspace(grid.lo, grid.hi, grid.points).tolist()
    hints = _hints(ExperimentConfig)
    sections = {s: _coerce(raw.get(s), hints[s], s) for s in _SECTIONS}
    return _build(ExperimentConfig, exp, "experiment", **sections)


def yaml_value(text: str, where: str):
    """One command-line value read as YAML; ``where`` names its flag or key."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{where}: {text!r} is not valid YAML") from exc


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` strings onto a parsed config mapping."""
    out = copy.deepcopy(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, _, value = item.partition("=")
        *path, key = dotted.split(".")
        node = _mapping(out, "config root")
        for depth, part in enumerate(path):
            node = _mapping(node.setdefault(part, {}), ".".join(path[:depth + 1]))
        node[key] = yaml_value(value, f"--set {dotted}")
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
        with np.errstate(over="ignore", invalid="ignore"):  # overflows fail as non-finite values
            p, bound, constants = config.regime.resolve(config, atoms, pi)
        cfg = BoundConfig(p=p, delta=config.delta, moment=bound)
        if not 0 < cfg.budget < math.inf:
            raise ValueError(f"experiment.delta={config.delta!r}: the budget M/delta must be "
                             f"positive and finite, got M = {bound.value!r}")
    except ValueError as exc:  # a finite constant whose moment bound overflows, say
        raise ConfigError(f"regime ({kind}): {exc}") from exc
    return cfg, {"regime": kind, "c1": None, "c2": None, **constants}


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
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # overflows fail as non-finite values
            rn = empirical_risks(datagen.generate(config.generator, config.n, config.seed, indices),
                                 setup.atoms, config.loss)
    except ValueError as exc:  # non-finite data or risks
        raise ConfigError(f"the data overflow doubles ({exc}); lower "
                          f"{scale_keys(config)}") from exc
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


def _evaluate_bound(rho, pi: DiscreteDistribution, rn: np.ndarray,
                    cfg: BoundConfig) -> BoundReport:
    """``evaluate_bound``, its D + 1 check reported against ``experiment.p``.

    D + 1 = sum_j rho_j**p pi_j**(1-p) is at least 1, so only rounding takes
    it below; raising rho_j/pi_j to the power p multiplies its rounding error
    by p, which near p = 1e14 is of the order of D itself.
    """
    try:
        return evaluate_bound(rho, pi, rn, cfg)
    except ValueError as exc:
        raise ConfigError(f"experiment.p={cfg.p!r} is too large for D + 1 to be computed in "
                          f"doubles: {exc}") from exc


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
        "rho_hat": _evaluate_bound(rho, pi, rn, cfg),
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
    complexity = fit.complexity.row(0)
    if config.require_complexity and not complexity.satisfied:
        raise AssumptionError(
            "prior-mass exponent failed to certify on the configured gamma grid"
        )
    reports = {name: report.row(0) for name, report in fit.reports.items()}
    gamma_star = None
    if complexity.satisfied:
        gamma_star = optimal_gamma(complexity.d, cfg.p, cfg.budget)
        pi_gamma = catoni_pi_gamma(fit.rn, pi, gamma_star)
        reports["pi_gamma"] = _evaluate_bound(pi_gamma, pi, fit.rn, cfg).row(0)

    records = [{"type": "bound", "rho": name, **dataclasses.asdict(report), **setup.constants}
               for name, report in reports.items()]
    oracle = float(fit.oracle[0])
    summary = {
        "type": "summary", "command": "bound",
        "erm_index": int(fit.erm[0]), "rbar": float(fit.rbar[0]),
        "oracle_empirical": None if math.isnan(oracle) else oracle,
        "complexity_d": complexity.d, "complexity_satisfied": complexity.satisfied,
        "gamma_star": gamma_star, **setup.constants,
    }
    return RunResult(records, summary)


def run_aggregate(config: ExperimentConfig) -> RunResult:
    """Optimal aggregation weights for one dataset, one record per atom."""
    setup = _setup(config)
    rn, rbar, rho = _fit(config, setup, range(1))
    records = [{"type": "atom", "index": j, "coords": coords, "prior_weight": prior_weight,
                "rho_hat_weight": weight, "rn": risk}
               for j, (coords, prior_weight, weight, risk) in enumerate(zip(
                   setup.atoms.coords.tolist(), setup.pi.weights.tolist(), rho[0].tolist(),
                   rn[0].tolist()))]
    summary = {"type": "summary", "command": "aggregate",
               "rbar": float(rbar[0]), "erm_index": int(erm_index(rn)[0]),
               "rn_integral_rho_hat": float(_row_dots(rho, rn)[0]), **setup.constants}
    return RunResult(records, summary)


# ---------------------------------------------------------------------------
# Coverage experiments
# ---------------------------------------------------------------------------

# Values per coverage block. A replication holds K values per atom-wide array and
# n (k + 1) data values, x and y, weighed by half since the QR copies only fixed chunks
# of them (risk.QR_CHUNK_VALUES), so a block holds at most COVERAGE_BLOCK_VALUES //
# (K + n (k + 1) / 2) replications, which bounds its memory at any K and n. Each block
# pays a fixed cost of some 490 Python-level calls; 86,016 caps a block at 215 rows at
# K = 100, n = 200 and 4 at the scale point K = 10**4, n = 5000 (k = 2).
COVERAGE_BLOCK_VALUES = 86016


def _even_blocks(total: int, cap: int) -> list[range]:
    """range(total) in the fewest contiguous blocks of at most ``cap``, sizes within one."""
    count = -(-total // cap)
    edges = [total * i // count for i in range(count + 1)]
    return [range(start, stop) for start, stop in zip(edges, edges[1:])]


def _replication_block(config: ExperimentConfig, setup: _Setup, true_values: np.ndarray,
                       indices: range) -> dict[str, np.ndarray]:
    """The record columns of a block of coverage replications, plus ``sup``,
    S = max(E_pi gap_+**q, E_pi gap_-**q), and ``moment``, E_pi |gap|**q, of
    the gap R - r_n, which feed the summary and are not written."""
    fit = _certify(config, setup, indices)
    cfg = setup.cfg
    at_rho, at_erm = fit.reports["rho_hat"], fit.reports["erm"]

    rho_true = _row_dots(fit.rho, true_values)
    dev_rho = np.abs(rho_true - at_rho.rn_integral)
    hit_rho = dev_rho <= at_rho.margin

    # The certificate over every rho at once, decided exactly (Hoelder duality).
    upper_side, lower_side = deviation_moments(true_values - fit.rn, setup.pi, cfg.q)
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

    Replications are certified in even blocks (see the module docstring);
    every record and summary field is the same at any block size, which
    bounds memory only.

    The summary splits the slack of the moment constant M by layer:
    ``realized_moment`` m = mean E_pi |gap|**q, ``critical_moment``
    M_crit = delta times the (1 - delta) quantile of S taken as an order
    statistic (``method="higher"``), so that the sup event holds in at least
    a 1 - delta share of the replications at M = M_crit, ``constant_layer``
    M/m, ``markov_layer`` m/M_crit and their product ``constant_slack``
    M/M_crit.
    """
    columns, summary, constants = _coverage(config)
    # Copies of one template, filled column by column; a constant wins over a
    # column of its name, as in {"type": ..., **columns, **constants}.
    template = {"type": "replication", **dict.fromkeys(columns), **constants}
    records = [template.copy() for _ in range(config.replications)]
    for name, column in columns.items():
        if name not in constants:
            for record, value in zip(records, column.tolist()):
                record[name] = value
    return RunResult(records, summary)


def _coverage(config: ExperimentConfig) -> tuple[dict[str, np.ndarray], dict, dict]:
    """The record columns, the summary and the echoed constants of ``run_coverage``."""
    if config.replications < 50:
        raise ConfigError("experiment.replications: coverage runs need at least 50 replications")
    if config.replications > 2**32:  # a dataset index is one 32-bit seed word
        raise ConfigError("experiment.replications: coverage runs take at most 2**32 "
                          "replications")
    setup = _setup(config)
    pi, cfg = setup.pi, setup.cfg
    # The population level, fixed by the configuration, spends the budget 2**q * M / delta.
    with np.errstate(over="ignore"):
        pop_budget = float(cfg.moment.value * np.float64(2.0) ** cfg.q / cfg.delta)
    if not pop_budget < math.inf:
        raise ConfigError(f"regime ({setup.constants['regime']}): regime.q or experiment.p "
                          f"sets q={cfg.q!r}, at which the population budget 2**q * M/delta "
                          f"overflows with experiment.delta={cfg.delta!r}")
    try:
        true_values = datagen.true_risk_closed_form(config.generator, setup.atoms, config.loss)
    except NoClosedFormError as exc:
        raise ConfigError(f"{exc}; coverage requires a closed-form true risk") from exc
    cap = max(1, 2 * COVERAGE_BLOCK_VALUES  # over 2 (K + n (k + 1) / 2), in integers
              // (2 * len(setup.atoms) + config.n * (setup.atoms.dim + 1)))
    done = [_replication_block(config, setup, true_values, block)
            for block in _even_blocks(config.replications, cap)]
    columns = {name: np.concatenate([block[name] for block in done]) for name in done[0]}
    sup, moment = columns.pop("sup"), float(np.mean(columns.pop("moment")))

    rbar_pop = solve_rbar(true_values[None], pi, cfg.q, pop_budget)
    pop_complexity, oracle_pop = certified_oracle(true_values[None], pi,
                                                  np.asarray(config.gamma_grid), rbar_pop,
                                                  pop_budget, cfg.q)
    pop_complexity, oracle_pop = pop_complexity.row(0), float(oracle_pop[0])

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
        "rbar_population": float(rbar_pop[0]),
        "oracle_population_bound": None if math.isnan(oracle_pop) else oracle_pop,
        "realized_moment": moment,
        "critical_moment": critical,
        "constant_slack": _ratio(cfg.moment.value, critical),
        "constant_layer": _ratio(cfg.moment.value, moment),
        "markov_layer": _ratio(moment, critical), **setup.constants,
    }
    return columns, summary, setup.constants


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("n", "delta", "p")


def run_sweep(config: ExperimentConfig, axis: str, values: list) -> RunResult:
    """Coverage summaries along one axis: one ``sweep_row`` record per value,
    with the n, delta and p that its bound used. A swept p that the bound
    ignores is a ``ConfigError`` naming the key that set q."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    hint = _hints(ExperimentConfig)[axis]
    records = []
    for value in values:
        # replace() reruns the config validation on the swept value.
        cfg_v = dataclasses.replace(config, **{axis: _coerce(value, hint, f"sweep {axis}")})
        columns, summary, _ = _coverage(cfg_v)
        # Only the sub-Gaussian regime takes q from elsewhere than p. Compare q with p's
        # conjugate, not p itself: p -> q -> p may move p by an ulp.
        if axis == "p" and abs(1.0 / cfg_v.p + 1.0 / summary["q"] - 1.0) > CONJUGACY_TOL:
            key = "regime.optimize_q" if config.regime.optimize_q else "regime.q"
            raise ConfigError(f"{key} sets q={summary['q']!r}, so the bound ignores the "
                              f"swept experiment.p={cfg_v.p!r}")
        records.append({
            "type": "sweep_row", "axis": axis, "value": value,
            **{key: summary[key] for key in SWEEP_AXES},  # the values the bound used
            "coverage_two_sided": summary["coverage_two_sided"],
            "coverage_oracle": summary["coverage_oracle"],
            "median_margin": float(np.median(columns["margin_prior"])),
            "median_margin_rho_hat": float(np.median(columns["margin_rho_hat"])),
            "mean_slack": summary["mean_slack"],
            "moment_bound": summary["moment_bound"],
        })
    return RunResult(records, {"type": "summary", "command": "sweep", "axis": axis,
                               "rows": len(records)})


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# Record output
# ---------------------------------------------------------------------------

_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)


def dump_record(record) -> str:
    """Canonical one-line JSON of a record, or of one value in a record.

    This encoder defines the record format: sorted keys, ``", "`` and
    ``": "`` separators, floats by their shortest round-trip repr and
    infinities and NaN in the Python JSON dialect.
    """
    return _RECORD_ENCODER.encode(record)


def _field_texts(values) -> list[str]:
    """``dump_record`` of each value, made in one pass where the value types
    allow: plain finite floats and plain ints by repr, as the encoder writes
    them, bools by lookup and non-empty lists of one length position by
    position."""
    kinds = set(map(type, values))
    if kinds == {float} and math.isfinite(sum(values)):  # a finite sum rules out inf and NaN
        return list(map(float.__repr__, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {bool}:
        return list(map(("false", "true").__getitem__, values))
    if kinds == {list} and len(set(map(len, values))) == 1 and values[0]:
        positions = [_field_texts(position) for position in zip(*values)]
        return ["[" + ", ".join(row) + "]" for row in zip(*positions)]
    return [dump_record(value) for value in values]


def _written_alike(values) -> bool:
    """Whether ``dump_record`` writes every value as the first: the same object
    throughout, or equal values of one type among int, str and float, the
    floats not zero (0.0 and -0.0 are equal but written apart). A NaN equals
    only itself, so distinct NaNs never count as equal."""
    first, kind = values[0], type(values[0])
    if all(map(is_, values, repeat(first))):
        return True
    return ((kind is int or kind is str or (kind is float and first != 0))
            and all(map(is_, map(type, values), repeat(kind)))
            and values.count(first) == len(values))


def records_text(records: list[dict]) -> str:
    """``"".join(dump_record(r) + "\\n" for r in records)``, made field by field.

    Each run of records with one key set shares a line template of its
    sorted keys; a value written alike in every record of the run (the same
    object, or equal plain values, see ``_written_alike``) is encoded once
    into that template, and every other field is encoded in one pass over
    its values. Runs with a non-string key go record by record.
    """
    chunks = []
    for keys, run in groupby(records, dict.keys):
        run = list(run)
        if not all(type(key) is str for key in keys):
            chunks += [dump_record(record) + "\n" for record in run]
            continue
        literal, parts, fields = "{", [], []
        for i, key in enumerate(sorted(keys)):
            values = [record[key] for record in run]
            literal += (", " if i else "") + dump_record(key) + ": "
            if _written_alike(values):
                literal += dump_record(values[0])
            else:
                parts.append(literal)
                fields.append(_field_texts(values))
                literal = ""
        parts.append(literal + "}\n")
        columns = [repeat(parts[0], len(run))]
        for field, part in zip(fields, parts[1:]):
            columns += [field, repeat(part)]
        chunks.append("".join(chain.from_iterable(zip(*columns))))
    return "".join(chunks)


def write_records(records: list[dict], path: str | Path) -> None:
    Path(path).write_text(records_text(records))


def write_outputs(prefix: str | Path, records: list[dict], summary: dict) -> list[Path]:
    """Write ``PREFIX.records.jsonl`` and ``PREFIX.summary.json``, both in the
    canonical record format of :func:`dump_record`; return the paths written.

    The suffixes are appended, so prefixes that differ after a dot
    (``run.w1``, ``run.w2``) never share a file.
    """
    if os.path.basename(prefix) in ("", ".", ".."):  # "DIR/" would write DIR/.records.jsonl
        raise ValueError("an output prefix must end in a file name")
    paths = [Path(f"{prefix}.records.jsonl"), Path(f"{prefix}.summary.json")]
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    write_records(records, paths[0])
    paths[1].write_text(dump_record(summary) + "\n")
    return paths
