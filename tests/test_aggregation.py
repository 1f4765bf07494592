import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hostile_pac.aggregation import (BoundConfig, SolverError, _sublevel_masses, catoni_pi_gamma,
                                     certified_oracle, deviation_moments, erm_index,
                                     evaluate_bound, optimal_gamma, oracle_bound, pac_margin,
                                     rho_hat, solve_rbar, verify_complexity)
from hostile_pac.divergence import power_divergence_plus_one
from hostile_pac.moments import MomentBound
from hostile_pac.param_space import DiscreteDistribution, expectation
from oracles import minimized_objective_identity, sublevel_masses_where


def _cfg(p=2.0, delta=0.1, value=0.004, q=None):
    q_eff = p / (p - 1.0) if q is None else q
    return BoundConfig(p=p, delta=delta, moment=MomentBound(value, q_eff))


def test_bound_config_validation():
    cfg = _cfg(p=2.0)
    assert cfg.q == 2.0
    with pytest.raises(ValueError):
        BoundConfig(p=2.0, delta=0.1, moment=MomentBound(0.1, 3.0))
    # q is the moment bound's; p is stored as given.
    cfg = BoundConfig(p=4.0 / 3.0, delta=0.1, moment=MomentBound(0.1, 4.0))
    assert cfg.q == 4.0 and cfg.p == 4.0 / 3.0


def test_pac_margin_examples():
    assert pac_margin(_cfg(value=0.004), 10.0) == pytest.approx(
        math.sqrt(0.04) * math.sqrt(10.0), rel=1e-12)
    assert pac_margin(_cfg(value=0.04), 1.0) == pytest.approx(math.sqrt(0.4), rel=1e-12)
    assert math.isinf(pac_margin(_cfg(), math.inf))
    with pytest.raises(ValueError):
        pac_margin(_cfg(), 0.5)
    with pytest.raises(ValueError):
        pac_margin(_cfg(), math.nan)


def test_evaluate_bound_prior_case():
    pi = DiscreteDistribution.uniform(4)
    rn = np.full(4, 0.5)
    report = evaluate_bound(pi.weights[None], pi, rn[None], _cfg(value=0.04)).row(0)
    assert report.rn_integral == pytest.approx(0.5)
    assert report.margin == pytest.approx(math.sqrt(0.4), rel=1e-12)
    assert report.upper == pytest.approx(0.5 + math.sqrt(0.4), rel=1e-12)
    assert report.lower == pytest.approx(0.5 - math.sqrt(0.4), rel=1e-12)


def test_evaluate_bound_null_atom_dirac():
    pi = DiscreteDistribution(np.array([0.0, 1.0]))
    dirac = np.eye(2)[[0]]
    report = evaluate_bound(dirac, pi, np.array([[0.1, 0.9]]), _cfg()).row(0)
    assert math.isinf(report.margin) and math.isinf(report.upper)
    assert report.lower == -math.inf


def test_evaluate_bound_erm_matches_finite_class_margin():
    # Dirac on the minimizer against a uniform prior: margin must equal
    # K**(1 - 1/p) * (M/delta)**(1/q) computed independently.
    size, p = 10, 2.0
    pi = DiscreteDistribution.uniform(size)
    rn = np.linspace(0.2, 0.9, size)
    cfg = _cfg(p=p, value=0.001, delta=0.1)  # budget 0.01
    report = evaluate_bound(np.eye(size)[[0]], pi, rn[None], cfg).row(0)
    direct = size ** (1.0 - 1.0 / p) * (0.001 / 0.1) ** 0.5
    assert report.margin == pytest.approx(direct, rel=1e-12)
    assert report.margin == pytest.approx(0.1 * math.sqrt(10.0), rel=1e-12)


_PI3 = DiscreteDistribution.uniform(3)
_ONE_ROW = {
    "solve_rbar": lambda v: solve_rbar(v, _PI3, 2.0, 0.1),
    "rho_hat": lambda v: rho_hat(v, _PI3, 2.0, 0.8),
    "evaluate_bound-rn": lambda v: evaluate_bound(_PI3.weights[None], _PI3, v, _cfg()),
    "evaluate_bound-rho": lambda v: evaluate_bound(_PI3.weights, _PI3, v[None], _cfg()),
    "verify_complexity": lambda v: verify_complexity(v, _PI3, np.array([0.5])),
    "certified_oracle": lambda v: certified_oracle(v, _PI3, np.array([0.5]), 0.8, 0.1, 2.0),
    "erm_index": erm_index,
    "catoni_pi_gamma": lambda v: catoni_pi_gamma(v, _PI3, 0.2),
    "deviation_moments": lambda v: deviation_moments(v, _PI3, 2.0),
    "power_divergence_plus_one": lambda v: power_divergence_plus_one(v, _PI3, 2.0),
    "expectation": lambda v: expectation(_PI3, v),
}


@pytest.mark.parametrize("call", _ONE_ROW.values(), ids=_ONE_ROW.keys())
def test_routines_take_rows_only(call):
    # One dataset is one row: a bare vector is a shape error, not a second signature.
    with pytest.raises(ValueError, match=r"shape \(rows, K"):
        call(np.array([0.0, 0.5, 1.0]))


def test_solve_rbar_closed_forms():
    pi = DiscreteDistribution.uniform(2)
    rn = np.array([[0.0, 1.0]])
    assert solve_rbar(rn, pi, 2.0, 0.125)[0] == pytest.approx(0.5, abs=1e-10)
    assert solve_rbar(rn, pi, 2.0, 0.625)[0] == pytest.approx(
        (1.0 + math.sqrt(1.5)) / 2.0, abs=1e-10)
    single = DiscreteDistribution(np.array([1.0]))
    assert solve_rbar(np.array([[0.7]]), single, 3.0, 0.002)[0] == pytest.approx(
        0.7 + 0.002 ** (1.0 / 3.0), abs=1e-10)
    # A 1e-300 weight on the minimizer: the other atom alone spends the budget.
    tiny_floor = DiscreteDistribution(np.array([1e-300, 1.0 - 1e-300]))
    assert solve_rbar(rn, tiny_floor, 2.0, 0.01)[0] == pytest.approx(1.1, rel=1e-12)
    # A +inf risk takes the masked mass and mean of the finite atoms; the bracket of
    # the 1e-300 mass tied at the minimum alone starts too far away to converge.
    tiny_two = DiscreteDistribution(np.array([1e-300, 1e-300, 1.0]))
    assert solve_rbar(np.array([[0.0, np.inf, 1.0]]), tiny_two, 2.0, 1.0)[0] == pytest.approx(
        2.0, rel=1e-12)


def test_solve_rbar_errors():
    pi = DiscreteDistribution.uniform(2)
    with pytest.raises(ValueError):
        solve_rbar(np.array([[0.0, 1.0]]), pi, 2.0, 0.0)
    with pytest.raises(ValueError):
        solve_rbar(np.array([[np.inf, np.inf]]), pi, 2.0, 1.0)
    masked = DiscreteDistribution(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        solve_rbar(np.array([[np.inf, 0.0]]), masked, 2.0, 1.0)
    # A NaN or -inf risk on a supported atom has no level; off the support it is ignored.
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="NaN or -inf"):
            solve_rbar(np.array([[0.0, bad]]), pi, 2.0, 0.2)
        assert solve_rbar(np.array([[0.5, bad]]), masked, 2.0, 0.2)[0] == pytest.approx(
            0.5 + math.sqrt(0.2), rel=1e-14)


@pytest.mark.parametrize("budget", [math.nan, 0.0, math.inf])
def test_budget_must_be_positive(budget):
    # NaN passes a `budget <= 0` test and inf passes `budget > 0`, so each function
    # must test `not 0 < budget < inf`.
    pi, rn = DiscreteDistribution.uniform(2), np.array([[0.0, 1.0]])
    with pytest.raises(ValueError):
        solve_rbar(rn, pi, 2.0, budget)
    with pytest.raises(ValueError):
        oracle_bound(0.0, budget, 2.0, 1.0)
    with pytest.raises(ValueError):
        optimal_gamma(1.0, 2.0, budget)
    with pytest.raises(ValueError):
        certified_oracle(rn, pi, np.array([0.1, 0.5]), 0.2, budget, 2.0)


def test_solve_rbar_random_residuals():
    rng = np.random.default_rng(7)
    for _ in range(200):
        size = int(rng.integers(2, 64))
        pi = DiscreteDistribution(rng.dirichlet(np.ones(size)))
        rn = rng.uniform(0.0, 1.0, size)
        q = float(rng.uniform(1.1, 3.0))
        budget = 10.0 ** rng.uniform(-6, 1)
        root = solve_rbar(rn[None], pi, q, budget)[0]
        spend = float(pi.weights @ np.maximum(root - rn, 0.0) ** q)
        assert abs(spend - budget) <= 1e-10 * budget


def _spend(rn, weights, q, u):
    active = (weights > 0) & (rn < u)
    return float(weights[active] @ (u - rn[active]) ** q)


def _rbar_reference_q2(rn, weights, target):
    """q = 2 level by walking the sorted active prefixes, one quadratic each.

    While exactly the k lowest supported atoms are active, the spend is
    W (u - m)**2 + V with W, m, V their prior mass, mean and spread.
    """
    keep = (weights > 0) & np.isfinite(rn)
    order = np.argsort(rn[keep], kind="stable")
    risks, mass = rn[keep][order], weights[keep][order]
    for k in range(1, risks.size + 1):
        total = mass[:k].sum()
        mean = float(mass[:k] @ risks[:k]) / total
        spread = float(mass[:k] @ (risks[:k] - mean) ** 2)
        if spread <= target:
            level = mean + math.sqrt((target - spread) / total)
            if k == risks.size or level <= risks[k]:
                return level
    raise AssertionError("no active prefix holds the level")


@pytest.mark.parametrize("rn", [(8817.0, 8818.0), (1000.0, 2000.0)])
def test_solve_rbar_certifies_the_last_bit(rn):
    # The level sits ~7e-6 above the lowest risk, closer than a double there can
    # bring the spend to within 1e-10 T; it is the root to the last bit instead.
    rn, weights, q, target = np.array(rn), np.full(2, 0.5), 1.42, 2.5e-8
    rbar = solve_rbar(rn[None], DiscreteDistribution(weights), q, target)[0]
    spend = _spend(rn, weights, q, rbar)
    assert spend >= target > _spend(rn, weights, q, np.nextafter(rbar, -np.inf))
    assert abs(spend - target) > 1e-10 * target


def test_solve_rbar_steps_onto_the_last_bit_root():
    # The last Newton step lands just below the level, where the spend falls
    # short of T; the solve steps up to the double that spends it.
    rn, weights = np.array([7528.546752461672]), np.ones(1)
    q, budget = 2.504694217327672, 5.3322714857060166e-11 / 0.1
    rbar = solve_rbar(rn[None], DiscreteDistribution(weights), q, budget)[0]
    assert rbar == 7528.546950941618
    assert _spend(rn, weights, q, rbar) >= budget > _spend(rn, weights, q, np.nextafter(rbar, -np.inf))


@st.composite
def _level_problems(draw):
    """Risks with ties and +inf atoms, weights with zeros and 1e-300 masses."""
    size = draw(st.integers(1, 12))
    risks = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0),
                                   min_size=size, max_size=size)))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 1e-300]) | st.floats(1e-3, 1.0),
                                     min_size=size, max_size=size)))
    weights[0] = max(weights[0], 1e-3)  # atom 0 keeps the support nonempty and finite
    infinite = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    infinite[0] = False
    risks[infinite] = np.inf
    if draw(st.booleans()):  # a 1e-300 weight on a minimizer
        supported = np.flatnonzero(weights > 0)
        floor = supported[np.argmin(risks[supported])]
        if (weights[supported] >= 1e-3).sum() > 1:
            weights[floor] = 1e-300
    return risks, weights / weights.sum(), draw(st.floats(1e-3, 10.0))


@settings(max_examples=300, deadline=None)
@given(problem=_level_problems(), q=st.floats(1.01, 40.0))
def test_solve_rbar_properties(problem, q):
    rn, weights, target = problem
    rbar = solve_rbar(rn[None], DiscreteDistribution(weights), q, target)[0]
    assert abs(_spend(rn, weights, q, rbar) - target) <= 1e-10 * target
    floor = rn[weights > 0].min()
    assert _spend(rn, weights, q, rbar - 1e-6 * (rbar - floor)) < target
    at_two = solve_rbar(rn[None], DiscreteDistribution(weights), 2.0, target)[0]
    assert at_two == pytest.approx(_rbar_reference_q2(rn, weights, target), rel=1e-12)


@pytest.mark.parametrize("q, target, rn, weights, level", [
    (1.0897021451523405, 1.1057768674609696e-10, [0.1, 0.0],
     [0.9416900744916612, 0.05830992550833881], 9.906246590249285e-09),
    (1.01, 2.726306409067364e-09, [0.2317896365919192, 0.05224269189968473],
     [0.4310570824856829, 0.568942917514317], 0.052242697692333515),
])
def test_solve_rbar_starts_at_the_floor_bracket(q, target, rn, weights, level):
    # q near 1 and a level a hair above the minimum: from the finite atoms'
    # mean bracket alone Newton stops short of the last-bit root; the bracket
    # of the atoms at the minimum starts it close enough.
    rn, weights = np.array(rn), np.array(weights)
    rbar = solve_rbar(rn[None], DiscreteDistribution(weights), q, target)[0]
    assert rbar == pytest.approx(level, rel=1e-12)
    assert _spend(rn, weights, q, rbar) >= target > _spend(rn, weights, q,
                                                           np.nextafter(rbar, -np.inf))


def _hoelder_ratio(rho, gap, pi, p):
    """|E_rho gap| / (D(rho, pi) + 1)**(1/p); 0 when rho leaves pi's support."""
    return abs(rho @ gap) / power_divergence_plus_one(rho[None], pi, p)[0] ** (1.0 / p)


@st.composite
def _gap_problems(draw):
    """Per-atom gaps R - r_n of both signs with zeros, prior weights with zeros."""
    size = draw(st.integers(1, 12))
    # |gap| >= 1e-6 keeps gap**q clear of underflow.
    gap = np.array(draw(st.lists(st.sampled_from([0.0]) | st.floats(1e-6, 10.0)
                                 | st.floats(-10.0, -1e-6), min_size=size, max_size=size)))
    weights = np.array(draw(st.lists(st.sampled_from([0.0]) | st.floats(1e-3, 1.0),
                                     min_size=size, max_size=size)))
    weights[0] = max(weights[0], 1e-3)  # atom 0 keeps the support nonempty
    # q >= 1.015 keeps p <= 68, so D + 1 <= (min pi)**(1-p) <= (1e-3/12)**(-67) fits in a
    # double; below about q = 1.013 the D + 1 of a rho on the lightest atom overflows.
    q = draw(st.floats(1.015, 4.0))
    return gap, DiscreteDistribution(weights / weights.sum()), q, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(problem=_gap_problems())
def test_deviation_moments_decide_the_sup_over_every_rho(problem):
    gap, pi, q, seed = problem
    weights, p = pi.weights, q / (q - 1.0)
    upper_side, lower_side = (side[0] for side in deviation_moments(gap[None], pi, q))
    assert upper_side + lower_side == pytest.approx(weights @ np.abs(gap) ** q, rel=1e-12)
    sup = max(upper_side, lower_side) ** (1.0 / q)
    # Each side is attained at rho proportional to pi * gap_(+/-)**(q - 1).
    attained = [0.0]
    for side, moment in ((np.maximum(gap, 0.0), upper_side), (np.maximum(-gap, 0.0), lower_side)):
        rho = weights * side ** (q - 1.0)
        if rho.sum() > 0:
            ratio = _hoelder_ratio(rho / rho.sum(), gap, pi, p)
            assert ratio == pytest.approx(moment ** (1.0 / q), rel=1e-9)
            attained.append(ratio)
    assert max(attained) == pytest.approx(sup, rel=1e-9, abs=0.0)
    # No random rho on pi's support does better.
    rng = np.random.default_rng(seed)
    support = weights > 0
    rows = np.zeros((200, len(gap)))
    rows[:, support] = rng.dirichlet(np.ones(support.sum()), size=200)
    assert all(_hoelder_ratio(row, gap, pi, p) <= sup * (1.0 + 1e-9) for row in rows)
    # A rho with mass off pi's support has an infinite divergence, so ratio 0.
    if not support.all():
        off = rng.dirichlet(np.ones(len(gap)))
        assert _hoelder_ratio(off, gap, pi, p) == 0.0


def test_spend_function_monotone():
    rng = np.random.default_rng(9)
    pi = DiscreteDistribution(rng.dirichlet(np.ones(10)))
    rn = rng.uniform(0, 1, 10)
    grid = np.linspace(rn.min() + 1e-6, rn.min() + 3.0, 200)
    spends = [float(pi.weights @ np.maximum(u - rn, 0.0) ** 2.0) for u in grid]
    assert np.all(np.diff(spends) > 0)


def test_rho_hat_examples():
    pi = DiscreteDistribution.uniform(2)
    rn = np.array([0.0, 1.0])
    assert np.allclose(rho_hat(rn[None], pi, 2.0, 0.5)[0], [1.0, 0.0])
    rbar = 1.1123724356957945  # root of u^2 - u - 0.125
    weights = rho_hat(rn[None], pi, 2.0, rbar)[0]
    assert np.allclose(weights, [0.9082482904638630, 0.0917517095361370], atol=1e-12)
    constant = rho_hat(np.full((1, 5), 0.3), DiscreteDistribution.uniform(5), 2.0, 0.8)
    assert np.allclose(constant[0], 0.2)


def test_rho_hat_support_strictly_below_level():
    rng = np.random.default_rng(21)
    for _ in range(50):
        size = int(rng.integers(2, 30))
        pi = DiscreteDistribution(rng.dirichlet(np.ones(size)))
        rn = rng.uniform(0, 1, size)
        rbar = solve_rbar(rn[None], pi, 2.0, 10.0 ** rng.uniform(-5, -1) / 0.1)[0]
        rho = rho_hat(rn[None], pi, 2.0, rbar)[0]
        assert np.all(rn[rho > 0] < rbar)


def test_minimized_objective_identity_examples():
    pi = DiscreteDistribution.uniform(2)
    rn = np.array([0.0, 1.0])
    cfg = _cfg(p=2.0, delta=0.1, value=0.0125)
    rbar, rho, objective = minimized_objective_identity(rn, pi, cfg)
    assert rbar == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(rho, [1.0, 0.0])
    assert objective == pytest.approx(rbar, rel=1e-8)
    prior_objective = expectation(pi, rn[None])[0] + pac_margin(cfg, 1.0)
    assert prior_objective == pytest.approx(0.5 + math.sqrt(0.125), rel=1e-12)
    assert prior_objective >= objective
    # Constant risks: the optimizer is the prior itself.
    rn_const = np.full(2, 0.3)
    rbar_c, rho_c, objective_c = minimized_objective_identity(rn_const, pi, cfg)
    assert np.allclose(rho_c, pi.weights)
    assert objective_c == pytest.approx(0.3 + 0.125 ** 0.5, rel=1e-10)


def test_minimizer_beats_random_probes():
    rng = np.random.default_rng(17)
    for _ in range(20):
        size = int(rng.integers(2, 40))
        pi = DiscreteDistribution(rng.dirichlet(np.ones(size)))
        rn = rng.uniform(0, 1, size)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        cfg = _cfg(p=p, delta=0.2, value=10.0 ** rng.uniform(-4, -1),
                   q=p / (p - 1.0))
        rbar, rho, objective = minimized_objective_identity(rn, pi, cfg)
        assert objective == pytest.approx(rbar, rel=1e-8)
        probes = rng.dirichlet(np.ones(size), size=100)
        for row in probes:
            probe = DiscreteDistribution(row)
            probe_objective = expectation(probe, rn[None])[0] + pac_margin(
                cfg, power_divergence_plus_one(probe.weights[None], pi, p)[0])
            assert probe_objective >= objective - 1e-9


def test_scaling_equivariance():
    rng = np.random.default_rng(31)
    pi = DiscreteDistribution(rng.dirichlet(np.ones(12)))
    rn = rng.uniform(0, 1, 12)
    q, p = 2.0, 2.0
    budget = 0.01
    base_rbar = solve_rbar(rn[None], pi, q, budget)[0]
    base_weights = rho_hat(rn[None], pi, p, base_rbar)[0]
    for c in (0.1, 10.0):
        scaled_rbar = solve_rbar(c * rn[None], pi, q, budget * c**q)[0]
        assert scaled_rbar == pytest.approx(c * base_rbar, abs=1e-10 * max(1.0, c))
        scaled_weights = rho_hat(c * rn[None], pi, p, scaled_rbar)[0]
        assert np.max(np.abs(scaled_weights - base_weights)) <= 1e-10


def test_catoni_examples():
    pi = DiscreteDistribution.uniform(3)
    rn = np.array([[0.0, 0.1, 1.0]])
    assert np.allclose(catoni_pi_gamma(rn, pi, 0.2)[0], [0.5, 0.5, 0.0])
    assert np.allclose(catoni_pi_gamma(rn, pi, 0.0)[0], [1.0, 0.0, 0.0])
    assert np.allclose(catoni_pi_gamma(rn, pi, 1.5)[0], pi.weights)
    with pytest.raises(ValueError):
        catoni_pi_gamma(rn, pi, -0.1)


def test_optimal_gamma_examples():
    assert optimal_gamma(2.0, 2.0, 0.01) == pytest.approx(0.1, rel=1e-12)
    # d (1 - 1/p) = 1 with unit budget is a fixed point.
    assert optimal_gamma(2.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert optimal_gamma(1.0, 2.0, 0.04) == pytest.approx(0.02 ** (2.0 / 3.0), rel=1e-12)


def test_erm_index_examples():
    assert erm_index(np.array([[0.3, 0.1, 0.1]]))[0] == 1
    assert erm_index(np.array([[5.0]]))[0] == 0
    decreasing = np.linspace(1.0, 0.0, 13)
    assert erm_index(decreasing[None])[0] == 12
    with pytest.raises(ValueError):
        erm_index(np.empty((1, 0)))


def _brute_force_min_d(values, pi, grid, resolution=1e-4):
    values = np.asarray(values)
    floor = values.min()
    masses = np.array([pi.weights[values <= floor + g].sum() for g in grid])
    for d in np.arange(resolution, 70.0, resolution):
        if np.all(masses >= grid**d):
            return d
    return None


def test_verify_complexity_counting_oracle():
    pi = DiscreteDistribution.uniform(100)
    values = np.arange(100) / 100.0
    grid = np.arange(1, 10) / 10.0
    est = verify_complexity(values[None], pi, grid).row(0)
    assert est.satisfied
    brute = _brute_force_min_d(values, pi, grid)
    assert abs(est.d - brute) <= 2e-3
    assert 0.9 <= est.d <= 1.05
    # Certified: the invariant holds at the reported d on every grid point.
    floor = values.min()
    for g in grid:
        assert pi.weights[values <= floor + g].sum() >= g**est.d


def test_verify_complexity_degenerate_and_two_atom():
    flat = verify_complexity(np.zeros((1, 5)), DiscreteDistribution.uniform(5),
                             np.array([0.3])).row(0)
    assert flat.satisfied and flat.d == 64.0
    two = verify_complexity(np.array([[0.0, 1.0]]), DiscreteDistribution.uniform(2),
                            np.array([0.5])).row(0)
    assert two.satisfied
    assert two.d == pytest.approx(1.0, abs=2e-3)


def test_verify_complexity_unsatisfiable():
    pi = DiscreteDistribution(np.array([0.001, 0.999]))
    values = np.array([[0.0, 5.0]])
    # mass(0.9) = 0.001 < 0.9**64, so no exponent below the cap certifies.
    est = verify_complexity(values, pi, np.array([0.9])).row(0)
    assert not est.satisfied
    with pytest.raises(ValueError):
        verify_complexity(values, pi, np.array([]))
    with pytest.raises(ValueError):
        verify_complexity(values, pi, np.array([1.5]))


@st.composite
def _sublevel_problems(draw):
    """Rows of risks with ties at the minimum and +inf atoms, non-uniform weights
    with zeros, and either a gamma grid or one gamma per row."""
    rows, size = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    risks = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.0, 0.25, np.inf]) | st.floats(0.0, 2.0),
        min_size=rows * size, max_size=rows * size))).reshape(rows, size)
    weights = np.array(draw(st.lists(st.sampled_from([0.0]) | st.floats(1e-3, 1.0),
                                     min_size=size, max_size=size)))
    weights[draw(st.integers(0, size - 1))] = 1.0  # some atom is supported
    gamma = st.floats(1e-3, 0.999)
    if draw(st.booleans()):
        gammas = np.array(draw(st.lists(gamma, min_size=1, max_size=10)))
    else:
        gammas = np.array(draw(st.lists(gamma, min_size=rows, max_size=rows)))[:, None]
    return risks, DiscreteDistribution(weights / weights.sum()), gammas


@settings(max_examples=300, deadline=None)
@given(problem=_sublevel_problems())
def test_sublevel_masses_match_the_where_reference_bit_for_bit(problem):
    # Mask times weight is the weight or +0.0, so every sum keeps its bits.
    risks, pi, gammas = problem
    masses, full = _sublevel_masses(risks, pi, gammas)
    expected_masses, expected_full = sublevel_masses_where(risks, pi.weights, gammas)
    assert masses.tobytes() == expected_masses.tobytes()
    assert np.array_equal(full, expected_full)


def test_verify_complexity_holds_no_grid_wide_temporary():
    # Masses are summed one gamma at a time: the temporaries are (rows, K), not
    # (rows, G, K), so a 10-point grid on three 10**4-atom rows stays within two
    # (rows, K) float arrays.
    rows, size = 3, 10_000
    values = np.random.default_rng(11).uniform(0.0, 1.0, (rows, size))
    pi = DiscreteDistribution.uniform(size)
    grid = np.linspace(0.05, 0.8, 10)
    tracemalloc.start()
    try:
        estimate = verify_complexity(values, pi, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate.d.shape == (rows,)
    assert peak < 2 * rows * size * 8


def test_oracle_bound_examples():
    assert oracle_bound(0.2, 1e-4, 2.0, 2.0) == pytest.approx(0.4, rel=1e-12)
    assert oracle_bound(0.0, 1.0, 2.0, 2.0) == pytest.approx(2.0, rel=1e-12)
    # d -> 0 recovers the exponent 1/q.
    assert oracle_bound(0.1, 1e-3, 2.0, 1e-9) == pytest.approx(
        0.1 + 2.0 * (1e-3) ** 0.5, rel=1e-7)
    # The population level spends the budget 2**q * M / delta.
    assert oracle_bound(0.0, 2.0**2 * 0.1 / 0.1, 2.0, 2.0) == pytest.approx(
        2.0 * math.sqrt(2.0), rel=1e-12)
    assert oracle_bound(0.1, 2.0**2 * 1e-5 / 0.1, 2.0, 2.0) == pytest.approx(
        0.1 + 2.0 * math.sqrt(2.0) * 0.1, rel=1e-12)
    assert oracle_bound(0.3, 2.0**2 * 0.01 / 0.1, 2.0, 0.0) == pytest.approx(
        0.3 + 4.0 * math.sqrt(0.1), rel=1e-12)


def _certified_oracle_one(values, pi, grid, level, budget, q):
    """``certified_oracle`` of one row of values: its estimate and its oracle."""
    complexity, oracle = certified_oracle(values[None], pi, grid, level, budget, q)
    return complexity.row(0), float(oracle[0])


def test_certified_oracle_needs_the_proof_point_inside_the_interval():
    pi = DiscreteDistribution(np.array([0.5, 0.5]))
    values = np.array([0.0, 1.0])
    grid = np.array([0.1, 0.5])  # sublevel mass 1/2 at both points: d = 1
    for level, certified in ((0.2, True), (1.0, True), (0.1, False), (1.2, False)):
        complexity, oracle = _certified_oracle_one(values, pi, grid, level, 1e-2, 2.0)
        assert complexity.satisfied and complexity.d == pytest.approx(1.0)
        if certified:
            assert oracle == pytest.approx(2.0 * 1e-2 ** (1.0 / 3.0), rel=1e-12)
        else:
            assert math.isnan(oracle)
    # The grid is checked only at its points: here mass(0.3) = 0.3**8 sets
    # d = 8, but the proof point 0.45 lies between the points with mass
    # 0.3**8 < 0.45**8, and the interval-only rule would report 0.75 < 0.9.
    pi = DiscreteDistribution(np.array([0.3**8, 1.0 - 0.3**8]))
    values = np.array([0.0, 0.95])
    budget = 0.3**8 * 0.9**2
    level = solve_rbar(values[None], pi, 2.0, budget)[0]
    assert level == pytest.approx(0.9, rel=1e-12)
    complexity, oracle = _certified_oracle_one(values, pi, np.array([0.3, 0.96]), level, budget,
                                               2.0)
    assert complexity.satisfied and complexity.d == pytest.approx(8.0, abs=2e-3)
    assert math.isnan(oracle)
    assert oracle_bound(0.0, budget, 2.0, complexity.d) < level
    # An exponent that does not certify never yields an oracle.
    lopsided = DiscreteDistribution(np.array([0.001, 0.999]))
    complexity, oracle = _certified_oracle_one(values, lopsided, np.array([0.9]), 1.0, 1e-2, 2.0)
    assert not complexity.satisfied and math.isnan(oracle)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), p=st.sampled_from([1.5, 2.0, 3.0]))
def test_hoelder_core_inequality(seed, p):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 30))
    q = p / (p - 1.0)
    pi = DiscreteDistribution(rng.dirichlet(np.ones(size)))
    rho = DiscreteDistribution(rng.dirichlet(np.ones(size)))
    deltas = rng.uniform(0, 1, size)
    lhs = expectation(rho, deltas[None])[0]
    rhs = float(pi.weights @ deltas**q) ** (1.0 / q) * (
        power_divergence_plus_one(rho.weights[None], pi, p)[0]) ** (1.0 / p)
    assert rhs - lhs >= -1e-12
