"""The chain's K-wide fast paths against the general path, and against writes.

A prior of full support is read in place, a block of finite risks takes its
mass and mean without masks, and a power of 1 is skipped. Each of these must
give the bits of the general path in ``oracles``, and no routine may write
into the arrays it is given, now that some of them are read without a copy.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hostile_pac.aggregation import (BoundConfig, SolverError, _sublevel_masses, catoni_pi_gamma,
                                     certified_oracle, deviation_moments, evaluate_bound, rho_hat,
                                     solve_rbar, verify_complexity)
from hostile_pac.divergence import power_divergence_plus_one
from hostile_pac.moments import MomentBound
from hostile_pac.param_space import DiscreteDistribution, expectation
from oracles import (deviation_moments_general, power_divergence_plus_one_general,
                     rho_hat_general, solve_rbar_general, sublevel_masses_general)

_EXPONENTS = st.sampled_from([2.0]) | st.floats(1.05, 8.0)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _blocks(draw):
    """Rows of finite risks with ties on a prior of full support or with zero
    weights, and a budget; drawn from a seeded generator, so K reaches 300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, size = draw(st.integers(1, 5)), draw(st.integers(1, 300))
    risks = rng.uniform(0.0, 2.0, (rows, size))
    ties = rng.random((rows, size)) < draw(st.sampled_from([0.0, 0.2, 0.9]))
    risks[ties] = rng.choice([0.0, 0.1, 0.5, 1.0], size=ties.sum())
    weights = rng.uniform(1e-3, 1.0, size)
    if draw(st.booleans()):  # zero weights, some atom kept
        weights[rng.random(size) < 0.5] = 0.0
        weights[rng.integers(size)] = 1.0
    pi = DiscreteDistribution(weights / weights.sum())
    return risks, pi, draw(st.floats(1e-3, 10.0))


def _solve_both(risks, pi, q, budget):
    """The fast and the general level of each row, or None for both when the
    general path raises (then the fast one must raise too)."""
    try:
        expected = solve_rbar_general(risks, pi, q, budget)
    except SolverError:
        with pytest.raises(SolverError):
            solve_rbar(risks, pi, q, budget)
        return None, None
    return solve_rbar(risks, pi, q, budget), expected


@settings(max_examples=150, deadline=None)
@given(problem=_blocks(), q=_EXPONENTS, p=_EXPONENTS)
@example(problem=(np.array([[0.5, 0.5, 1.0]]), DiscreteDistribution.uniform(3), 0.1),
         q=2.0, p=2.0)
@example(problem=(np.array([[0.5, 0.0, 1.0]]), DiscreteDistribution(np.array([0.5, 0.0, 0.5])),
                  0.1), q=3.0, p=1.5)
def test_fast_paths_match_the_general_path_bit_for_bit(problem, q, p):
    risks, pi, budget = problem
    levels, expected = _solve_both(risks, pi, q, budget)
    if levels is None:
        return
    assert _same_bits(levels, expected)
    rho = rho_hat(risks, pi, p, levels)
    assert _same_bits(rho, rho_hat_general(risks, pi, p, levels))
    # rho_hat's own weights, and a uniform rho with mass where pi has none.
    for weights in (rho, np.full(risks.shape, 1.0 / risks.shape[1])):
        assert _same_bits(power_divergence_plus_one(weights, pi, p),
                          power_divergence_plus_one_general(weights, pi.weights, p))
    gap = risks[::-1] - risks.mean()
    assert _same_bits(deviation_moments(gap, pi, q),
                      deviation_moments_general(gap, pi.weights, q))
    grid = np.linspace(0.05, 0.9, 7)
    expected_masses = sublevel_masses_general(risks, pi.weights, grid)
    masses, full = _sublevel_masses(risks, pi, grid)
    assert _same_bits(masses, expected_masses[0]) and np.array_equal(full, expected_masses[1])


@settings(max_examples=100, deadline=None)
@given(problem=_blocks(), q=_EXPONENTS, at=st.integers(0, 299))
def test_a_finite_row_keeps_its_bits_beside_an_infinite_one(problem, q, at):
    # A block holding +inf takes the masked mass and mean; its finite rows
    # must read as they do alone, on the unmasked path.
    risks, pi, budget = problem
    infinite = risks[:1].copy()
    infinite[0, at % risks.shape[1]] = np.inf
    if not np.isfinite(infinite[0, pi.support]).any():
        return  # all prior mass on the infinite atom: a ValueError, not a level
    alone, expected = _solve_both(risks, pi, q, budget)
    if alone is None:
        return
    assert _same_bits(alone, expected)
    beside, expected_beside = _solve_both(np.vstack([risks, infinite]), pi, q, budget)
    if beside is not None:
        assert _same_bits(beside[:-1], alone)
        assert _same_bits(beside, expected_beside)


def _read_only(array) -> np.ndarray:
    array = np.array(array, dtype=float)
    array.setflags(write=False)
    return array


@pytest.mark.parametrize("weights", [[0.25, 0.25, 0.125, 0.125, 0.25],
                                     [0.25, 0.0, 0.25, 0.5, 0.0]],
                         ids=["full-support", "zero-weights"])
def test_chain_routines_write_into_no_input(weights):
    # Every input is read-only, so any write into one raises.
    pi = DiscreteDistribution(np.array(weights))
    rn = _read_only([[0.1, 0.3, 0.2, 0.6, 0.9], [0.4, 0.4, 0.05, 0.7, 0.2]])
    cfg = BoundConfig(p=2.0, delta=0.1, moment=MomentBound(0.001, 2.0))
    grid = _read_only(np.linspace(0.05, 0.9, 10))
    for q in (2.0, 3.0):
        level = _read_only(solve_rbar(rn, pi, q, cfg.budget))
        for p in (2.0, 1.5):
            rho = _read_only(rho_hat(rn, pi, p, level))
            power_divergence_plus_one(rho, pi, p)
        deviation_moments(rn, pi, q)
    evaluate_bound(rho, pi, rn, cfg)
    verify_complexity(rn, pi, grid)
    # A level 0.6 above each row's minimum puts the proof point at gamma = 0.3,
    # inside the grid: the proof point's sublevel masses run too.
    proof_level = _read_only(rn.min(axis=1) + 0.6)
    complexity, oracle = certified_oracle(rn, pi, grid, proof_level, cfg.budget, 2.0)
    assert complexity.satisfied.all() and np.isfinite(oracle).all()
    catoni_pi_gamma(rn, pi, 0.2)
    expectation(pi, rn)
