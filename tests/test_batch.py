"""Each row of a batched call against the one-dataset references in ``oracles``.

Coverage draws and certifies its replications in blocks of rows; these
properties pin every row of a block to a lone ``generate`` of its seed sequence
``[seed, 0, index]`` and to the per-dataset routines the blocks replaced.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hostile_pac.aggregation import (BoundConfig, ComplexityEstimate, SolverError,
                                     deviation_moments, erm_index, evaluate_bound, solve_rbar,
                                     verify_complexity)
from hostile_pac.datagen import (AR1, BoundedClassification, GaussianNoise, IidLinearRegression,
                                 IsotropicGaussianX, StudentTNoise, _seed_sequences, generate)
from hostile_pac.moments import MomentBound
from hostile_pac.param_space import AtomSet, DiscreteDistribution, expectation
from hostile_pac.risk import Dataset, SquaredLoss, ZeroOneLoss, empirical_risks
from oracles import empirical_risks_one, solve_rbar_one, verify_complexity_one

_X_LAWS = (IsotropicGaussianX(1.3),)
_NOISES = (GaussianNoise(0.5), StudentTNoise(dof=5.0, scale=0.7))
_SPECS = {
    **{f"iid-{type(x).__name__}-{type(e).__name__}": IidLinearRegression((0.5, -0.3, 2.0), x, e)
       for x in _X_LAWS for e in _NOISES},
    "ar1-gaussian": AR1(a=-0.7, noise=GaussianNoise(0.8)),
    "ar1-student-t": AR1(a=0.95, noise=StudentTNoise(dof=7.0, scale=0.5)),  # burn-in
    **{f"classification-{type(x).__name__}": BoundedClassification((1.0, -0.5), x, 0.1)
       for x in _X_LAWS},
}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# A coverage-sized block: 40 rows of K = 100 risks on a uniform prior. A row
# sum that depends on the row's place in the block (a BLAS matrix-vector
# product, or a sum over a width set by the other rows) moves some of its
# entries by an ulp against the same row alone.
_SEEDED_RISKS = np.random.default_rng(2016).uniform(0.0, 2.0, (40, 100))
_UNIFORM_100 = DiscreteDistribution.uniform(100)


# Index lists in any order, and ranges, anywhere in [0, 2**32).
_INDICES = (st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5, unique=True)
            | st.builds(lambda start, rows: range(start, start + rows),
                        st.integers(0, 2**32 - 5), st.integers(1, 5)))


@pytest.mark.parametrize("spec", _SPECS.values(), ids=_SPECS.keys())
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**130 - 1), n=st.integers(2, 40), indices=_INDICES)
@example(seed=0, n=2, indices=[0])
@example(seed=1, n=7, indices=[9, 2, 400])
@example(seed=2**64 + 7, n=3, indices=range(2**32 - 3, 2**32))
def test_stacked_rows_match_one_generate(spec, seed, n, indices):
    block = generate(spec, n, seed, indices)
    assert block.x.shape == (len(indices), n, spec.dim) and block.y.shape == (len(indices), n)
    assert len(block) == n and block.dim == spec.dim
    for row, index in enumerate(indices):
        one = generate(spec, n, np.random.SeedSequence([seed, 0, index]))
        assert one.x.shape == (n, spec.dim) and one.y.shape == (n,)
        assert _same_bits(block.x[row], one.x) and _same_bits(block.y[row], one.y)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**130 - 1), rows=st.integers(1, 300), data=st.data())
@example(seed=0, rows=1, data=None)
@example(seed=2**64 + 7, rows=3, data=None)  # five entropy words: numpy's extra-entropy mixing
@example(seed=2**130 - 1, rows=2, data=None)  # seven
def test_block_seeds_are_those_of_numpy(seed, rows, data):
    start = data.draw(st.integers(0, 2**32 - rows)) if data else 2**32 - rows
    block = _seed_sequences(seed, range(start, start + rows))
    assert len(block) == rows
    for index, got in enumerate(block, start):
        expected = np.random.SeedSequence([seed, 0, index])
        words, numpy_words = got.generate_state(4, np.uint64), expected.generate_state(4, np.uint64)
        assert words.dtype == numpy_words.dtype and np.array_equal(words, numpy_words)
        ours, numpys = np.random.default_rng(got), np.random.default_rng(expected)
        assert ours.standard_normal() == numpys.standard_normal()
        assert ours.standard_t(5.0) == numpys.standard_t(5.0)
        assert ours.random() == numpys.random()


def test_a_block_seed_gives_only_the_words_pcg64_asks_for():
    seed = _seed_sequences(7, range(3, 5))[1]
    expected = np.random.SeedSequence([7, 0, 4]).generate_state(4, np.uint64)
    for args in ((8,), (3,), (5, np.uint64), (4,), (4, np.uint32)):
        with pytest.raises(ValueError, match="generate_state"):
            seed.generate_state(*args)
    # Each call returns a new array: writing into one leaves the next unchanged.
    first = seed.generate_state(4, np.uint64)
    first += 1
    second = seed.generate_state(4, np.uint64)
    assert second.dtype == np.uint64 and np.array_equal(second, expected)


def test_seed_forms_of_generate():
    spec = _SPECS["ar1-student-t"]
    # An int, a SeedSequence and a list of ints each give one dataset; the
    # list is one entropy seed, as numpy reads it.
    for seed in (5, np.random.SeedSequence(5), [5, 6]):
        data = generate(spec, 10, seed)
        assert data.x.shape == (10, 2) and data.y.shape == (10,)
    listed, entropy = generate(spec, 10, [5, 6]), generate(spec, 10, np.random.SeedSequence([5, 6]))
    assert _same_bits(listed.x, entropy.x) and _same_bits(listed.y, entropy.y)
    with pytest.raises(ValueError, match="AR"):
        generate(spec, 1, 5, [0])


@pytest.mark.parametrize("seed, indices", [
    (0, [2**32]), (0, [-1]), (0, [3, 2**32 + 3]), (0, range(2**32 - 1, 2**32 + 1)),
    (0, [2**64]), (0, []), (0, range(0)), (-1, [0]),
])
def test_stacked_draw_takes_only_indices_below_2_32(seed, indices):
    # A dataset index is one 32-bit word of its seed sequence; the run seed is nonnegative.
    with pytest.raises(ValueError, match=re.escape("[0, 2**32)")):
        generate(_SPECS["ar1-gaussian"], 3, seed, indices)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5), n=st.integers(1, 12),
       k=st.integers(1, 4), num_atoms=st.integers(1, 8), duplicate=st.booleans(),
       offset=st.booleans())
def test_empirical_risk_rows_match_one_dataset(seed, rows, n, k, num_atoms, duplicate, offset):
    # n < k, duplicated columns and a 1e6 offset, in every row of the block.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n, k))
    if duplicate:
        x[:, :, -1] = x[:, :, 0]
    shift = 1e6 if offset else 0.0
    x += shift
    y = rng.standard_normal((rows, n)) + shift
    stacked, datasets = Dataset(x=x, y=y), [Dataset(x=xi, y=yi) for xi, yi in zip(x, y)]
    atoms = AtomSet(rng.standard_normal((num_atoms, k)))
    block = empirical_risks(stacked, atoms, SquaredLoss())
    assert block.shape == (rows, num_atoms) and np.all(block >= 0)
    coords = np.abs(atoms.coords)
    for data, row in zip(datasets, block):
        reference = empirical_risks_one(data, atoms, SquaredLoss())
        # Both anchors round at the size of the terms of y - <theta, x>.
        scale = np.mean((np.abs(data.y)[:, None] + np.abs(data.x) @ coords.T) ** 2, axis=0)
        assert np.all(np.abs(row - reference) <= 1e-12 * scale)
        # The minimizer is the same wherever that precision resolves it.
        lowest = np.sort(reference)[:2]
        if lowest.size == 1 or lowest[1] - lowest[0] > 2e-12 * scale.max():
            assert erm_index(row[None])[0] == erm_index(reference[None])[0]
    for loss in (ZeroOneLoss(), ZeroOneLoss(0.3)):
        table_rows = empirical_risks(stacked, atoms, loss)
        assert table_rows.shape == (rows, num_atoms)
        assert all(np.array_equal(row, empirical_risks_one(data, atoms, loss))
                   for data, row in zip(datasets, table_rows))


@st.composite
def _risk_blocks(draw):
    """Rows of risks with ties and +inf atoms on one prior with zero weights.

    A row with a large offset and a tiny budget puts its level a hair above
    its lowest risks, where only the last-bit acceptance and walk reach it.
    """
    size = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 6))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 1e-300]) | st.floats(1e-3, 1.0),
                                     min_size=size, max_size=size)))
    weights[0] = max(weights[0], 1e-3)  # atom 0 keeps the support nonempty and finite
    block = np.empty((rows, size))
    for i in range(rows):
        risks = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0),
                                       min_size=size, max_size=size)))
        infinite = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        infinite[0] = False
        risks[infinite] = np.inf
        block[i] = risks + draw(st.sampled_from([0.0, 0.0, 1000.0, 8817.0]))
    budget = draw(st.sampled_from([2.5e-8, 5.3e-10]) | st.floats(1e-3, 10.0))
    return block, DiscreteDistribution(weights / weights.sum()), budget


@settings(max_examples=200, deadline=None)
@given(problem=_risk_blocks(), q=st.floats(1.01, 40.0))
@example(problem=(_SEEDED_RISKS, _UNIFORM_100, 0.05), q=2.0)
# Newton's rounded first step stops 28 doubles below the last-bit root, and
# its next step points up; that step reaches the root.
@example(problem=(np.array([[0.5, 0, 0.5625, 0.015625, 0, 1, 0, 0, 0.5]]),
                  DiscreteDistribution(np.array([2, 2e-300, 2, 2, 0, 1, 0, 0, 2]) / 9), 2.5e-8),
         q=1.125)
def test_level_rows_match_one_dataset(problem, q):
    block, pi, budget = problem
    references = []
    for row in block:
        try:
            references.append(solve_rbar_one(row, pi, q, budget))
        except SolverError:
            references.append(None)
    if None in references:
        with pytest.raises(SolverError):
            solve_rbar(block, pi, q, budget)
        return
    levels = solve_rbar(block, pi, q, budget)
    assert levels.shape == (len(block),)
    np.testing.assert_allclose(levels, references, rtol=1e-12, atol=0)
    # A row's level is the same double in any block.
    assert _same_bits(levels, np.concatenate([solve_rbar(row[None], pi, q, budget)
                                              for row in block]))


@st.composite
def _value_blocks(draw):
    """Rows of values with ties on one prior with zero weights, and a gamma grid."""
    size = draw(st.integers(1, 20))
    rows = draw(st.integers(1, 6))
    weights = np.array(draw(st.lists(st.sampled_from([0.0]) | st.floats(1e-3, 1.0),
                                     min_size=size, max_size=size)))
    weights[0] = max(weights[0], 1e-3)
    block = np.array([draw(st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0])
                                    | st.floats(0.0, 2.0), min_size=size, max_size=size))
                      for _ in range(rows)])
    grid = draw(st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=10))
    return block, DiscreteDistribution(weights / weights.sum()), np.array(grid)


@settings(max_examples=200, deadline=None)
@given(problem=_value_blocks())
@example(problem=(_SEEDED_RISKS, _UNIFORM_100, np.array([0.1, 0.5])))
def test_complexity_rows_match_one_dataset(problem):
    block, pi, grid = problem
    estimate = verify_complexity(block, pi, grid)
    assert estimate.d.shape == estimate.satisfied.shape == (len(block),)
    for i, row in enumerate(block):
        reference = verify_complexity_one(row, pi, grid)
        assert estimate.row(i) == reference
        assert verify_complexity(row[None], pi, grid).row(0) == reference
    assert erm_index(block).tolist() == [erm_index(row[None])[0] for row in block]
    # The weighted row sums of the chain give a row the same bits in any block.
    assert _same_bits(expectation(pi, block),
                      np.concatenate([expectation(pi, row[None]) for row in block]))
    gap = block - 1.0
    assert _same_bits(np.array(deviation_moments(gap, pi, 2.5)),
                      np.hstack([deviation_moments(row[None], pi, 2.5) for row in gap]))
    rho = pi.weights * (1.0 + block)
    rho /= rho.sum(axis=1, keepdims=True)
    cfg = BoundConfig(p=2.0, delta=0.1, moment=MomentBound(0.01, 2.0))
    report = evaluate_bound(rho, pi, block, cfg)
    for i, row in enumerate(block):
        assert report.row(i) == evaluate_bound(rho[i:i + 1], pi, row[None], cfg).row(0)


@pytest.mark.parametrize("weights", [
    # The hypothesis example: its supported atoms sum to 1.0 in either order.
    [0.000535, 0, 0, 0.414, 0, 0.535, 0.0502, 0],
    # Nearby weights whose supported atoms sum to 0.9999999999999998, which a
    # float test mass >= 1.0 reads as a binding grid point with d = 0.001.
    [0.000537, 0, 0, 0.41692, 0, 0.535994, 0.049959, 0],
])
def test_full_sublevel_is_decided_by_its_atoms(weights):
    weights = np.array(weights)
    pi = DiscreteDistribution(weights / weights.sum())
    values, grid = np.array([0.0] * 7 + [0.05]), np.array([0.03125])
    # Every supported atom lies at 0, inside the sublevel: it is full.
    expected = ComplexityEstimate(64.0, True)
    assert verify_complexity(values[None], pi, grid).row(0) == expected
    assert verify_complexity_one(values, pi, grid) == expected


@pytest.mark.parametrize("gamma, weights, d", [
    (0.5, [0.4938004307226862, 0.5061995692773138], 1.019),
    (0.7, [0.6932911990343137, 0.3067088009656863], 1.0279999999999998),
    (0.9, [0.7948669287023055, 0.20513307129769454], 2.1799999999999997),
])
def test_rounded_threshold_that_misses_by_an_ulp_takes_one_step(gamma, weights, d):
    pi = DiscreteDistribution(np.array(weights))
    values, grid = np.array([0.0, 1.0]), np.array([gamma])
    # The sublevel at gamma holds atom 0 alone; its rounded threshold fails by an ulp.
    rounded = 1e-3 * math.ceil(math.log(weights[0]) / math.log(gamma) / 1e-3)
    assert weights[0] < gamma ** rounded and rounded + 1e-3 == d
    expected = ComplexityEstimate(d, True)
    assert verify_complexity(values[None], pi, grid).row(0) == expected
    assert verify_complexity(np.stack([values, values]), pi, grid).row(1) == expected
    assert verify_complexity_one(values, pi, grid) == expected
