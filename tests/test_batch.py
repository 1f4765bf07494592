"""Each row of a batched call against the one-dataset references in ``oracles``.

Coverage certifies its replications in blocks of rows; these properties pin
every row of a block to the per-dataset routines the blocks replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hostile_pac.aggregation import SolverError, erm_index, solve_rbar, verify_complexity
from hostile_pac.param_space import AtomSet, DiscreteDistribution
from hostile_pac.risk import Dataset, SquaredLoss, ZeroOneLoss, empirical_risks
from oracles import empirical_risks_one, solve_rbar_one, verify_complexity_one


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
    datasets = [Dataset(x=xi, y=yi) for xi, yi in zip(x, y)]
    atoms = AtomSet(rng.standard_normal((num_atoms, k)))
    block = empirical_risks(datasets, atoms, SquaredLoss())
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
            assert erm_index(row) == erm_index(reference)
    for loss in (ZeroOneLoss(), ZeroOneLoss(0.3)):
        table_rows = empirical_risks(datasets, atoms, loss)
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
    assert [solve_rbar(row, pi, q, budget) for row in block] == pytest.approx(
        references, rel=1e-12, abs=0)


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
def test_complexity_rows_match_one_dataset(problem):
    block, pi, grid = problem
    estimate = verify_complexity(block, pi, grid)
    assert estimate.d.shape == estimate.satisfied.shape == (len(block),)
    for i, row in enumerate(block):
        reference = verify_complexity_one(row, pi, grid)
        assert estimate.row(i) == reference
        assert verify_complexity(row, pi, grid) == reference
    assert erm_index(block).tolist() == [erm_index(row) for row in block]
