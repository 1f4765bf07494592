import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hostile_pac.datagen import (AR1, GaussianNoise, IidLinearRegression,
                                 IsotropicGaussianX, StudentTNoise, generate,
                                 true_risk_closed_form)
from hostile_pac.param_space import AtomSet
from hostile_pac.risk import (AbsoluteLoss, Dataset, LossTable, SquaredLoss, ZeroOneLoss,
                              compute_loss_table, empirical_risk, empirical_risks)


def test_loss_table_hand_examples():
    perfect = Dataset(x=np.array([[1.0]]), y=np.array([2.0]))
    atoms = AtomSet(np.array([[2.0]]))
    assert compute_loss_table(perfect, atoms, SquaredLoss()).losses[0, 0] == 0.0

    data = Dataset(x=np.array([[1.0, 1.0]]), y=np.array([0.0]))
    atoms2 = AtomSet(np.array([[1.0, 2.0]]))
    assert compute_loss_table(data, atoms2, SquaredLoss()).losses[0, 0] == pytest.approx(9.0)
    assert compute_loss_table(data, atoms2, AbsoluteLoss()).losses[0, 0] == pytest.approx(3.0)


def test_loss_table_zero_one_values():
    rng = np.random.default_rng(0)
    data = Dataset(x=rng.standard_normal((50, 2)),
                   y=np.sign(rng.standard_normal(50)) + 0.0)
    atoms = AtomSet(rng.standard_normal((7, 2)))
    table = compute_loss_table(data, atoms, ZeroOneLoss())
    assert set(np.unique(table.losses)) <= {0.0, 1.0}


def test_loss_table_dimension_mismatch():
    data = Dataset(x=np.array([[1.0, 2.0]]), y=np.array([0.0]))
    with pytest.raises(ValueError):
        compute_loss_table(data, AtomSet(np.array([[1.0]])), SquaredLoss())
    with pytest.raises(ValueError):
        empirical_risks(data, AtomSet(np.array([[1.0]])), SquaredLoss())


@pytest.mark.parametrize("bad, message", [
    (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"), (-1e-300, "nonnegative"),
])
def test_loss_table_rejects_bad_entries(bad, message):
    losses = np.ones((3, 4))
    losses[1, 2] = bad
    with pytest.raises(ValueError, match=message):
        LossTable(losses)


@pytest.mark.parametrize("loss", [SquaredLoss(), AbsoluteLoss(), ZeroOneLoss()])
def test_loss_table_keeps_one_table_alive(loss):
    n = num_atoms = 2000
    rng = np.random.default_rng(4)
    data = Dataset(x=rng.standard_normal((n, 2)), y=rng.standard_normal(n))
    atoms = AtomSet(rng.standard_normal((num_atoms, 2)))
    tracemalloc.start()
    try:
        table = compute_loss_table(data, atoms, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.losses.shape == (n, num_atoms)
    assert peak < 1.5 * n * num_atoms * 8


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=30),
    k=st.integers(min_value=1, max_value=5),
    num_atoms=st.integers(min_value=1, max_value=8),
    duplicate=st.booleans(),
    offset=st.booleans(),
    exact=st.booleans(),
)
def test_squared_closed_form_matches_table(seed, n, k, num_atoms, duplicate, offset, exact):
    # n < k, duplicated columns, an atom that fits y exactly and a 1e6 offset.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    if duplicate:
        x[:, -1] = x[:, 0]
    shift = 1e6 if offset else 0.0
    x += shift
    coords = rng.standard_normal((num_atoms, k))
    y = x @ coords[0] if exact else rng.standard_normal(n) + shift
    data, atoms = Dataset(x=x, y=y), AtomSet(coords)
    closed = empirical_risks(data, atoms, SquaredLoss())
    table = empirical_risk(compute_loss_table(data, atoms, SquaredLoss()))
    assert np.all(closed >= 0)
    # Both routes round at the size of the terms of y - <theta, x>.
    scale = np.mean((np.abs(y)[:, None] + np.abs(x) @ np.abs(coords).T) ** 2, axis=0)
    assert np.all(np.abs(closed - table) <= 1e-12 * scale)
    if not (offset or exact):
        np.testing.assert_allclose(closed, table, rtol=1e-10, atol=0)


def test_empirical_risks_other_losses_average_the_table():
    rng = np.random.default_rng(6)
    data = Dataset(x=rng.standard_normal((20, 2)), y=rng.standard_normal(20))
    atoms = AtomSet(rng.standard_normal((5, 2)))
    for loss in (AbsoluteLoss(), ZeroOneLoss(0.3)):
        table = compute_loss_table(data, atoms, loss)
        assert np.array_equal(empirical_risks(data, atoms, loss), empirical_risk(table))


def test_empirical_risks_must_be_finite():
    huge = Dataset(x=np.array([[1e200]]), y=np.array([0.0]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        empirical_risks(huge, AtomSet(np.array([[1e200]])), SquaredLoss())


def test_empirical_risk_examples():
    table = compute_loss_table(
        Dataset(x=np.ones((3, 1)), y=np.array([1.0, 0.0, -1.0])),
        AtomSet(np.array([[1.0]])), SquaredLoss())
    # Column of losses (0, 1, 4) -> mean 5/3; direct column check:
    assert np.allclose(table.losses.ravel(), [0.0, 1.0, 4.0])
    assert empirical_risk(table)[0] == pytest.approx(5.0 / 3.0)
    # Closed form: theta0 = mean(y) = 0, e0 . e0 = 2, R = sqrt(3), so (2 + 3 * 1**2) / 3.
    closed = empirical_risks(Dataset(x=np.ones((3, 1)), y=np.array([1.0, 0.0, -1.0])),
                             AtomSet(np.array([[1.0]])), SquaredLoss())
    assert closed[0] == pytest.approx(5.0 / 3.0, rel=1e-14)

    single = compute_loss_table(Dataset(x=np.array([[1.0]]), y=np.array([2.0])),
                                AtomSet(np.array([[1.0], [0.0]])), SquaredLoss())
    assert np.allclose(empirical_risk(single), single.losses[0])


def test_empirical_risk_within_column_range():
    rng = np.random.default_rng(5)
    data = Dataset(x=rng.standard_normal((40, 2)), y=rng.standard_normal(40))
    atoms = AtomSet(rng.standard_normal((9, 2)))
    table = compute_loss_table(data, atoms, AbsoluteLoss())
    risks = empirical_risk(table)
    assert np.all(risks >= table.losses.min(axis=0) - 1e-15)
    assert np.all(risks <= table.losses.max(axis=0) + 1e-15)


def test_true_risk_at_truth_is_noise_variance():
    spec = IidLinearRegression(theta_star=(0.7, -0.2), x_law=IsotropicGaussianX(1.0),
                               noise=GaussianNoise(variance=0.4))
    atoms = AtomSet(np.array([[0.7, -0.2]]))
    assert true_risk_closed_form(spec, atoms, SquaredLoss())[0] == pytest.approx(0.4)


def test_true_risk_quadratic_expansion():
    spec = IidLinearRegression(theta_star=(0.5, 0.5), x_law=IsotropicGaussianX(1.0),
                               noise=GaussianNoise(variance=0.25))
    shifted = AtomSet(np.array([[1.5, 0.5]]))  # theta_star + e1
    assert true_risk_closed_form(spec, shifted, SquaredLoss())[0] == pytest.approx(1.25)


def test_true_risk_ar1_best_predictor():
    spec = AR1(a=0.5, noise=GaussianNoise(variance=1.0))
    atoms = AtomSet(np.array([[0.0, 0.5]]))
    assert true_risk_closed_form(spec, atoms, SquaredLoss())[0] == pytest.approx(1.0)


def test_replicated_empirical_risk_converges_to_true_risk():
    spec = IidLinearRegression(theta_star=(0.3, -0.4), x_law=IsotropicGaussianX(1.0),
                               noise=StudentTNoise(dof=5.0, scale=0.5))
    atoms = AtomSet(np.array([[0.3, -0.4], [0.0, 0.0], [1.0, 1.0]]))
    target = true_risk_closed_form(spec, atoms, SquaredLoss())
    reps, n = 200, 500
    samples = np.empty((reps, len(atoms)))
    for i in range(reps):
        data = generate(spec, n, seed=2_000 + i)
        samples[i] = empirical_risk(compute_loss_table(data, atoms, SquaredLoss()))
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean - target) <= 5 * se)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(x=np.array([[np.inf]]), y=np.array([0.0]))
    with pytest.raises(ValueError):
        Dataset(x=np.ones((2, 1)), y=np.ones(3))
    with pytest.raises(ValueError):
        Dataset(x=np.empty((0, 1)), y=np.empty(0))
