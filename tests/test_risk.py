import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hostile_pac.datagen import (AR1, GaussianNoise, IidLinearRegression,
                                 IsotropicGaussianX, StudentTNoise, generate,
                                 true_risk_closed_form)
from hostile_pac import risk
from hostile_pac.param_space import AtomSet
from hostile_pac.risk import (Dataset, SquaredLoss, ZeroOneLoss, compute_loss_table,
                              empirical_risk, empirical_risks)
from oracles import squared_risks_broadcast, squared_risks_one_qr

CHUNK = 32  # datasets per QR call at coverage_iid's n = 200, k = 2


def test_loss_table_hand_examples():
    perfect = Dataset(x=np.array([[1.0]]), y=np.array([2.0]))
    atoms = AtomSet(np.array([[2.0]]))
    assert compute_loss_table(perfect, atoms, SquaredLoss())[0, 0] == 0.0

    data = Dataset(x=np.array([[1.0, 1.0]]), y=np.array([0.0]))
    atoms2 = AtomSet(np.array([[1.0, 2.0]]))
    assert compute_loss_table(data, atoms2, SquaredLoss())[0, 0] == pytest.approx(9.0)
    # The score 3 >= 0 predicts +1 against the label sign(0) = +1; threshold 4 predicts -1.
    assert compute_loss_table(data, atoms2, ZeroOneLoss())[0, 0] == 0.0
    assert compute_loss_table(data, atoms2, ZeroOneLoss(4.0))[0, 0] == 1.0


def test_loss_table_zero_one_values():
    rng = np.random.default_rng(0)
    data = Dataset(x=rng.standard_normal((50, 2)),
                   y=np.sign(rng.standard_normal(50)) + 0.0)
    atoms = AtomSet(rng.standard_normal((7, 2)))
    table = compute_loss_table(data, atoms, ZeroOneLoss())
    assert set(np.unique(table)) <= {0.0, 1.0}


def test_loss_table_dimension_mismatch():
    data = Dataset(x=np.array([[1.0, 2.0]]), y=np.array([0.0]))
    with pytest.raises(ValueError):
        compute_loss_table(data, AtomSet(np.array([[1.0]])), SquaredLoss())
    with pytest.raises(ValueError):
        empirical_risks(Dataset(x=data.x[None], y=data.y[None]), AtomSet(np.array([[1.0]])),
                        SquaredLoss())


_HUGE = IidLinearRegression(theta_star=(1e200, 0.0), x_law=IsotropicGaussianX(1.0),
                            noise=GaussianNoise(variance=1.0))


@pytest.mark.parametrize("data, coords", [
    # y is about 1e200, so the zero atom's squared residual overflows to inf.
    pytest.param(generate(_HUGE, 5, seed=0), np.zeros((3, 2)), id="inf-finite"),
    # The prediction 1e200**2 - 1e200**2 is inf - inf = nan, which the max propagates.
    pytest.param(Dataset(x=np.array([[1e200, 1e200]]), y=np.array([0.0])),
                 np.array([[1e200, -1e200]]), id="nan-finite"),
])
def test_loss_table_rejects_bad_entries(data, coords):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
        compute_loss_table(data, AtomSet(coords), SquaredLoss())


@pytest.mark.parametrize("loss", [SquaredLoss(), ZeroOneLoss(), ZeroOneLoss(0.3)])
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
    assert table.shape == (n, num_atoms)
    assert peak < 1.5 * n * num_atoms * 8
    if isinstance(loss, ZeroOneLoss):
        assert table.nbytes == n * num_atoms


def test_zero_one_table_is_boolean():
    rng = np.random.default_rng(7)
    data = Dataset(x=rng.standard_normal((3, 40, 2)), y=rng.standard_normal((3, 40)))
    atoms = AtomSet(rng.standard_normal((9, 2)))
    for part in (data, Dataset(x=data.x[0], y=data.y[0])):
        table = compute_loss_table(part, atoms, ZeroOneLoss(0.2))
        assert table.dtype == bool and table.nbytes == part.y.size * len(atoms)
    assert compute_loss_table(data, atoms, SquaredLoss()).dtype == np.float64


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=300),
    k=st.integers(min_value=1, max_value=4),
    num_atoms=st.integers(min_value=1, max_value=12),
    threshold=st.floats(min_value=-3.0, max_value=3.0),
)
def test_boolean_table_means_keep_the_float_bits(seed, n, k, num_atoms, threshold):
    rng = np.random.default_rng(seed)
    data = Dataset(x=rng.standard_normal((n, k)), y=rng.standard_normal(n))
    table = compute_loss_table(data, AtomSet(rng.standard_normal((num_atoms, k))),
                               ZeroOneLoss(threshold))
    assert empirical_risk(table).tobytes() == table.astype(float).mean(axis=0).tobytes()


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
    closed = empirical_risks(Dataset(x=x[None], y=y[None]), atoms, SquaredLoss())[0]
    table = empirical_risk(compute_loss_table(data, atoms, SquaredLoss()))
    assert np.all(closed >= 0)
    # Both routes round at the size of the terms of y - <theta, x>.
    scale = np.mean((np.abs(y)[:, None] + np.abs(x) @ np.abs(coords).T) ** 2, axis=0)
    assert np.all(np.abs(closed - table) <= 1e-12 * scale)
    if not (offset or exact):
        np.testing.assert_allclose(closed, table, rtol=1e-10, atol=0)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=1, max_value=5),
    num_atoms=st.integers(min_value=1, max_value=300),
    collinear=st.booleans(),
)
def test_squared_risks_keep_the_bits_of_the_broadcast_fit(seed, rows, n, k, num_atoms,
                                                          collinear):
    # The (rows, k, K) fit holds the same products as the broadcast (rows, K, k)
    # one. At k <= 2 its squares have one summation order, so every bit agrees;
    # at k >= 3 the two orders differ by rounding only. n <= k is included.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n, k))
    if collinear:
        x[..., -1] = 2.0 * x[..., 0]
    y = rng.standard_normal((rows, n))
    coords = rng.standard_normal((num_atoms, k))
    risks = empirical_risks(Dataset(x=x, y=y), AtomSet(coords), SquaredLoss())
    expected = squared_risks_broadcast(x, y, coords)
    if k <= 2:
        assert risks.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(risks, expected, rtol=1e-15, atol=0)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.one_of(st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1]),
                   st.integers(min_value=1, max_value=100)),
    n=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=1, max_value=3),
    num_atoms=st.integers(min_value=1, max_value=40),
    collinear=st.booleans(),
    chunk=st.sampled_from([0, 1, 2, 7, CHUNK]),
    spare=st.integers(min_value=0, max_value=47),
)
def test_chunked_qr_keeps_the_bits_of_one_stacked_qr(seed, rows, n, k, num_atoms, collinear,
                                                     chunk, spare):
    # LAPACK factors each matrix of a stack on its own, so R, and every risk
    # after it, has the same bits whether a stack is factored in one call or in
    # chunks of rows, at any chunk edge, at n <= k and with collinear columns.
    # A chunk holds QR_CHUNK_VALUES // (n (k + 1)) datasets, and one dataset
    # when that is 0 (chunk 0: fewer values than one dataset).
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n, k))
    if collinear:
        x[..., -1] = 2.0 * x[..., 0]
    y = rng.standard_normal((rows, n))
    coords = rng.standard_normal((num_atoms, k))
    values = chunk * n * (k + 1) + spare % (n * (k + 1))
    with mock.patch.object(risk, "QR_CHUNK_VALUES", values):
        risks = empirical_risks(Dataset(x=x, y=y), AtomSet(coords), SquaredLoss())
    assert risks.tobytes() == squared_risks_one_qr(x, y, coords).tobytes()


@pytest.mark.parametrize("rows, n", [(167, 200), (50, 1000)])
def test_chunked_qr_holds_less_than_one_stacked_copy(rows, n):
    # A coverage_iid block (167 rows, n = 200, k = 2, K = 100) peaked at 1,635,408 B
    # with one stacked QR: its [x | y] and numpy's working copy of it, each
    # 167 * 200 * 3 * 8 = 801,600 B. In chunks only a chunk is copied, and an
    # oracle_rate_gaussian block (50 rows, n = 1,000) peaked at 2,411,499 B.
    k = 2
    rng = np.random.default_rng(3)
    data = Dataset(x=rng.standard_normal((rows, n, k)), y=rng.standard_normal((rows, n)))
    atoms = AtomSet(rng.standard_normal((100, k)))
    tracemalloc.start()
    try:
        empirical_risks(data, atoms, SquaredLoss())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * n * (k + 1) * 8


def test_empirical_risks_other_losses_average_the_table():
    rng = np.random.default_rng(6)
    data = Dataset(x=rng.standard_normal((20, 2)), y=rng.standard_normal(20))
    atoms = AtomSet(rng.standard_normal((5, 2)))
    for loss in (ZeroOneLoss(), ZeroOneLoss(0.3)):
        table = compute_loss_table(data, atoms, loss)
        stacked = Dataset(x=data.x[None], y=data.y[None])
        assert np.array_equal(empirical_risks(stacked, atoms, loss)[0], empirical_risk(table))


def test_empirical_risks_take_stacked_datasets_only():
    lone = Dataset(x=np.ones((3, 1)), y=np.zeros(3))
    with pytest.raises(ValueError, match=re.escape("(rows, n, k)")):
        empirical_risks(lone, AtomSet(np.array([[1.0]])), SquaredLoss())


def test_empirical_risks_must_be_finite():
    huge = Dataset(x=np.array([[[1e200]]]), y=np.array([[0.0]]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        empirical_risks(huge, AtomSet(np.array([[1e200]])), SquaredLoss())


def test_empirical_risk_examples():
    table = compute_loss_table(
        Dataset(x=np.ones((3, 1)), y=np.array([1.0, 0.0, -1.0])),
        AtomSet(np.array([[1.0]])), SquaredLoss())
    # Column of losses (0, 1, 4) -> mean 5/3; direct column check:
    assert np.allclose(table.ravel(), [0.0, 1.0, 4.0])
    assert empirical_risk(table)[0] == pytest.approx(5.0 / 3.0)
    # Closed form: theta0 = mean(y) = 0, e0 . e0 = 2, R = sqrt(3), so (2 + 3 * 1**2) / 3.
    closed = empirical_risks(Dataset(x=np.ones((1, 3, 1)), y=np.array([[1.0, 0.0, -1.0]])),
                             AtomSet(np.array([[1.0]])), SquaredLoss())[0]
    assert closed[0] == pytest.approx(5.0 / 3.0, rel=1e-14)

    single = compute_loss_table(Dataset(x=np.array([[1.0]]), y=np.array([2.0])),
                                AtomSet(np.array([[1.0], [0.0]])), SquaredLoss())
    assert np.allclose(empirical_risk(single), single[0])


def test_empirical_risk_within_column_range():
    rng = np.random.default_rng(5)
    data = Dataset(x=rng.standard_normal((40, 2)), y=rng.standard_normal(40))
    atoms = AtomSet(rng.standard_normal((9, 2)))
    table = compute_loss_table(data, atoms, SquaredLoss())
    risks = empirical_risk(table)
    assert np.all(risks >= table.min(axis=0) - 1e-15)
    assert np.all(risks <= table.max(axis=0) + 1e-15)


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
