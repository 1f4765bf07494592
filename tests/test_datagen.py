import math

import numpy as np
import pytest
from scipy import integrate, stats

from hostile_pac.datagen import (AR1, BoundedClassification, GaussianNoise,
                                 IidLinearRegression, IsotropicGaussianX,
                                 MixingBoundSpec, MomentDoesNotExistError,
                                 NoClosedFormError, StudentTNoise, UniformBoxX,
                                 _ar1_path, _ar1_y_moments, _residual_moments,
                                 generate, kappa_moments, mixing_spec_for, noise_moment,
                                 squared_loss_third_moments, squared_loss_variances,
                                 true_risk_closed_form)
from hostile_pac.param_space import AtomSet
from hostile_pac.risk import SquaredLoss, ZeroOneLoss, compute_loss_table
from oracles import stationary_pairs, true_risk_mc


IID_T5 = IidLinearRegression(theta_star=(0.5, -0.3), x_law=IsotropicGaussianX(1.0),
                             noise=StudentTNoise(dof=5.0, scale=1.0))
AR_GAUSS = AR1(a=0.5, noise=GaussianNoise(variance=1.0),
               mixing=MixingBoundSpec(c1=0.5, c2=math.log(2.0)))
AR_T7 = AR1(a=0.5, noise=StudentTNoise(dof=7.0, scale=0.5))
CLASSIF = BoundedClassification(theta_star=(1.0, -0.5), x_law=IsotropicGaussianX(1.0),
                                flip_prob=0.1)


def test_generate_deterministic():
    for spec in (IID_T5, AR_GAUSS, AR_T7, CLASSIF):
        a = generate(spec, 50, seed=11)
        b = generate(spec, 50, seed=11)
        c = generate(spec, 50, seed=12)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)


def test_generate_noiseless_regression_is_exact():
    spec = IidLinearRegression(theta_star=(2.0, -1.0), x_law=UniformBoxX(1.0),
                               noise=GaussianNoise(variance=0.0))
    data = generate(spec, 100, seed=0)
    assert np.allclose(data.y, data.x @ np.array([2.0, -1.0]))


def test_ar1_path_matches_loop():
    rng = np.random.default_rng(4)
    eps = rng.standard_normal(200)
    y0 = 0.7
    fast = _ar1_path(0.6, y0, eps)
    slow = np.empty(200)
    prev = y0
    for i, e in enumerate(eps):
        prev = 0.6 * prev + e
        slow[i] = prev
    assert np.allclose(fast, slow, atol=1e-12)


def test_ar1_design_is_intercept_and_lag():
    data = generate(AR_GAUSS, 30, seed=5)
    assert np.all(data.x[:, 0] == 1.0)
    assert np.allclose(data.x[1:, 1], data.y[:-1])


def test_ar1_zero_coefficient_is_iid():
    spec = AR1(a=0.0, noise=GaussianNoise(variance=1.0))
    data = generate(spec, 10_000, seed=3)
    y = data.y
    lag1 = np.corrcoef(y[:-1], y[1:])[0, 1]
    assert abs(lag1) <= 4.0 / math.sqrt(len(y))


def test_ar1_stationary_variance():
    data = generate(AR_GAUSS, 100_000, seed=8)
    # Var = 1 / (1 - 0.25); tolerance ~3 standard errors of the estimate.
    assert abs(np.var(data.y) - 4.0 / 3.0) <= 0.035


def test_ar1_requires_two_observations():
    with pytest.raises(ValueError):
        generate(AR_GAUSS, 1, seed=0)


def test_spec_validation():
    with pytest.raises(ValueError):
        AR1(a=1.0, noise=GaussianNoise())
    with pytest.raises(ValueError):
        StudentTNoise(dof=2.0)
    with pytest.raises(ValueError):
        BoundedClassification(theta_star=(0.0, 0.0), x_law=IsotropicGaussianX(), flip_prob=0.1)
    with pytest.raises(ValueError):
        BoundedClassification(theta_star=(1.0,), x_law=IsotropicGaussianX(), flip_prob=0.5)
    with pytest.raises(ValueError):
        MixingBoundSpec(c1=-1.0, c2=1.0)


def _t_moment_quadrature(dof: float, order: int) -> float:
    pdf = stats.t(dof).pdf
    value, _ = integrate.quad(lambda y: y**order * pdf(y), -np.inf, np.inf, limit=400)
    return value


def test_noise_moment_formulas_against_quadrature():
    t5 = StudentTNoise(dof=5.0, scale=1.0)
    assert noise_moment(t5, 4) == pytest.approx(25.0)
    for order in (2, 4):
        assert noise_moment(t5, order) == pytest.approx(_t_moment_quadrature(5.0, order),
                                                        rel=1e-8)
    t7 = StudentTNoise(dof=7.0, scale=0.5)
    for order in (2, 4, 6):
        assert noise_moment(t7, order) == pytest.approx(
            _t_moment_quadrature(7.0, order) * 0.5**order, rel=1e-8)
    g = GaussianNoise(variance=2.0)
    assert noise_moment(g, 2) == 2.0
    assert noise_moment(g, 4) == pytest.approx(12.0)
    assert noise_moment(g, 6) == pytest.approx(120.0)


def test_noise_moment_nonexistence():
    with pytest.raises(MomentDoesNotExistError):
        noise_moment(StudentTNoise(dof=5.0), 6)
    with pytest.raises(MomentDoesNotExistError):
        noise_moment(StudentTNoise(dof=4.0), 4)


def test_moment_consistency_monte_carlo():
    draws = 10_000_000
    rng = np.random.default_rng(321)
    samples = {
        GaussianNoise(variance=1.5): math.sqrt(1.5) * rng.standard_normal(draws),
        StudentTNoise(dof=5.0, scale=1.0): rng.standard_t(5.0, draws),
        StudentTNoise(dof=7.0, scale=0.5): 0.5 * rng.standard_t(7.0, draws),
    }
    orders = {GaussianNoise(variance=1.5): (2, 4, 6),
              StudentTNoise(dof=5.0, scale=1.0): (2,),
              StudentTNoise(dof=7.0, scale=0.5): (2, 4)}
    # Orders are checked only where the MC standard error itself is finite,
    # i.e. the 2*order moment exists.
    for noise, xs in samples.items():
        for order in orders[noise]:
            powered = xs**order
            se = powered.std() / math.sqrt(draws)
            assert abs(powered.mean() - noise_moment(noise, order)) <= 4 * se


ZERO = AtomSet(np.zeros((1, 2)))  # the residual of the zero atom is y itself


def test_analytic_moments_iid_regression():
    ey2, ey4 = (float(m[0]) for m in _residual_moments(IID_T5, ZERO, 4))
    w2 = 0.5**2 + 0.3**2
    e2, e4 = 5.0 / 3.0, 25.0
    assert ey2 == pytest.approx(w2 + e2)
    assert ey4 == pytest.approx(3 * w2**2 + 6 * w2 * e2 + e4)
    with pytest.raises(MomentDoesNotExistError):  # sixth t(5) moment does not exist
        _residual_moments(IID_T5, ZERO, 6)
    # k (k + 2) for unit-scale Gaussian in 2d
    assert kappa_moments(IID_T5) == (ey4, pytest.approx(2 * 4))


def test_analytic_moments_iid_monte_carlo():
    spec = IidLinearRegression(theta_star=(0.4, 0.2), x_law=UniformBoxX(1.5),
                               noise=GaussianNoise(variance=0.3))
    ey2 = float(_residual_moments(spec, ZERO, 2)[0][0])
    ey4, ex4 = kappa_moments(spec)
    data = generate(spec, 2_000_000, seed=77)
    for value, xs in ((ey2, data.y**2), (ey4, data.y**4),
                      (ex4, np.sum(data.x**2, axis=1) ** 2)):
        se = xs.std() / math.sqrt(xs.size)
        assert abs(xs.mean() - value) <= 4 * se


def test_ar1_moments_gaussian_closed_form():
    # Stationary Gaussian checks: m4 = 3 m2^2 and m6 = 15 m2^3.
    ey2, ey4, ey6 = (float(m[0]) for m in _residual_moments(AR_GAUSS, ZERO, 6))
    m2 = 1.0 / (1.0 - 0.25)
    assert ey2 == pytest.approx(m2)
    assert ey4 == pytest.approx(3 * m2**2, rel=1e-12)
    assert ey6 == pytest.approx(15 * m2**3, rel=1e-12)


def test_ar1_fourth_moment_matches_moving_average_formula():
    # Independent derivation through the MA representation:
    # m4 = 3 (E e^2)^2 [1/(1-a^2)^2 - 1/(1-a^4)] + E e^4 / (1 - a^4).
    ey4 = float(_residual_moments(AR_T7, ZERO, 4)[1][0])
    a = 0.5
    e2 = noise_moment(AR_T7.noise, 2)
    e4 = noise_moment(AR_T7.noise, 4)
    ma = 3 * e2**2 * (1.0 / (1 - a**2) ** 2 - 1.0 / (1 - a**4)) + e4 / (1 - a**4)
    assert ey4 == pytest.approx(ma, rel=1e-12)


def test_true_risk_closed_forms_match_monte_carlo():
    rng = np.random.default_rng(90)
    cases = [
        (IID_T5, SquaredLoss(), AtomSet(rng.normal(0, 0.6, (10, 2)))),
        (AR_GAUSS, SquaredLoss(), AtomSet(rng.normal(0, 0.6, (10, 2)))),
        (AR_T7, SquaredLoss(), AtomSet(rng.normal(0, 0.6, (10, 2)))),
        (CLASSIF, ZeroOneLoss(), AtomSet(rng.normal(0, 1.0, (10, 2)))),
        (AR_GAUSS, ZeroOneLoss(), AtomSet(rng.normal(0, 0.6, (10, 2)))),
    ]
    for spec, loss, atoms in cases:
        exact = true_risk_closed_form(spec, atoms, loss)
        mc, se = true_risk_mc(spec, atoms, loss, draws=1_000_000, seed=1234)
        assert np.all(np.abs(exact - mc) <= 4 * se + 1e-12), (spec, loss)


def test_classification_risk_special_values():
    spec = BoundedClassification(theta_star=(1.0, 0.0), x_law=IsotropicGaussianX(1.0),
                                 flip_prob=0.1)
    atoms = AtomSet(np.array([[2.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    risks = true_risk_closed_form(spec, atoms, ZeroOneLoss())
    assert risks[0] == pytest.approx(0.1)          # aligned: flip probability only
    assert risks[1] == pytest.approx(0.9)          # anti-aligned
    assert risks[2] == pytest.approx(0.5)          # orthogonal
    assert risks[3] == pytest.approx(0.5)          # zero predictor


def test_no_closed_form_paths():
    with pytest.raises(NoClosedFormError):
        true_risk_closed_form(IID_T5, AtomSet(np.zeros((1, 2))), ZeroOneLoss())
    with pytest.raises(NoClosedFormError):
        true_risk_closed_form(AR_T7, AtomSet(np.zeros((1, 2))), ZeroOneLoss())
    with pytest.raises(NoClosedFormError):
        true_risk_closed_form(CLASSIF, AtomSet(np.zeros((1, 2))), ZeroOneLoss(threshold=0.2))


def test_mixing_spec_passthrough():
    assert mixing_spec_for(AR_GAUSS) == MixingBoundSpec(c1=0.5, c2=math.log(2.0))
    iid_envelope = mixing_spec_for(IID_T5)
    assert iid_envelope.c1 == 0.0
    with pytest.raises(ValueError):
        mixing_spec_for(AR_T7)  # no envelope configured


def test_squared_loss_variance_closed_form_vs_monte_carlo():
    spec = IidLinearRegression(theta_star=(0.5, -0.3), x_law=IsotropicGaussianX(1.0),
                               noise=GaussianNoise(variance=0.5))
    atoms = AtomSet(np.array([[0.5, -0.3], [0.0, 0.0], [-0.4, 0.8]]))
    exact = squared_loss_variances(spec, atoms)
    data = generate(spec, 2_000_000, seed=55)
    table = compute_loss_table(data, atoms, SquaredLoss()).losses
    sample = table.var(axis=0)
    # Loose relative tolerance: the variance of a squared loss is heavy-tailed.
    assert np.all(np.abs(sample - exact) <= 0.02 * exact + 0.02)


def _hand_expanded_residual_moments(spec, theta):
    """E u**2, E u**4, E u**6 of one atom's residual, expanded term by term."""
    e2, e4, e6 = (noise_moment(spec.noise, k) for k in (2, 4, 6))
    if isinstance(spec, AR1):
        m2, m4, m6 = (_ar1_y_moments(spec, k) for k in (2, 4, 6))
        c, t0 = spec.a - theta[1], theta[0]
        v2 = c**2 * m2 + e2
        v4 = c**4 * m4 + 6 * c**2 * m2 * e2 + e4
        v6 = c**6 * m6 + 15 * c**4 * m4 * e2 + 15 * c**2 * m2 * e4 + e6
        return (v2 + t0**2, v4 + 6 * v2 * t0**2 + t0**4,
                v6 + 15 * v4 * t0**2 + 15 * v2 * t0**4 + t0**6)
    s2 = spec.x_law.scale**2 * float(np.sum((np.asarray(spec.theta_star) - theta) ** 2))
    return (s2 + e2, 3 * s2**2 + 6 * s2 * e2 + e4,
            15 * s2**3 + 45 * s2**2 * e2 + 15 * s2 * e4 + e6)


@pytest.mark.parametrize("spec", [
    IidLinearRegression(theta_star=(0.5, -0.3), x_law=IsotropicGaussianX(1.3),
                        noise=StudentTNoise(dof=7.0, scale=0.8)),
    AR_T7,
])
def test_residual_closed_forms_match_hand_expansion(spec):
    atoms = AtomSet(np.random.default_rng(3).normal(0.0, 0.8, (200, 2)))
    eu2, eu4, eu6 = np.array([_hand_expanded_residual_moments(spec, t) for t in atoms.coords]).T
    np.testing.assert_allclose(true_risk_closed_form(spec, atoms, SquaredLoss()), eu2, rtol=1e-13)
    np.testing.assert_allclose(squared_loss_third_moments(spec, atoms), eu6, rtol=1e-13)
    if isinstance(spec, IidLinearRegression):
        np.testing.assert_allclose(squared_loss_variances(spec, atoms), eu4 - eu2**2, rtol=1e-13)


def test_squared_loss_third_moment_vs_monte_carlo():
    atoms = AtomSet(np.array([[0.0, 0.5], [0.2, 0.1], [-0.3, 0.7]]))
    exact = squared_loss_third_moments(AR_GAUSS, atoms)
    data_spec = AR1(a=0.5, noise=GaussianNoise(variance=1.0))
    # Estimate E[loss^3] by raising per-draw losses to the third power:
    rng = np.random.default_rng(17)
    total = np.zeros(len(atoms))
    total_sq = np.zeros(len(atoms))
    draws = 4_000_000
    done = 0
    while done < draws:
        m = min(500_000, draws - done)
        pairs = stationary_pairs(data_spec, m, rng)
        cubed = compute_loss_table(pairs, atoms, SquaredLoss()).losses ** 3
        total += cubed.sum(axis=0)
        total_sq += (cubed**2).sum(axis=0)
        done += m
    mean = total / draws
    se3 = np.sqrt(np.maximum(total_sq / draws - mean**2, 0) / draws)
    assert np.all(np.abs(mean - exact) <= 5 * se3)


def test_clipped_loss_covariance_below_envelope():
    # Covariances of [0,1]-valued loss functionals are dominated by the
    # mixing coefficients, hence by the configured envelope.
    theta = np.array([0.1, 0.3])
    chains, length = 50, 20_000
    lags = np.arange(1, 11)
    covs = np.empty((chains, lags.size))
    for c in range(chains):
        data = generate(AR_GAUSS, length, seed=7_000 + c)
        losses = np.minimum((data.y - data.x @ theta) ** 2, 1.0)
        centered = losses - losses.mean()
        for idx, j in enumerate(lags):
            covs[c, idx] = np.mean(centered[:-j] * centered[j:])
    mean = covs.mean(axis=0)
    se = covs.std(axis=0, ddof=1) / math.sqrt(chains)
    envelope = AR_GAUSS.mixing.c1 * np.exp(-AR_GAUSS.mixing.c2 * lags)
    assert np.all(mean <= envelope + 4 * se)


def test_stationary_pairs_match_generate_marginals():
    rng = np.random.default_rng(2)
    pairs = stationary_pairs(AR_T7, 400_000, rng)
    # Lag column must have the stationary variance v/(1-a^2).
    v = noise_moment(AR_T7.noise, 2)
    target = v / (1 - 0.25)
    assert abs(np.var(pairs.x[:, 1]) - target) <= 0.02
    assert abs(np.var(pairs.y) - target) <= 0.02
