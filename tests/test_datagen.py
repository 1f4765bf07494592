import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from hostile_pac.datagen import (AR1, AR1_BURN_IN, BoundedClassification, GaussianNoise,
                                 IidLinearRegression, IsotropicGaussianX,
                                 MixingBoundSpec, MomentDoesNotExistError,
                                 NoClosedFormError, StudentTNoise,
                                 _ar1_path, _ar1_y_moments, _scale_noise, _unscaled_noise,
                                 generate, largest_burn_in_a, noise_moment,
                                 true_risk_closed_form)
from hostile_pac.param_space import AtomSet
from hostile_pac.risk import SquaredLoss, ZeroOneLoss, compute_loss_table
from oracles import ar1_sign_risk_quad, ar1_y_moments_hand, stationary_pairs, true_risk_mc


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
    spec = IidLinearRegression(theta_star=(2.0, -1.0), x_law=IsotropicGaussianX(1.0),
                               noise=GaussianNoise(variance=0.0))
    data = generate(spec, 100, seed=0)
    assert np.allclose(data.y, data.x @ np.array([2.0, -1.0]))


def test_ar1_path_matches_loop():
    rng = np.random.default_rng(4)
    y0 = 0.7
    for a in (0.0, 0.6, -0.6, 0.99, -0.99):
        for n in (1, 2, 3, 200, 5000):
            eps = rng.standard_normal(n)
            fast = _ar1_path(a, y0, eps.copy())
            slow = np.empty(n)
            prev = y0
            for i, e in enumerate(eps):
                prev = a * prev + e
                slow[i] = prev
            assert np.allclose(fast, slow, rtol=0, atol=1e-12), (a, n)


# Drawn with seed 0 by the per-row arithmetic that the block arithmetic replaced.
_X6 = [[0.1634492874214113, -0.17173632227869245], [0.8325494455762668, 0.13637015229895164],
       [-0.6963701851094443, 0.4700735713823302], [1.6952000586691784, 1.2312052520680148],
       [-0.9148558065490904, -1.6450479123598682], [-0.8102568012985579, 0.05372377315141668]]
_AR6 = [0.15747063714437864, -0.2283876277921321, 0.7326827717431983, -0.4190524230994834,
        -0.18578055657153986, 0.45346683884222855, 0.8489063102399521]
_ART6 = [-0.1810438830062679, 0.6796480875149612, 0.461507952826726, -0.117144725174959,
         0.9319537208623404, 2.2145628121034795, 1.2282071359619329]


@pytest.mark.parametrize("spec, x, y", [
    (IidLinearRegression((0.5, -0.3), IsotropicGaussianX(1.3), StudentTNoise(dof=5.0, scale=0.7)),
     _X6, [-1.7534613065070794, -0.29533630401761235, -0.2639864976006637, 1.7908310757906483,
           0.6942934106053983, -1.2379414137143363]),
    (BoundedClassification((1.0, -0.5), IsotropicGaussianX(1.3), 0.3),
     _X6, [1.0, -1.0, -1.0, -1.0, -1.0, -1.0]),
    (AR1(a=-0.7, noise=GaussianNoise(0.8)), [[1.0, lag] for lag in _AR6[:-1]], _AR6[1:]),
    (AR1(a=0.6, noise=StudentTNoise(dof=5.0, scale=0.7)),
     [[1.0, lag] for lag in _ART6[:-1]], _ART6[1:]),
], ids=["iid", "classification", "ar1-gaussian", "ar1-student-t"])
def test_generate_keeps_its_bits(spec, x, y):
    data = generate(spec, 6, seed=0)
    assert data.x.tolist() == x and data.y.tolist() == y


@pytest.mark.parametrize("a, chunks", [(0.95, 1), (-0.95, 1), (0.99, 2), (-0.999, 32)],
                         ids=["0.95", "-0.95", "0.99", "-0.999"])
def test_ar1_burn_in_is_the_last_value_of_the_recursion(a, chunks):
    # The burn-in runs whole chunks until a**(2 steps) <= 2**-53.
    spec = AR1(a=a, noise=StudentTNoise(dof=7.0, scale=0.5))
    rng = np.random.default_rng(9)

    def draw(count):
        return _scale_noise(spec.noise, _unscaled_noise(spec.noise, count, rng))

    y0 = 0.0
    for e in draw(chunks * AR1_BURN_IN):
        y0 = a * y0 + e
    data = generate(spec, 5, seed=9)
    assert data.x[0, 1] == pytest.approx(y0, rel=1e-12, abs=1e-14)
    # The path then continues the same stream.
    assert data.y[0] == pytest.approx(a * y0 + draw(1)[0], rel=1e-12)


def test_student_t_ar1_starts_in_the_stationary_law():
    # One 1,000-step burn-in would leave 1 - a**2000 = 0.865 of the stationary variance.
    spec = AR1(a=0.999, noise=StudentTNoise(dof=7.0, scale=0.5))
    datasets = 4000
    y0 = generate(spec, 2, 2026, range(datasets)).x[:, 0, 1]
    squares = (y0 - y0.mean()) ** 2
    se = squares.std() / math.sqrt(datasets)
    assert abs(squares.mean() - _ar1_y_moments(spec, 2)) <= 4 * se


def test_student_t_ar1_past_the_burn_in_cap_is_rejected_naming_generator_a():
    largest = largest_burn_in_a()
    for a in (largest, -largest):
        assert AR1(a=a, noise=StudentTNoise(dof=7.0)).a == a
    for a in (math.nextafter(largest, 1.0), -0.99999):
        with pytest.raises(ValueError, match=re.escape(f"generator.a={a!r}")) as info:
            AR1(a=a, noise=StudentTNoise(dof=7.0))
        assert repr(largest) in str(info.value) and "\n" not in str(info.value)
    # Gaussian innovations start in their closed-form stationary law, with no burn-in.
    assert AR1(a=0.99999, noise=GaussianNoise(0.25)).a == 0.99999


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
    with pytest.raises(ValueError, match="scale must be nonnegative"):
        IsotropicGaussianX(scale=-1.0)
    # Scale zero is a point-mass design.
    spec = IidLinearRegression(theta_star=(1.0,), x_law=IsotropicGaussianX(0.0),
                               noise=GaussianNoise(variance=1.0))
    assert not generate(spec, 3, seed=0).x.any()


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


@settings(max_examples=25, deadline=None)
@given(order=st.sampled_from([2, 4, 6, 8, 10]), variance=st.floats(0.0, 1e3),
       excess=st.floats(0.5, 40.0), scale=st.floats(0.1, 3.0))
def test_noise_moment_at_every_even_order(order, variance, excess, scale):
    # (order - 1)!! = order! / (2**(order/2) (order/2)!), counted apart from the package.
    double_factorial = math.factorial(order) // (2 ** (order // 2) * math.factorial(order // 2))
    gaussian = noise_moment(GaussianNoise(variance), order)
    assert gaussian == double_factorial * variance ** (order // 2)
    dof = order + excess
    assert noise_moment(StudentTNoise(dof, scale), order) == pytest.approx(
        _t_moment_quadrature(dof, order) * scale**order, rel=1e-8)


def test_noise_moment_nonexistence():
    with pytest.raises(MomentDoesNotExistError):
        noise_moment(StudentTNoise(dof=5.0), 6)
    with pytest.raises(MomentDoesNotExistError):
        noise_moment(StudentTNoise(dof=4.0), 4)
    for order in (0, 1, 3, 5, -2):  # only even orders >= 2 are served
        for noise in (GaussianNoise(1.0), StudentTNoise(dof=30.0)):
            with pytest.raises(ValueError, match="even orders >= 2"):
                noise_moment(noise, order)


def test_noise_moment_past_the_largest_double_is_inf():
    assert noise_moment(StudentTNoise(dof=7.0, scale=1e80), 4) == math.inf
    assert noise_moment(StudentTNoise(dof=7.0, scale=1e60), 6) == math.inf
    assert noise_moment(GaussianNoise(variance=1e200), 4) == math.inf
    # Only the requested order is raised to its power.
    assert noise_moment(GaussianNoise(variance=1e110), 2) == 1e110


def test_noise_moment_at_a_huge_dof_is_the_gaussian_limit():
    # nu**2 and nu**3 overflow at this dof; the moments tend to the Gaussian 1, 3, 15.
    huge = StudentTNoise(dof=1e200, scale=1.0)
    assert [noise_moment(huge, order) for order in (2, 4, 6)] == pytest.approx([1.0, 3.0, 15.0])
    # The bundled Student-t laws keep their bits.
    assert noise_moment(StudentTNoise(dof=5.0, scale=1.0), 4) == 25.0
    t7 = StudentTNoise(dof=7.0, scale=0.5)
    assert (noise_moment(t7, 4), noise_moment(t7, 6)) == (0.6125, 5.359375)


ZERO = AtomSet(np.zeros((1, 2)))  # the residual of the zero atom is y itself


def test_analytic_moments_iid_regression():
    ey2, ey4 = (float(m[0]) for m in IID_T5.residual_moments(ZERO, 4))
    w2 = 0.5**2 + 0.3**2
    e2, e4 = 5.0 / 3.0, 25.0
    assert ey2 == pytest.approx(w2 + e2)
    assert ey4 == pytest.approx(3 * w2**2 + 6 * w2 * e2 + e4)
    with pytest.raises(MomentDoesNotExistError):  # sixth t(5) moment does not exist
        IID_T5.residual_moments(ZERO, 6)
    # k (k + 2) for unit-scale Gaussian in 2d
    assert IID_T5.kappa_moments() == (ey4, pytest.approx(2 * 4))


def test_analytic_moments_iid_monte_carlo():
    spec = IidLinearRegression(theta_star=(0.4, 0.2), x_law=IsotropicGaussianX(1.5),
                               noise=GaussianNoise(variance=0.3))
    ey2 = float(spec.residual_moments(ZERO, 2)[0][0])
    ey4, ex4 = spec.kappa_moments()
    data = generate(spec, 2_000_000, seed=77)
    for value, xs in ((ey2, data.y**2), (ey4, data.y**4),
                      (ex4, np.sum(data.x**2, axis=1) ** 2)):
        se = xs.std() / math.sqrt(xs.size)
        assert abs(xs.mean() - value) <= 4 * se


def test_ar1_moments_gaussian_closed_form():
    # Stationary Gaussian checks: m4 = 3 m2^2 and m6 = 15 m2^3.
    ey2, ey4, ey6 = (float(m[0]) for m in AR_GAUSS.residual_moments(ZERO, 6))
    m2 = 1.0 / (1.0 - 0.25)
    assert ey2 == pytest.approx(m2)
    assert ey4 == pytest.approx(3 * m2**2, rel=1e-12)
    assert ey6 == pytest.approx(15 * m2**3, rel=1e-12)


def test_ar1_fourth_moment_matches_moving_average_formula():
    # Independent derivation through the MA representation:
    # m4 = 3 (E e^2)^2 [1/(1-a^2)^2 - 1/(1-a^4)] + E e^4 / (1 - a^4).
    ey4 = float(AR_T7.residual_moments(ZERO, 4)[1][0])
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


def test_ar1_sign_risk_far_crossing_is_one_half():
    # The score crosses the threshold 39 to 78 lag standard deviations away, so
    # it predicts +1 on every draw and misses with probability 1/2.
    atoms = AtomSet(np.array([[0.9, 0.01], [0.9, -0.01], [0.9, 0.02], [0.9, -0.02]]))
    risks = true_risk_closed_form(AR_GAUSS, atoms, ZeroOneLoss())
    np.testing.assert_allclose(risks, 0.5, rtol=0, atol=1e-15)


def test_ar1_sign_risk_constant_score_is_one_half():
    atoms = AtomSet(np.array([[0.0, 0.0], [0.3, 0.0], [-2.0, 0.0]]))
    for a in (0.5, -0.99):
        spec = AR1(a=a, noise=GaussianNoise(variance=2.0))
        for threshold in (0.0, 0.3):
            risks = true_risk_closed_form(spec, atoms, ZeroOneLoss(threshold))
            assert np.all(risks == 0.5)


@pytest.mark.parametrize("a", [0.5, -0.7, 0.9, 0.99, -0.99, 0.9999, -0.9999])
def test_ar1_sign_risk_matches_quadrature(a):
    spec = AR1(a=a, noise=GaussianNoise(variance=1.3))
    lag_sd = math.sqrt(1.3 / (1.0 - a**2))
    coords = np.random.default_rng(31).normal(0.0, 0.6, (60, 2))
    for threshold in (0.0, 0.3, -0.5):
        # Only crossings within 4 lag s.d., where quad finds the integrand.
        h = (threshold - coords[:, 0]) / (np.abs(coords[:, 1]) * lag_sd)
        atoms = AtomSet(coords[np.abs(h) <= 4.0][:12])
        assert len(atoms) == 12
        loss = ZeroOneLoss(threshold)
        np.testing.assert_allclose(true_risk_closed_form(spec, atoms, loss),
                                   ar1_sign_risk_quad(spec, atoms, loss), rtol=0, atol=1e-10)



@pytest.mark.parametrize("a", [np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0)])
def test_ar1_sign_risk_at_the_largest_coefficient(a):
    # At |a| = 1 - 2**-53 the lag all but fixes the sign of y, so an atom whose
    # crossing lies h lag s.d. out misses with 1/2 - sign(theta1 a) P(Z >= |h|).
    spec = AR1(a=float(a), noise=GaussianNoise(variance=1.3))
    lag_sd = math.sqrt(1.3 / (1.0 - a**2))
    h = np.array([-6.0, -1.0, -0.05, -1e-3, 1e-3, 0.05, 1.0, 6.0])
    for slope in (0.3, -0.3):
        atoms = AtomSet(np.column_stack([0.2 - h * abs(slope) * lag_sd, np.full(len(h), slope)]))
        tail = np.array([0.5 * math.erfc(abs(x) / math.sqrt(2.0)) for x in h])
        np.testing.assert_allclose(true_risk_closed_form(spec, atoms, ZeroOneLoss(0.2)),
                                   0.5 - np.sign(slope * a) * tail, rtol=0, atol=1e-13)

def test_classification_risk_special_values():
    spec = BoundedClassification(theta_star=(1.0, 0.0), x_law=IsotropicGaussianX(1.0),
                                 flip_prob=0.1)
    atoms = AtomSet(np.array([[2.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    risks = true_risk_closed_form(spec, atoms, ZeroOneLoss())
    assert risks[0] == pytest.approx(0.1)          # aligned: flip probability only
    assert risks[1] == pytest.approx(0.9)          # anti-aligned
    assert risks[2] == pytest.approx(0.5)          # orthogonal
    assert risks[3] == pytest.approx(0.5)          # zero predictor
    # A point-mass design x = 0: every atom predicts +1, as theta_star does.
    point_mass = BoundedClassification(theta_star=(1.0, 0.0), x_law=IsotropicGaussianX(0.0),
                                       flip_prob=0.1)
    assert np.all(true_risk_closed_form(point_mass, atoms, ZeroOneLoss()) == 0.1)


def test_no_closed_form_paths():
    with pytest.raises(NoClosedFormError):
        true_risk_closed_form(IID_T5, AtomSet(np.zeros((1, 2))), ZeroOneLoss())
    with pytest.raises(NoClosedFormError):
        true_risk_closed_form(AR_T7, AtomSet(np.zeros((1, 2))), ZeroOneLoss())
    with pytest.raises(NoClosedFormError):
        true_risk_closed_form(CLASSIF, AtomSet(np.zeros((1, 2))), ZeroOneLoss(threshold=0.2))


def test_squared_loss_variance_closed_form_vs_monte_carlo():
    spec = IidLinearRegression(theta_star=(0.5, -0.3), x_law=IsotropicGaussianX(1.0),
                               noise=GaussianNoise(variance=0.5))
    atoms = AtomSet(np.array([[0.5, -0.3], [0.0, 0.0], [-0.4, 0.8]]))
    eu2, eu4 = spec.residual_moments(atoms, 4)
    exact = eu4 - eu2**2
    data = generate(spec, 2_000_000, seed=55)
    table = compute_loss_table(data, atoms, SquaredLoss())
    sample = table.var(axis=0)
    # Loose relative tolerance: the variance of a squared loss is heavy-tailed.
    assert np.all(np.abs(sample - exact) <= 0.02 * exact + 0.02)


def _hand_expanded_residual_moments(spec, theta):
    """E u**2, E u**4, E u**6 of one atom's residual, expanded term by term."""
    e2, e4, e6 = (noise_moment(spec.noise, k) for k in (2, 4, 6))
    if isinstance(spec, AR1):
        m2, m4, m6 = ar1_y_moments_hand(spec)
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
    closed2, closed4, closed6 = spec.residual_moments(atoms, 6)
    np.testing.assert_allclose(closed6, eu6, rtol=1e-13)
    if isinstance(spec, IidLinearRegression):
        np.testing.assert_allclose(closed4 - closed2**2, eu4 - eu2**2, rtol=1e-13)


@pytest.mark.parametrize("noise", [GaussianNoise(variance=1.3), StudentTNoise(dof=7.0, scale=0.5)],
                         ids=["gaussian", "t7"])
@pytest.mark.parametrize("a", [-0.95, -0.5, 0.3, 0.5, 0.9, 0.999])
def test_ar1_y_moments_match_hand_expansion(a, noise):
    spec = AR1(a=a, noise=noise)
    np.testing.assert_allclose([_ar1_y_moments(spec, k) for k in (2, 4, 6)],
                               ar1_y_moments_hand(spec), rtol=1e-13)


def test_squared_loss_third_moment_vs_monte_carlo():
    atoms = AtomSet(np.array([[0.0, 0.5], [0.2, 0.1], [-0.3, 0.7]]))
    exact = AR_GAUSS.residual_moments(atoms, 6)[2]
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
        cubed = compute_loss_table(pairs, atoms, SquaredLoss()) ** 3
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
