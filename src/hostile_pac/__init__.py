"""PAC-Bayesian risk certificates and optimal aggregation for hostile data.

Hostile means heavy-tailed (no exponential moments) and/or dependent
(mixing, not i.i.d.) observations. The certificate machinery lives in
:mod:`hostile_pac.aggregation`; synthetic generators with closed-form
moments and risks in :mod:`hostile_pac.datagen`; the experiment harness and
CLI in :mod:`hostile_pac.harness` and :mod:`hostile_pac.cli`.
"""

from .aggregation import (BoundConfig, BoundReport, ComplexityEstimate,
                          catoni_pi_gamma, erm_index, evaluate_bound, optimal_gamma,
                          oracle_bound_empirical, oracle_bound_population,
                          pac_margin, rho_hat, solve_rbar, verify_complexity)
from .datagen import (AR1, BoundedClassification, GaussianNoise, GeneratorSpec,
                      IidLinearRegression, IsotropicGaussianX, MixingBoundSpec,
                      StudentTNoise, UniformBoxX, generate, kappa_moments,
                      mixing_spec_for, true_risk_closed_form)
from .divergence import PhiP, f_divergence
from .moments import (MixingBoundedRegime, MixingUnbounded, MixingUnboundedRegime,
                      MomentBound, RegimeSpec, SubGaussianRegime, VarianceRegime,
                      empirical_moment_estimate, geometric_alpha_sum, kappa_quadratic,
                      moment_iid_variance, moment_mixing_bounded, moment_mixing_unbounded,
                      moment_subgaussian, optimal_q_finite, optimized_erm_margin)
from .param_space import (AtomSet, DiscreteDistribution, ExplicitPrior,
                          IidSamplePrior, PriorSpec, UniformGridPrior,
                          build_prior, expectation, prior_moment_tau)
from .risk import (AbsoluteLoss, Dataset, LossKind, LossTable, SquaredLoss,
                   ZeroOneLoss, compute_loss_table, empirical_risk, empirical_risks)

__version__ = "0.1.0"
