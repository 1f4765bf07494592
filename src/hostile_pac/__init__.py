"""PAC-Bayesian risk certificates and optimal aggregation for hostile data.

Hostile means heavy-tailed (no exponential moments) and/or dependent
(mixing, not i.i.d.) observations. The certificate machinery lives in
:mod:`hostile_pac.aggregation`; synthetic generators with closed-form
moments and risks in :mod:`hostile_pac.datagen`; the experiment harness and
CLI in :mod:`hostile_pac.harness` and :mod:`hostile_pac.cli`.
"""

from .aggregation import (BoundConfig, BoundReport, ComplexityEstimate,
                          catoni_pi_gamma, certified_oracle, erm_index, evaluate_bound,
                          optimal_gamma, oracle_bound, pac_margin, rho_hat, solve_rbar,
                          verify_complexity)
from .datagen import (AR1, BoundedClassification, GaussianNoise, GeneratorSpec,
                      IidLinearRegression, IsotropicGaussianX, MixingBoundSpec,
                      StudentTNoise, generate, kappa_moments,
                      true_risk_closed_form)
from .moments import (MixingBoundedRegime, MixingUnboundedRegime, MomentBound, RegimeSpec,
                      SubGaussianRegime, VarianceRegime)
from .param_space import (AtomSet, DiscreteDistribution, ExplicitPrior,
                          IidSamplePrior, PriorSpec, build_prior, expectation)
from .risk import Dataset, LossKind, SquaredLoss, ZeroOneLoss, empirical_risks

__version__ = "0.1.0"
