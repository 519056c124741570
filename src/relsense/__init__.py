"""Rare-event failure probabilities and reliability-oriented sensitivity
indices from a single adaptive splitting campaign.

The package estimates ``P(Y > S)`` for an expensive black-box model and,
from the same conditioned sample, ranks the inputs by how much the
failure event depends on each of them: total-variation indices between
an input and the output given failure, between an input's nominal and
failure-conditioned marginals, and a Sobol index of the failure
indicator.  Densities are reconstructed by maximum entropy under
fractional moment constraints, so no bandwidth tuning is involved.
The independent reference values of the built-in benchmarks live in
:mod:`relsense.oracle`, which ``import relsense`` does not load.
"""

__version__ = "0.1.0"

from .model import (BlackBox, EvaluationError, FailureEvent, InputModel,
                    Marginal, builtin_model)
from .external import ExternalBlackBox, external_blackbox
from .seeding import REPLICATION, seed_sequence, stream
from .smc import (CrankNicolsonKernel, GaussianRandomWalkKernel, SmcError,
                  SmcParams, SmcResult, final_sampling, run_adaptive_smc)
from .maxent import (DEFAULT_EXPONENTS, InfeasibleConstraintsError, MaxEntCopula,
                     MaxEntDensity, MaxEntError, MomentConstraints,
                     copula_fractional_moments, fit_copula, fit_density,
                     fractional_moments_1d, solve_maxent)
from .indices import (DivergenceSpec, EstimationError, WeightFunction,
                      csiszar_indices, csiszar_marginal_index, delta_index,
                      rank_descending, scaled_target_index, sobol_indicator_index,
                      target_tv_index)
from .campaign import (CampaignConfig, CampaignReport, CampaignRuntimeError,
                       ConfigError, load_config, parse_config, run_campaign,
                       run_replication, validate_config, write_outputs)
