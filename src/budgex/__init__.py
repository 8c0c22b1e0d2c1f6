"""budgex: budgeted active experimentation for treatment effect estimation.

Simulates two-source causal worlds (biased observational logs plus an
unlabeled target pool), runs a round-based active RCT acquisition loop under
a query budget, fits an inverse-propensity pseudo-outcome ridge model of the
CATE <theta, phi(x)>, and verifies its finite-sample and asymptotic guarantees
empirically. Past the feature map everything reads phi rows, mapped once.
"""

from .core import (FeatureMap, ObsLog, Pool, PropensityBounds, RctStream,
                   read_jsonl, validate_rct_stream, write_jsonl)
from .envs import (BoxMarginal, HardInstance, LinearEnv, LogisticPolicy,
                   MarginalShift, SegmentMarginal, ThresholdPolicy,
                   default_hard_delta, env_from_json, env_to_json, sample_obs,
                   sample_pool)
from .estimator import (ConfidenceParams, RidgeSolution, SandwichEstimate,
                        beta_bound, confidence_width, default_sigma,
                        fit_ridge_arrays, pointwise_ci, pseudo_outcome_values,
                        sandwich_from_arrays)
from .acquisition import (SCORE_DTYPE, AcquisitionWeights, LogisticHead,
                          composite_scores, ensemble_variance, fit_propensity,
                          overlap_deficit_many, rank_normalize, select_top_m,
                          train_domain_classifier)
from .protocol import (AffinePolicy, ConstantPolicy, ProtocolConfig,
                       VarianceOptimalPolicy, clip_probability, optimal_p,
                       run_protocol)
from .metrics import (BoundCheckResult, NormalityDiagnostic, UpliftCurve,
                      bound_violation_audit, clt_diagnostic, pehe, uplift_curve)

__version__ = "0.1.0"
