"""noise-lab: a verification laboratory for stochastic-gradient momentum.

Synthetic objectives with analytically known noise constants, SGD and two
heavy-ball variants driven by shared noise streams, gradient / search-
direction noise measurement, critical-batch-size sweeps with their
analytic step/SFO curves, randomized smoothing, adaptive sharpness, and a
suite of bound and identity checks.
"""

from .analysis import (BoundComponents, BoundReport, CheckResult, VerifySettings,
                       convergence_bound_report, ensemble, lhs_inner_product,
                       weighted_norm_identity, run_verify_suite, stationarity_check,
                       thm_rhs)
from .noise import (NoiseReport, NoiseSummary, TailStats, default_burn_in,
                    gradient_noise_samples, minibatch_deviation_sq_samples,
                    search_direction_noise, tail_stats)
from .optimizers import (OptimizerConfig, OptimizerState, Trace, TraceOptions,
                         TraceRecord, map_shb_to_nshb, nshb_step, run, sgd_step,
                         shb_step, simulate)
from .problems import (ConstantGradient, FiniteSumLeastSquares, KnownConstants,
                       NoisyQuadratic, Objective, RngStream, SineBowl, make_objective)
from .smoothing import (GapReport, MeanUpdateReport, SharpnessSpec, SmoothedValue,
                        SmoothingSpec, adaptive_sharpness, degree_of_smoothing,
                        draw_directions, gd_vs_nshb_expectation, mean_direction_norm,
                        smoothed_value, smoothing_gap_check)
from .sweep import (AnalyticCurveParams, BatchStats, DomainError, StopRule,
                    SweepRow, SweepSummary, analytic_critical_batch, analytic_sfo,
                    analytic_T, empirical_critical_batch, run_sweep,
                    steps_to_epsilon, variance_upper_bound, xyz_from_setup)

__version__ = "0.1.0"
