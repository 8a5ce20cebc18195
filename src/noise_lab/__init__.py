"""noise-lab: a verification laboratory for stochastic-gradient momentum.

Synthetic objectives with analytically known noise constants, SGD and two
heavy-ball variants driven by shared noise streams, gradient / search-
direction noise measurement, critical-batch-size sweeps with their
analytic step/SFO curves, randomized smoothing, adaptive sharpness, and a
suite of bound and identity checks.
"""

from importlib import import_module

# each module and the names exported from it, loaded on first use (PEP 562)
_EXPORTS = {"analysis": "BoundComponents BoundReport CheckResult VerifySettings "
            "convergence_bound_report ensemble lhs_inner_product weighted_norm_identity "
            "run_verify_suite stationarity_check thm_rhs",
            "noise": "NoiseReport NoiseSummary TailStats default_burn_in gradient_noise_samples "
            "minibatch_deviation_sq_samples search_direction_noise tail_stats",
            "optimizers": "OptimizerConfig OptimizerState Trace TraceRecord "
            "map_shb_to_nshb nshb_step run sgd_step shb_step simulate",
            "problems": "ConstantGradient FiniteSumLeastSquares KnownConstants NoisyQuadratic "
            "Objective RngStream SineBowl make_objective",
            "reporting": "",
            "smoothing": "GapReport MeanUpdateReport SharpnessSpec SmoothedValue SmoothingSpec "
            "adaptive_sharpness degree_of_smoothing draw_directions gd_vs_nshb_expectation "
            "mean_direction_norm smoothed_value smoothing_gap_check",
            "sweep": "AnalyticCurveParams BatchStats DomainError StopRule SweepRow SweepSummary "
            "analytic_critical_batch analytic_sfo analytic_T empirical_critical_batch run_sweep "
            "steps_to_epsilon variance_upper_bound xyz_from_setup"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
