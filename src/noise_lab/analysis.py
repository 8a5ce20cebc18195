"""Convergence-bound evaluation and algebraic identity checks.

The guaranteed bound on the averaged inner products (1/T) sum_t
E <x_t - x, grad f(x_t)> decomposes into

    first_term      ||x0 - x||^2 / (2 eta T)
    momentum_term   D beta sqrt(C^2 / b)     (zero without momentum)
    variance_term   (eta / 2) (C^2 / b + K^2)

and the left side is Monte-Carlo estimated from an ensemble of
independent-seed traces. The plain-SGD bound is asserted by the verify
suite; the momentum bound is reported as a diagnostic because its proof
routes through the buffer-lag inequality that fails at stationarity (see
the noise module). The averaged inner product has no a-priori sign on
nonconvex problems; a negative value means the iterates sit at or past
stationarity, not a violated bound.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import smoothing as _smoothing
from . import sweep as _sweep
from .config import ConfigError
from .noise import default_burn_in, minibatch_deviation_sq_samples, search_direction_noise
from .optimizers import OptimizerConfig, Trace, run, simulate
from .problems import ConstantGradient, NoisyQuadratic, Objective, RngStream, rowdot


@dataclass(frozen=True)
class BoundComponents:
    first_term: float
    momentum_term: float
    variance_term: float

    @property
    def rhs(self) -> float:
        return self.first_term + self.momentum_term + self.variance_term


def thm_rhs(algo: str, norm_x0_sq: float, eta: float, T: int, c_sq: float,
            b: int, k_sq: float, d: float = 0.0, beta: float = 0.0) -> BoundComponents:
    """Right-hand side of the averaged-inner-product bound for sgd (no
    momentum term) or nshb/shb (adds D * beta * sqrt(C^2 / b))."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    momentum = 0.0
    if algo != "sgd" and beta > 0.0:
        momentum = d * beta * math.sqrt(c_sq / b)
    return BoundComponents(
        first_term=norm_x0_sq / (2.0 * eta * T),
        momentum_term=momentum,
        variance_term=(eta / 2.0) * (c_sq / b + k_sq),
    )


def lhs_inner_product(traces: Sequence[Trace], x_ref) -> tuple[float, float]:
    """Cross-seed mean and 3-standard-error confidence radius of the
    per-trace time average of <x_t - x_ref, grad f(x_t)>."""
    if len(traces) < 30:
        raise ValueError(f"need >= 30 traces for a stable estimate, got {len(traces)}")
    lengths = {t.steps for t in traces}
    if len(lengths) != 1:
        raise ValueError(f"traces have unequal lengths {sorted(lengths)}")
    x_ref = np.asarray(x_ref, dtype=float)
    per_trace = np.array([
        float(np.mean(rowdot(t.xs() - x_ref, t.grad)))
        for t in traces
    ])
    mean = float(np.mean(per_trace))
    stderr = float(np.std(per_trace, ddof=1) / math.sqrt(len(per_trace)))
    return mean, 3.0 * stderr


def weighted_norm_identity(x, y, alpha) -> dict:
    """Both sides of ||a x + (1-a) y||^2 =
    a ||x||^2 + (1-a) ||y||^2 - a (1-a) ||x - y||^2 over the last axis:
    vectors give floats, stacked rows (one alpha per row) give arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    a = np.asarray(alpha, dtype=float)
    if a.ndim and a.shape != x.shape[:-1]:
        raise ValueError(f"alpha has shape {a.shape}, expected one per row {x.shape[:-1]}")
    mix, diff = a[..., None] * x + (1.0 - a[..., None]) * y, x - y
    lhs = rowdot(mix, mix)
    rhs = a * rowdot(x, x) + (1.0 - a) * rowdot(y, y) - a * (1.0 - a) * rowdot(diff, diff)
    if x.ndim == 1:
        lhs, rhs = float(lhs), float(rhs)
    return {"lhs": lhs, "rhs": rhs, "abs_diff": abs(lhs - rhs)}


def stationarity_check(spec: Objective, x_star, directions: int,
                       rng: RngStream, grad_tol: float = 1e-8) -> dict:
    """Compare the two equivalent stationarity certificates at x_star:
    grad f(x_star) = 0, and <grad f(x_star), y - x_star> >= 0 for all y.
    Sampled y come from a standard normal cloud around x_star plus the
    witness y = x_star - grad f(x_star)."""
    if directions < 1:
        raise ValueError(f"directions must be >= 1, got {directions}")
    x_star = np.asarray(x_star, dtype=float)
    g = spec.grad(x_star)
    grad_norm = math.sqrt(rowdot(g, g))
    gen = rng.generator()
    ys = x_star + gen.standard_normal((directions, x_star.size))
    ys = np.vstack([ys, x_star - g])
    offsets = ys - x_star
    min_ip = float(np.min(rowdot(offsets, g)))
    max_radius = float(np.max(np.sqrt(rowdot(offsets, offsets))))
    ip_tol = grad_tol * max(max_radius, 1.0)
    consistent = (grad_norm <= grad_tol) == (min_ip >= -ip_tol)
    return {"grad_norm": grad_norm, "min_inner_product": min_ip,
            "consistent": bool(consistent)}


def ensemble(spec: Objective, config: OptimizerConfig, x0, steps: int, seeds: int,
             rng: RngStream) -> list:
    """Independent-seed traces of equal length with x snapshots, in seed
    order; seed s runs on rng.child(s), all seeds in one lockstep stack."""
    return simulate(spec, [config] * seeds, [rng.child(s) for s in range(seeds)], x0=x0,
                    max_steps=steps)


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    lhs_confidence: float
    components: BoundComponents
    holds: bool
    regime_notes: tuple = ()

    @property
    def rhs(self) -> float:
        return self.components.rhs


def convergence_bound_report(spec: Objective, config: OptimizerConfig, x0, x_ref,
                             steps: int, seeds: int, rng: RngStream) -> BoundReport:
    """Monte-Carlo left side vs analytic right side of the inner-product
    bound, with empirical stand-ins for unknown constants recorded in the
    notes. holds means lhs - confidence <= rhs."""
    x0 = np.asarray(x0, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    traces = ensemble(spec, config, x0, steps, seeds, rng)
    lhs, conf = lhs_inner_product(traces, x_ref)

    eta, beta = config.effective_eta_beta()
    c_sq, k_sq, d_hat, notes = _sweep.resolve_constants(spec, traces, x_ref, beta)
    if lhs < 0:
        notes.append("lhs is negative: iterates at or past stationarity on average")

    d0 = x0 - x_ref
    comps = thm_rhs(config.algo, float(rowdot(d0, d0)), eta, steps,
                    c_sq, config.batch_size, k_sq, d=d_hat, beta=beta)
    return BoundReport(
        lhs=lhs, lhs_confidence=conf, components=comps,
        holds=bool(lhs - conf <= comps.rhs), regime_notes=tuple(notes),
    )


def _second_moment_check(trace: Trace, vectors: np.ndarray, burn_in: Optional[int],
                         slack: float) -> dict:
    """Windowed mean of ||vectors_t||^2 against the empirical C^2/b + K^2
    measured on the same trace, widened by the slack: rhs is the widened
    bound, and holds means lhs <= rhs."""
    _, beta = trace.config.effective_eta_beta()
    if burn_in is None:
        burn_in = default_burn_in(beta)
    n = trace.steps
    if n <= burn_in:
        raise ValueError(f"trace has {n} steps, need more than burn_in={burn_in}")
    w = slice(burn_in, n)
    v, grads = vectors[w], trace.grad[w]
    dev = trace.minibatch_grad[w] - grads
    lhs = float(np.mean(rowdot(v, v)))
    c2b = float(np.mean(rowdot(dev, dev)))
    k2 = float(np.max(rowdot(grads, grads)))
    rhs = (c2b + k2) * (1.0 + slack)
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs)}


def minibatch_second_moment_check(trace: Trace, burn_in: Optional[int] = None,
                                  slack: float = 0.05) -> dict:
    """Windowed mean of ||minibatch grad||^2 against the empirical
    C^2/b + K^2 measured on the same trace (5% slack)."""
    return _second_moment_check(trace, trace.minibatch_grad, burn_in, slack)


def buffer_second_moment_check(trace: Trace, burn_in: Optional[int] = None,
                               slack: float = 0.05) -> dict:
    """Windowed mean of ||d_t||^2 against the same empirical C^2/b + K^2."""
    return _second_moment_check(trace, trace.search_direction, burn_in, slack)


@dataclass(frozen=True)
class CheckResult:
    check: str
    lhs: float
    rhs: float
    holds: bool
    asserted: bool
    notes: str = ""

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class VerifySettings:
    master_seed: int = 2024
    ensemble_seeds: int = 100
    ensemble_steps: int = 300
    noise_steps: int = 1500
    variance_draws: int = 100_000
    identity_triples: int = 10_000
    replicas: int = 4_000


def _identity_check(rng: RngStream, triples: int, block: int = 1024) -> CheckResult:
    """weighted_norm_identity on random triples, drawn and evaluated `block`
    at a time, its error scaled by the larger squared norm."""
    gen = rng.generator()
    worst = 0.0
    for lo in range(0, triples, block):
        n = min(block, triples - lo)
        x = gen.standard_normal((n, 4)) * 10.0 ** gen.integers(-3, 4, size=(n, 1))
        y = gen.standard_normal((n, 4)) * 10.0 ** gen.integers(-3, 4, size=(n, 1))
        out = weighted_norm_identity(x, y, gen.uniform(-2.0, 3.0, size=n))
        scale = np.maximum(np.maximum(rowdot(x, x), rowdot(y, y)), 1e-300)
        worst = max(worst, float(np.max(out["abs_diff"] / scale)))
    return CheckResult("weighted-norm-identity", worst, 1e-12, worst <= 1e-12, True,
                       f"max scaled deviation over {triples} random triples")


def run_verify_suite(settings: Optional[VerifySettings] = None) -> list:
    """The default identity-and-bound battery. Diagnostics report the two
    momentum inequalities whose general validity the measurements decide.
    Asserted checks compare Monte-Carlo estimates with fixed tolerances, so
    small budgets fail them on a correct program. Under stream contract 3
    master seeds 0-199 failed none at the default budgets; at every schema
    floor (variance_draws=1000, noise_steps=200, ensemble_seeds=30,
    ensemble_steps=10, identity_triples=100, replicas=100), seeds 0-99
    failed only minibatch-variance-scaling (38 times) and minibatch-second-moment-bound (26).

    The b = 64 variance-scaling draw runs on a helper thread while this
    thread runs every other check; each b draws from its own child stream,
    so the results do not depend on how the two threads interleave."""
    s = settings or VerifySettings()
    rng = RngStream(s.master_seed)

    # minibatch deviation second moment scales as C^2 / b
    quad = NoisyQuadratic(dim=2, variance=4.0)
    x_probe = np.array([1.0, -2.0])

    def scaling_error(b: int, stream: RngStream) -> float:
        try:
            samples = minibatch_deviation_sq_samples(quad, x_probe, b, s.variance_draws, stream)
        except MemoryError as exc:
            raise ConfigError(f"the variance-scaling samples do not fit in memory ({exc})",
                              "$.verify.variance_draws") from exc
        return abs(float(np.mean(samples)) - 4.0 / b) / (4.0 / b)

    # the b = 64 draw is most of the suite's arithmetic, spent in numpy calls that
    # release the interpreter lock, and the rest of the suite is interpreter-bound
    helper = _HelperThread(scaling_error, 64, rng.child("scaling", 64))
    try:
        identity = _identity_check(rng.child("identity"), s.identity_triples)
        worst_rel = 0.0
        for b in (1, 4, 16):        # each b's samples are gone before the next b draws
            worst_rel = max(worst_rel, scaling_error(b, rng.child("scaling", b)))
        rest = _model_checks(s, rng, quad)
        worst_rel = max(worst_rel, helper.result())
    finally:
        helper.join()
    return [identity,
            CheckResult("minibatch-variance-scaling", worst_rel, 0.05, worst_rel <= 0.05, True,
                        f"worst relative error over b in (1,4,16,64) at {s.variance_draws} draws"),
            *rest]


class _HelperThread(threading.Thread):
    """fn(*args) started at once on a helper thread, under the starting
    thread's numpy error state, which a new thread does not inherit.
    result() joins it and returns fn's value or raises its exception."""

    def __init__(self, fn, *args):
        super().__init__(name=f"noise-lab-{fn.__name__}")
        self._fn, self._args, self._err = fn, args, np.geterr()
        self._value = self._exc = None
        self.start()

    def run(self) -> None:
        try:
            with np.errstate(**self._err):
                self._value = self._fn(*self._args)
        except BaseException as exc:        # raised again by result(), on the joining thread
            self._exc = exc

    def result(self):
        self.join()
        if self._exc is not None:
            raise self._exc
        return self._value


def _model_checks(s: VerifySettings, rng: RngStream, quad: NoisyQuadratic) -> list:
    """The checks of run_verify_suite after the variance scaling, in order."""
    results = []

    # stationary momentum trace on the constant-gradient problem
    const = ConstantGradient(dim=2, variance=1.0, coefficient=[1.0, 1.0])
    nshb = OptimizerConfig(algo="nshb", eta=0.05, beta=0.9, batch_size=1)
    trace = run(const, nshb, x0=np.zeros(2), max_steps=s.noise_steps, rng=rng.child("noise-trace"))
    report = search_direction_noise(trace, const)

    a2 = minibatch_second_moment_check(trace)
    results.append(CheckResult("minibatch-second-moment-bound", a2["lhs"],
                               a2["rhs"], a2["holds"], True,
                               "windowed mean ||minibatch grad||^2 vs empirical C^2/b + K^2"))
    a3 = buffer_second_moment_check(trace)
    results.append(CheckResult("momentum-buffer-second-moment-bound", a3["lhs"],
                               a3["rhs"], a3["holds"], True,
                               "windowed mean ||d_t||^2 vs empirical C^2/b + K^2"))
    results.append(CheckResult(
        "direction-noise-second-moment-bound",
        report.summary.mean_omega_sq, report.summary.bound_c2_over_b,
        bool(report.summary.direction_noise_bound_holds), False,
        "diagnostic; stationary mean is (1-beta)/(1+beta) * C^2/b, below the bound"))
    results.append(CheckResult(
        "buffer-lag-noise-bound",
        report.summary.buffer_lag_lhs, report.summary.buffer_lag_rhs,
        report.summary.buffer_lag_bound_holds, False,
        "diagnostic; fails at stationarity for large beta (lhs -> 2/(1+beta) * C^2/b)"))

    # inner-product bounds on the noisy quadratic: asserted for sgd, reported for nshb
    x0 = np.array([2.0, -1.0])
    for config, asserted in ((OptimizerConfig(algo="sgd", eta=0.1, batch_size=8), True),
                             (OptimizerConfig(algo="nshb", eta=0.1, beta=0.9, batch_size=8),
                              False)):
        bound = convergence_bound_report(quad, config, x0, np.zeros(2), s.ensemble_steps,
                                         s.ensemble_seeds, rng.child(f"bound-{config.algo}"))
        results.append(CheckResult(f"{config.algo}-inner-product-bound",
                                   bound.lhs - bound.lhs_confidence, bound.rhs, bound.holds,
                                   asserted, "; ".join(bound.regime_notes)))

    # replica-mean update identity
    upd = _smoothing.gd_vs_nshb_expectation(const, np.zeros(2), eta=0.1, beta=0.9,
                                            replicas=s.replicas, burn_in=200,
                                            rng=rng.child("mean-update"))
    results.append(CheckResult("momentum-vs-gd-mean-update", upd.discrepancy,
                               upd.confidence_radius, upd.within_confidence, True,
                               f"{upd.replicas} replicas, burn-in {upd.burn_in}"))

    # algorithm equivalences under shared noise: the four rows of one stack share one stream
    shb_cfg = OptimizerConfig(algo="shb", gamma=0.05, beta_bar=0.9, batch_size=4)
    eta_eq, beta_eq = shb_cfg.effective_eta_beta()
    configs = (shb_cfg, OptimizerConfig(algo="nshb", eta=eta_eq, beta=beta_eq, batch_size=4),
               OptimizerConfig(algo="nshb", eta=0.1, beta=0.0, batch_size=4),
               OptimizerConfig(algo="sgd", eta=0.1, batch_size=4))
    xs = [t.xs() for t in simulate(quad, configs, [rng.child("equiv")] * 4, x0, max_steps=1000)]
    for check, tol, notes, pair in (
            ("shb-nshb-reparameterization", 1e-10,
             "max per-coordinate relative divergence over 1000 shared-noise steps", xs[:2]),
            ("zero-momentum-reduces-to-sgd", 1e-12, "", xs[2:])):
        rel = _max_rel_divergence(*pair)
        results.append(CheckResult(check, rel, tol, rel <= tol, True, notes))

    # stationarity certificates agree
    st = stationarity_check(NoisyQuadratic(dim=3), np.zeros(3), 64, rng.child("stationary"))
    st2 = stationarity_check(ConstantGradient(dim=2, coefficient=[1.0, 0.0]),
                             np.array([0.5, 0.5]), 64, rng.child("nonstationary"))
    ok = st["consistent"] and st2["consistent"]
    results.append(CheckResult("stationarity-variational-consistency",
                               0.0 if ok else 1.0, 0.0, ok, True,
                               "minimizer and non-stationary certificates both consistent"))

    # smoothing gap bound on a problem with known Lipschitz constant
    gen_pts = rng.child("gap-points").generator()
    pts = gen_pts.standard_normal((5, 2)) * 2.0
    gap = _smoothing.smoothing_gap_check(const, pts, delta=0.5, samples=20_000,
                                         rng=rng.child("gap"))
    worst_gap = max(p.gap - (p.bound + 3.0 * p.std_error) for p in gap.points)
    results.append(CheckResult("smoothing-gap-bound", worst_gap, 0.0,
                               gap.all_passed, True,
                               "worst gap minus allowance over 5 points at delta=0.5"))

    # analytic curve shape, minimizer placement, lower bound, round trip
    shape_ok, place_ok = _curve_checks(rng.child("curves"))
    results.append(CheckResult("steps-curve-shape", 0.0 if shape_ok else 1.0, 0.0, shape_ok, True,
                               "first differences negative, slopes non-decreasing, 50 random curves"))
    results.append(CheckResult("sfo-curve-minimizer", 0.0 if place_ok else 1.0, 0.0, place_ok, True,
                               "grid argmin within one cell of 2Y/(eps^2 - Z), SFO convex, 50 random curves"))

    lb_ok = True
    for eta in (0.01, 0.1, 0.5):
        for c_sq in (10.0, 1280.0, 5000.0):
            for eps in (0.6, 1.0, 2.0):
                params = _sweep.AnalyticCurveParams(X=1.0, Y=eta * c_sq / 2.0,
                                                    Z=eta * 1.0 / 2.0,
                                                    epsilon_sq=eps * eps)
                lb_ok &= _sweep.analytic_critical_batch(params) > eta * c_sq / (eps * eps)
    results.append(CheckResult("critical-batch-lower-bound", 0.0 if lb_ok else 1.0,
                               0.0, lb_ok, True,
                               "b* > eta C^2 / eps^2 across a 3x3x3 (eta, C^2, eps) grid with Z > 0"))

    # b* -> bound round trip: the estimate is C^2 * eps^2 / (eps^2 - Z), so it
    # recovers C^2 exactly at Z=0 and overestimates (stays an upper bound) otherwise
    eta, c_sq, eps = 0.1, 1280.0, 0.5
    rt_err = 0.0
    for z in (0.0, 0.05, 0.1):
        params = _sweep.AnalyticCurveParams(X=1.0, Y=eta * c_sq / 2.0, Z=z,
                                            epsilon_sq=eps * eps)
        round_trip = _sweep.variance_upper_bound(
            _sweep.analytic_critical_batch(params), eps, eta)
        expected = c_sq * eps * eps / (eps * eps - z)
        rt_err = max(rt_err, abs(round_trip - expected) / expected,
                     0.0 if round_trip >= c_sq else 1.0)
    results.append(CheckResult("variance-backestimate-roundtrip", rt_err, 1e-12,
                               rt_err <= 1e-12, True,
                               "b* -> bound equals C^2 eps^2/(eps^2 - Z); exact C^2 at Z=0, never below C^2"))

    return results


def _max_rel_divergence(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / scale))


def grid_monotone_decreasing(values: np.ndarray) -> bool:
    return bool(np.all(np.diff(values) < 0))


def grid_convex(grid: np.ndarray, values: np.ndarray) -> bool:
    """Discrete convexity on a (possibly uneven) grid: consecutive slopes
    never decrease, up to a relative rounding tolerance of 1e-9."""
    slopes = np.diff(values) / np.diff(grid)
    scale = np.maximum(np.abs(slopes[:-1]), np.abs(slopes[1:]))
    return bool(np.all(np.diff(slopes) >= -1e-9 * np.maximum(scale, 1e-300)))


def _curve_checks(rng: RngStream) -> tuple[bool, bool]:
    """One pass over 50 random curves: (T falls and is convex past the pole,
    SFO is convex with its grid argmin within one cell of b*)."""
    gen = rng.generator()
    shape_ok = place_ok = True
    for _ in range(50):
        y = float(gen.uniform(0.5, 200.0))
        z = float(gen.uniform(0.0, 0.5))
        eps_sq = z + float(gen.uniform(0.05, 2.0))
        x = float(gen.uniform(1.0, 500.0))
        params = _sweep.AnalyticCurveParams(X=x, Y=y, Z=z, epsilon_sq=eps_sq)
        pole = params.pole()
        bs = np.geomspace(pole * 1.05, pole * 200.0, 24)
        ts = np.array([_sweep.analytic_T(params, b) for b in bs])
        shape_ok &= grid_monotone_decreasing(ts) and grid_convex(bs, ts)
        b_star = _sweep.analytic_critical_batch(params)
        grid = np.geomspace(pole * 1.02, b_star * 64.0, 40)
        sfo = np.array([_sweep.analytic_sfo(params, b) for b in grid])
        idx = int(np.argmin(sfo))
        place_ok &= bool(grid[max(0, idx - 1)] <= b_star <= grid[min(len(grid) - 1, idx + 1)])
        place_ok &= grid_convex(grid, sfo)
    return shape_ok, place_ok
