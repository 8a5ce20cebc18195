"""Gradient-noise and search-direction-noise measurement.

Gradient noise is ||G(x) - grad f(x)||, the deviation of a single
stochastic gradient from the full gradient. Search-direction noise
omega_t is the deviation of the direction the optimizer actually
followed: the minibatch gradient for sgd (where the two notions
coincide record-by-record), d_t for nshb, m_t for shb.

Two inequalities are evaluated on every trace and reported, never
asserted:

  * direction-noise bound: windowed mean ||omega_t||^2 <= C^2 / b
    (squared form; the momentum factor is absent from the bound);
  * buffer-lag bound: windowed mean ||d_{t-1} - g_t||^2 <=
    beta (2 - beta) * windowed mean ||g_t - grad f(x_t)||^2.

The second is reported because it fails in an easily reachable regime:
on the constant-gradient problem at stationarity the left side tends to
2/(1+beta) * C^2/b while the right side is beta(2-beta) * C^2/b, which
is smaller for beta = 0.9. The first holds there (the true stationary
mean of ||omega||^2 is (1-beta)/(1+beta) * C^2/b), so the report
distinguishes the two claims. Early steps, where the zero-initialised
buffer biases omega_t by beta^{t+1} * ||grad f||, are excluded by a
burn-in window and summarised separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .optimizers import Trace
from .problems import Objective, RngStream, rowdot


def default_burn_in(beta: float) -> int:
    """Steps to discard before noise summaries: max(100, 10/(1-beta))."""
    return max(100, math.ceil(10.0 / (1.0 - beta) - 1e-9))


def gradient_noise_samples(spec: Objective, x, m: int, rng: RngStream) -> np.ndarray:
    """m iid values of ||G(x) - grad f(x)|| at a fixed point: the square roots
    of the b = 1 minibatch deviation samples, drawn alike."""
    return np.sqrt(minibatch_deviation_sq_samples(spec, x, 1, m, rng))


def minibatch_deviation_sq_samples(spec: Objective, x, b: int, m: int,
                                   rng: RngStream) -> np.ndarray:
    """m iid values of ||minibatch_grad - grad f||^2 at a fixed point; their
    mean estimates C^2 / b. The means are drawn from one generator of rng a
    block at a time and reduced as they come, so no (m, dim) array is held."""
    x = np.asarray(x, dtype=float)
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    g, gen, rows = spec.grad(x), rng.generator(), spec._block_rows(b, at_point=True)
    out = np.empty(m)
    for lo in range(0, m, rows):
        dev = spec.minibatch_grad_means(x, b, min(rows, m - lo), gen, g)
        dev -= g
        out[lo:lo + rows] = rowdot(dev, dev)
    return out


@dataclass(frozen=True)
class NoiseSummary:
    window_start: int
    window_stop: int
    mean_omega_sq: float
    mean_grad_noise_sq: float
    bound_c2_over_b: Optional[float]
    direction_noise_bound_holds: Optional[bool]
    buffer_lag_lhs: float
    buffer_lag_rhs: float
    buffer_lag_bound_holds: bool
    early_mean_omega_sq: Optional[float]
    early_bias_flagged: bool


@dataclass(frozen=True)
class NoiseReport:
    t: np.ndarray
    grad_noise_sq: np.ndarray     # ||minibatch_grad - grad||^2 per step
    omega_sq: np.ndarray          # ||search_direction - grad||^2 per step
    summary: NoiseSummary

    def rows(self):
        for i in range(len(self.t)):
            yield {
                "t": int(self.t[i]),
                "grad_noise_sq": float(self.grad_noise_sq[i]),
                "omega_sq": float(self.omega_sq[i]),
            }


def search_direction_noise(trace: Trace, spec: Objective,
                           burn_in: Optional[int] = None) -> NoiseReport:
    """Per-step noise norms plus a windowed summary of the two reported
    inequalities. The window is [burn_in, len(trace)); burn_in defaults to
    max(100, 10/(1-beta)) so the momentum buffer reaches stationarity."""
    _, beta = trace.config.effective_eta_beta()
    if burn_in is None:
        burn_in = default_burn_in(beta)
    n = trace.steps
    if n <= burn_in:
        raise ValueError(f"trace has {n} steps, need more than burn_in={burn_in}")

    grads, dirs, mbs = trace.grad, trace.search_direction, trace.minibatch_grad

    omega, noise = dirs - grads, mbs - grads
    omega_sq, grad_noise_sq = rowdot(omega, omega), rowdot(noise, noise)

    w = slice(burn_in, n)
    mean_omega_sq = float(np.mean(omega_sq[w]))
    mean_grad_noise_sq = float(np.mean(grad_noise_sq[w]))

    c_sq = spec.constants().variance
    bound = None if c_sq is None else c_sq / trace.config.batch_size
    bound_holds = None if bound is None else bool(mean_omega_sq <= bound)

    # buffer lag: d_{t-1} (zero vector before the first step) vs the fresh draw
    lag = np.vstack([np.zeros(spec.dim), dirs[:-1]]) - mbs
    lag_sq = rowdot(lag, lag)
    lhs = float(np.mean(lag_sq[w]))
    rhs = float(beta * (2.0 - beta) * mean_grad_noise_sq)

    early = omega_sq[:burn_in]
    early_mean = float(np.mean(early)) if early.size else None
    early_flag = early_mean is not None and early_mean > 2.0 * mean_omega_sq

    summary = NoiseSummary(
        window_start=burn_in,
        window_stop=n,
        mean_omega_sq=mean_omega_sq,
        mean_grad_noise_sq=mean_grad_noise_sq,
        bound_c2_over_b=bound,
        direction_noise_bound_holds=bound_holds,
        buffer_lag_lhs=lhs,
        buffer_lag_rhs=rhs,
        buffer_lag_bound_holds=bool(lhs <= rhs),
        early_mean_omega_sq=early_mean,
        early_bias_flagged=bool(early_flag),
    )
    return NoiseReport(
        t=np.arange(n),
        grad_noise_sq=grad_noise_sq,
        omega_sq=omega_sq,
        summary=summary,
    )


@dataclass(frozen=True)
class TailStats:
    sample_count: int
    mean: float
    variance: float
    excess_kurtosis: float
    tail_mass: dict    # {k: fraction of samples beyond k standard deviations}


def tail_stats(samples) -> TailStats:
    """Moment statistics and empirical k-sigma tail masses for k = 3, 4, 5;
    a light-tailed sample shows excess kurtosis near or below zero and
    rapidly vanishing tail mass."""
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if n < 30:
        raise ValueError(f"need at least 30 samples for tail statistics, got {n}")
    mean = float(np.mean(x))
    centered = x - mean
    m2 = float(np.mean(centered ** 2))
    var = float(np.var(x, ddof=1))
    if m2 == 0.0:
        kurt = 0.0
        masses = {k: 0.0 for k in (3, 4, 5)}
    else:
        m4 = float(np.mean(centered ** 4))
        kurt = m4 / (m2 * m2) - 3.0
        sd = math.sqrt(m2)
        masses = {k: float(np.mean(np.abs(centered) > k * sd)) for k in (3, 4, 5)}
    return TailStats(
        sample_count=n,
        mean=mean,
        variance=var,
        excess_kurtosis=kurt,
        tail_mass=masses,
    )
