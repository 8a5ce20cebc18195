"""Randomized smoothing induced by search-direction noise, and sharpness.

The smoothed version of f at scale delta is

    f_hat_delta(x) = E_u[ f(x - delta * u) ],

with u drawn from a light-tailed distribution normalised so E||u|| <= 1.
For an L_f-Lipschitz f the gap obeys |f_hat_delta(x) - f(x)| <= delta * L_f.
The smoothing scale implied by a minibatch first-order method is

    delta = eta * sqrt(C^2 / b),

a function of the learning rate, gradient variance, and batch size only:
the momentum factor does not enter (the signature has no beta on purpose).

Perturbation distributions:

  unit-sphere-uniform   ||u|| = 1 exactly (default; makes the gap bound's
                        boundary case an equality)
  gaussian-scaled       standard normal divided by E||z||, so E||u|| = 1
  ball-uniform          uniform in the unit ball, E||u|| = dim/(dim+1) < 1

The worst-case adaptive sharpness of f at w with radius rho and scaling c
is max f(w + delta) - f(w) over ||delta / c||_p <= rho, estimated from
below by random search or projected sign ascent.

The smoothing functions take f as an Objective or as a callable that maps
an (m, dim) array of points to their m values; adaptive sharpness takes an
Objective, whose gradient sign ascent follows. Every function that draws
takes the RngStream it draws from: none falls back to a default seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .config import DISTRIBUTIONS, SHARPNESS_METHODS
# bound at import: bench/tracer.py's wrapper of optimizers.nshb_step sees none of these steps
from .optimizers import OptimizerState, nshb_step
from .problems import Objective, RngStream, rowdot

_EVAL_CHUNK = 200_000


@dataclass(frozen=True)
class SmoothingSpec:
    delta: float
    dist: str = "unit-sphere-uniform"
    samples: int = 10_000

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(f"dist must be one of {DISTRIBUTIONS}, got {self.dist!r}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


@dataclass(frozen=True)
class SharpnessSpec:
    rho: float
    c: Optional[np.ndarray] = None      # defaults to the all-ones vector
    p: Union[int, float, str] = "inf"
    method: str = "sign-ascent"
    iters: int = 50

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if self.method not in SHARPNESS_METHODS:
            raise ValueError(f"method must be one of {SHARPNESS_METHODS}, got {self.method!r}")
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")
        if str(self.p) not in ("2", "inf"):
            raise ValueError(f"p must be 2 or 'inf', got {self.p!r}")
        if self.c is not None:
            c = np.asarray(self.c, dtype=float)
            if np.any(c <= 0):
                raise ValueError("all scaling components must be positive")
            object.__setattr__(self, "c", c)


def degree_of_smoothing(eta: float, c_sq: float, b: int) -> float:
    """eta * sqrt(C^2 / b). Momentum-free by construction."""
    if eta < 0 or c_sq < 0:
        raise ValueError("eta and C^2 must be non-negative")
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    return eta * math.sqrt(c_sq / b)


def mean_direction_norm(dist: str, dim: int) -> float:
    """Analytic E||u|| for each perturbation distribution."""
    if dist in ("unit-sphere-uniform", "gaussian-scaled"):
        return 1.0
    if dist == "ball-uniform":
        return dim / (dim + 1.0)
    raise ValueError(f"unknown distribution {dist!r}")


def _chi_mean(dim: int) -> float:
    # E||z|| for a standard normal in R^dim
    return math.sqrt(2.0) * math.exp(math.lgamma((dim + 1) / 2.0) - math.lgamma(dim / 2.0))


def draw_directions(dist: str, dim: int, m: int, gen: np.random.Generator) -> np.ndarray:
    """m perturbation directions with E||u|| <= 1, shape (m, dim)."""
    z = gen.standard_normal((m, dim))
    norms = np.sqrt(rowdot(z, z))[:, None]
    norms[norms == 0.0] = 1.0
    if dist == "unit-sphere-uniform":
        return z / norms
    if dist == "gaussian-scaled":
        return z / _chi_mean(dim)
    if dist == "ball-uniform":
        radii = gen.random((m, 1)) ** (1.0 / dim)
        return z / norms * radii
    raise ValueError(f"unknown distribution {dist!r}")


def _value_fn(f):
    """f's values at the rows of an (m, dim) array (value for an objective)."""
    if isinstance(f, Objective):
        return f.value
    if not callable(f):
        raise TypeError("f must be an Objective or a callable")
    return lambda X: np.asarray(f(X), dtype=float)


@dataclass(frozen=True)
class SmoothedValue:
    estimate: float
    std_error: float
    samples: int
    mean_direction_norm: float


def smoothed_value(f, x, smoothing: SmoothingSpec, rng: RngStream) -> SmoothedValue:
    """Monte-Carlo estimate of f_hat_delta(x), f an objective or a callable on
    (m, dim) arrays, with its standard error. The empirical E||u|| is
    reported alongside so the normalisation can be audited."""
    x = np.asarray(x, dtype=float)
    value = _value_fn(f)
    if smoothing.delta == 0.0:
        return SmoothedValue(estimate=float(value(x[None])[0]), std_error=0.0,
                             samples=smoothing.samples, mean_direction_norm=0.0)
    gen = rng.generator()
    m = smoothing.samples
    total = 0.0
    total_sq = 0.0
    norm_total = 0.0
    done = 0
    chunk = max(1, _EVAL_CHUNK // max(1, x.size))
    while done < m:
        take = min(chunk, m - done)
        u = draw_directions(smoothing.dist, x.size, take, gen)
        vals = value(x - smoothing.delta * u)
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("non-finite objective value inside the smoothing average")
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        if not math.isfinite(total_sq):     # inf - inf would read as a variance of 0
            raise FloatingPointError("the squared objective values inside the smoothing "
                                     "average overflow")
        norm_total += float(np.sum(np.sqrt(rowdot(u, u))))
        done += take
    mean = total / m
    var = max(0.0, total_sq / m - mean * mean)
    se = math.sqrt(var / m) if m > 1 else float("inf")
    return SmoothedValue(estimate=mean, std_error=se, samples=m,
                         mean_direction_norm=norm_total / m)


@dataclass(frozen=True)
class GapPoint:
    point: np.ndarray
    f: float
    f_hat: float
    std_error: float
    gap: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class GapReport:
    delta: float
    lipschitz: float
    points: tuple
    all_passed: bool


def smoothing_gap_check(f, points, delta: float, lipschitz: Optional[float] = None,
                        samples: int = 100_000, dist: str = "unit-sphere-uniform",
                        *, rng: RngStream) -> GapReport:
    """Check |f_hat_delta(x) - f(x)| <= delta * L_f at each point, with a
    3-standard-error Monte-Carlo allowance. L_f defaults to the
    objective's known Lipschitz constant and must be supplied otherwise."""
    if lipschitz is None:
        if isinstance(f, Objective):
            lipschitz = f.constants().lipschitz
        if lipschitz is None:
            raise ValueError("Lipschitz constant unknown; pass lipschitz= explicitly")
    if samples < 2:     # one sample has no standard error, so no Monte-Carlo allowance
        raise ValueError(f"the gap check needs samples >= 2, got {samples}")
    spec, value = SmoothingSpec(delta=delta, dist=dist, samples=samples), _value_fn(f)
    results = []
    for i, point in enumerate(points):
        point = np.asarray(point, dtype=float)
        sv = smoothed_value(f, point, spec, rng.child(i))
        f_x = float(value(point[None])[0])
        gap = abs(sv.estimate - f_x)
        bound = delta * lipschitz
        slack = 3.0 * sv.std_error + 1e-9 * max(1.0, abs(f_x))
        results.append(GapPoint(
            point=point, f=f_x, f_hat=sv.estimate, std_error=sv.std_error,
            gap=gap, bound=bound, passed=bool(gap <= bound + slack),
        ))
    return GapReport(delta=delta, lipschitz=float(lipschitz), points=tuple(results),
                     all_passed=all(r.passed for r in results))


@dataclass(frozen=True)
class MeanUpdateReport:
    """Single-step comparison between the replica-averaged momentum update
    and the exact gradient-descent step from the same schedule."""

    discrepancy: float            # ||mean_r [x_{t+1} - (x_t - eta grad f(x_t))]||
    confidence_radius: float      # 3 * sqrt(sum_j var_j / replicas)
    within_confidence: bool
    replicas: int
    burn_in: int
    early_bias_reference: float   # eta * beta * ||grad f(x_start)||


def gd_vs_nshb_expectation(spec: Objective, x_start, eta: float, beta: float,
                           replicas: int = 10_000, burn_in: int = 200,
                           *, rng: RngStream, batch_size: int = 1) -> MeanUpdateReport:
    """Estimate E[x_{t+1}] - (x_t - eta * grad f(x_t)) after burn_in steps.

    Replicas advance in lockstep with independent noise histories, all drawn
    from one generator of rng, so their mean estimates the unconditional
    expectation of the momentum direction; each replica contributes
    delta_r = x_{t+1} - (x_t - eta grad f(x_t)) = -eta * omega_t. With a
    burned-in buffer E[omega_t] vanishes geometrically and the mean lands
    within Monte-Carlo error of zero; with no burn-in the zero-initialised
    buffer leaves the known bias of size eta * beta * ||grad f(x_start)||.
    A beta outside [0, 1) fails nshb_step's check at the first step.
    """
    if replicas < 2:
        raise ValueError(f"replicas must be >= 2, got {replicas}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    x_start = np.asarray(x_start, dtype=float)

    state, gen = OptimizerState.initial(np.tile(x_start, (replicas, 1))), rng.generator()
    for t in range(burn_in):
        nshb_step(state, spec.minibatch_grad_ensemble(state.x, batch_size, gen), eta, beta)
        if not np.all(np.isfinite(state.x)):
            raise FloatingPointError(f"replica ensemble diverged at burn-in step {t}")

    grads = spec.grad(state.x)
    nshb_step(state, spec.minibatch_grad_ensemble(state.x, batch_size, gen, grads), eta, beta)
    deltas = -eta * (state.momentum - grads)   # x_{t+1} - (x_t - eta grad f(x_t)) per replica
    mean = deltas.mean(axis=0)
    var = deltas.var(axis=0, ddof=1)
    radius = 3.0 * math.sqrt(float(np.sum(var)) / replicas)
    discrepancy = _norm(mean)
    return MeanUpdateReport(
        discrepancy=discrepancy,
        confidence_radius=radius,
        within_confidence=bool(discrepancy <= radius),
        replicas=replicas,
        burn_in=burn_in,
        early_bias_reference=eta * beta * _norm(spec.grad(x_start)),
    )


def _norm(v: np.ndarray) -> float:
    """||v||_2, rescaled only when its squares overflow: a norm in range keeps its bits."""
    with np.errstate(over="ignore"):        # an overflow is what the rescale handles
        norm = math.sqrt(rowdot(v, v))
    top = float(np.max(np.abs(v))) if math.isinf(norm) else math.inf
    return norm if math.isinf(top) else top * _norm(v / top)


def _project_feasible(delta: np.ndarray, rho: float, c: np.ndarray, p: str) -> np.ndarray:
    if p == "inf":
        return np.clip(delta, -rho * c, rho * c)
    norm = _norm(delta / c)
    if norm > rho and norm > 0:
        return delta * (rho / norm)
    return delta


def adaptive_sharpness(spec: Objective, w, sharp: SharpnessSpec, rng: RngStream) -> float:
    """Lower bound on max f(w + delta) - f(w) over ||delta / c||_p <= rho.

    random-search evaluates iters feasible perturbations; sign-ascent takes
    iters projected ascent steps, along the objective's gradient, from a
    random feasible start. The zero perturbation is always feasible, so the
    result is non-negative, and the best value seen is kept, so more
    iterations never lower it.
    """
    w = np.asarray(w, dtype=float)
    c = sharp.c if sharp.c is not None else np.ones_like(w)
    if c.shape != w.shape:
        raise ValueError(f"scaling vector has shape {c.shape}, expected {w.shape}")
    p = str(sharp.p)
    base = spec.value(w)
    if sharp.rho == 0.0:
        return 0.0
    gen = rng.generator()
    best = 0.0

    if sharp.method == "random-search":
        if p == "inf":
            deltas = sharp.rho * c * gen.uniform(-1.0, 1.0, size=(sharp.iters, w.size))
        else:
            deltas = sharp.rho * c * draw_directions("ball-uniform", w.size, sharp.iters, gen)
        vals = spec.value(w + deltas) - base
        return float(np.maximum(best, np.max(vals)))     # a NaN value is kept, not dropped

    delta = _project_feasible(sharp.rho * c * gen.uniform(-0.5, 0.5, size=w.size),
                              sharp.rho, c, p)
    step = sharp.rho / 10.0
    c_overflows = not np.isfinite(c * c).all()     # then scale by c twice, after the norm
    for _ in range(sharp.iters):
        g = spec.grad(w + delta)
        if not np.any(g):
            delta = _project_feasible(sharp.rho * c * gen.uniform(-1.0, 1.0, size=w.size),
                                      sharp.rho, c, p)
            g = spec.grad(w + delta)
        if p == "inf":
            delta = _project_feasible(delta + step * c * np.sign(g), sharp.rho, c, p)
        else:
            gn = _norm(c * g)
            if gn > 0:
                ascent = step * (c * ((c * g) / gn)) if c_overflows else step * (c * c * g) / gn
                delta = _project_feasible(delta + ascent, sharp.rho, c, p)
        best = float(np.maximum(best, spec.value(w + delta) - base))
    return best
