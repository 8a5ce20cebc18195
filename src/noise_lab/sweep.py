"""Batch-size sweeps, stopping rules, and the analytic step/SFO curves.

A sweep measures, for each batch size b, the number of steps T(b) until a
running average falls below a threshold, and the stochastic-first-order
cost T(b) * b. The empirical critical batch size is the grid argmin of
the mean SFO cost.

The matching analytic model writes the guaranteed bound on the averaged
inner products as X/T + Y/b + Z, giving

    T(b)   = X b / ((eps^2 - Z) b - Y)      for b > Y / (eps^2 - Z)
    SFO(b) = X b^2 / ((eps^2 - Z) b - Y)
    b*     = 2 Y / (eps^2 - Z)

with X = ||x0 - x||^2 / (2 eta), Y = eta C^2 / 2, and Z = eta K^2 / 2
(plus beta * D * sqrt(C^2) when the search direction carries momentum).
T is decreasing and convex past the pole; SFO is convex with a unique
minimizer at b*, which rearranges into the variance back-estimate
C^2 < b* eps^2 / eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .optimizers import OptimizerConfig, Trace, run, simulate
from .problems import Objective, RngStream, rowdot

STOP_KINDS = ("cumulative-grad-norm", "inner-product")


class DomainError(ValueError):
    """Raised when an analytic curve is evaluated outside its domain."""


class _CumulativeNormStop:
    """One running total per row of a stack; keep(mask) drops the other rows."""

    def __init__(self, rows: int, threshold: float):
        self.threshold, self.total = threshold, np.zeros(rows)

    def observe(self, t, grad, minibatch_grad, x) -> np.ndarray:
        self.total += np.sqrt(rowdot(grad, grad))
        return self.total / (t + 1) < self.threshold

    def keep(self, rows: np.ndarray) -> None:
        self.total = self.total[rows]


class _InnerProductStop(_CumulativeNormStop):
    def __init__(self, rows: int, threshold: float, reference_point: np.ndarray):
        super().__init__(rows, threshold)
        self.ref = reference_point

    def observe(self, t, grad, minibatch_grad, x) -> np.ndarray:
        self.total += rowdot(x - self.ref, grad)
        return self.total / (t + 1) <= self.threshold


@dataclass(frozen=True)
class StopRule:
    """Epsilon-approximation rule evaluated each step on exact full
    gradients, never on the minibatch ones.

    cumulative-grad-norm: stop at the first t where the mean of
    ||grad f(x_s)|| over s <= t is strictly below epsilon.

    inner-product: stop once the running mean of <x_s - ref, grad f(x_s)>
    is at most epsilon^2; requires a reference point.
    """

    epsilon: float
    kind: str = "cumulative-grad-norm"
    reference_point: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.kind not in STOP_KINDS:
            raise ValueError(f"stop kind must be one of {STOP_KINDS}, got {self.kind!r}")
        if self.kind == "inner-product":
            if self.reference_point is None:
                raise ValueError("inner-product stop rule requires a reference point")
            object.__setattr__(self, "reference_point",
                               np.asarray(self.reference_point, dtype=float))

    def start(self, rows: int):
        """The accumulator of `rows` cells stepped together: observe(t, grad,
        minibatch_grad, x) takes the live rows' (rows, dim) stacks at step t
        and returns the mask of rows that stop; keep(mask) drops rows."""
        if self.kind == "cumulative-grad-norm":
            return _CumulativeNormStop(rows, self.epsilon)
        return _InnerProductStop(rows, self.epsilon * self.epsilon, self.reference_point)


@dataclass(frozen=True)
class SweepRow:
    b: int
    seed: int
    steps_T: int
    sfo: int
    exit_reason: str


@dataclass(frozen=True)
class BatchStats:
    b: int
    mean_steps: float
    mean_sfo: float
    converged_fraction: float


@dataclass(frozen=True)
class SweepSummary:
    rows: tuple
    per_batch: tuple
    epsilon: float

    def converged_batches(self) -> list:
        return [s for s in self.per_batch if s.converged_fraction == 1.0]


def _row(b: int, seed: int, trace: Trace) -> SweepRow:
    return SweepRow(b=b, seed=seed, steps_T=trace.steps, sfo=trace.steps * b,
                    exit_reason=trace.exit_reason)


def steps_to_epsilon(spec: Objective, config: OptimizerConfig, stop: StopRule,
                     cap: int, rng: RngStream, x0=None, seed: int = 0) -> SweepRow:
    """One sweep cell run alone: until the stop rule fires (exit converged,
    T = first firing step) or the cap is reached (exit step-cap). Each row
    of run_sweep equals this cell on master.child(b, seed), bit for bit."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    trace = run(spec, config, x0=x0, stop=stop, max_steps=cap, rng=rng, record=False)
    return _row(config.batch_size, seed, trace)


def _whole(value, what: str) -> int:
    if not float(value).is_integer():
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def run_sweep(spec: Objective, config_template: OptimizerConfig,
              batch_grid: Sequence[int], seeds, stop: StopRule, cap: int,
              x0=None, master_seed: int = 0) -> SweepSummary:
    """Per-(b, seed) step counts and SFO costs, aggregated per batch size.

    `seeds` is a count, any whole-number scalar (seed ids 0..seeds-1), or
    a list of distinct ids. Every (b, seed) cell steps in one `simulate`
    stack, in (b, seed) order, each batch size's rows drawn in one call. A
    cell draws only from RngStream(master_seed).child(b, seed), and every
    operation of the stack is row-wise, so a row equals steps_to_epsilon on
    that stream and does not depend on which other cells the sweep runs.
    """
    grid = [_whole(b, "batch size") for b in batch_grid]
    if not grid:
        raise ValueError("batch_grid must be non-empty")
    if any(b < 1 for b in grid):
        raise ValueError("batch sizes must be >= 1")
    if sorted(set(grid)) != grid:
        raise ValueError("batch_grid must be strictly ascending")
    seed_ids = (list(range(_whole(seeds, "seed count"))) if np.ndim(seeds) == 0
                else sorted(_whole(s, "seed id") for s in seeds))
    if not seed_ids:
        raise ValueError("need at least one seed")
    repeated = [s for s, nxt in zip(seed_ids, seed_ids[1:]) if s == nxt]
    if repeated:
        raise ValueError(f"seed id {repeated[0]} is repeated")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")

    master, cells = RngStream(master_seed), [(b, s) for b in grid for s in seed_ids]
    traces = simulate(spec, [replace(config_template, batch_size=b) for b, _ in cells],
                      [master.child(b, s) for b, s in cells], x0, stop, cap, record=False)
    rows = [_row(b, s, trace) for (b, s), trace in zip(cells, traces)]
    per_batch = []
    for i, b in enumerate(grid):
        batch_rows = rows[i * len(seed_ids):(i + 1) * len(seed_ids)]
        per_batch.append(BatchStats(
            b=b,
            mean_steps=float(np.mean([r.steps_T for r in batch_rows])),
            mean_sfo=float(np.mean([r.sfo for r in batch_rows])),
            converged_fraction=float(np.mean(
                [1.0 if r.exit_reason == "converged" else 0.0 for r in batch_rows])),
        ))
    return SweepSummary(rows=tuple(rows), per_batch=tuple(per_batch),
                        epsilon=stop.epsilon)


def empirical_critical_batch(summary: SweepSummary) -> int:
    """Grid batch size minimizing mean SFO over fully converged grid points;
    ties break toward the smaller b."""
    candidates = summary.converged_batches()
    if not candidates:
        raise ValueError("no fully converged grid point; cannot take the SFO argmin")
    best = min(candidates, key=lambda s: (s.mean_sfo, s.b))
    return best.b


@dataclass(frozen=True)
class AnalyticCurveParams:
    """Coefficients of the bound X/T + Y/b + Z <= eps^2 rearranged into the
    step and SFO curves. The curves exist only for eps^2 > Z and
    b > Y / (eps^2 - Z)."""

    X: float
    Y: float
    Z: float
    epsilon_sq: float
    notes: tuple = ()

    def pole(self) -> float:
        if self.epsilon_sq <= self.Z:
            raise DomainError(
                f"epsilon_sq={self.epsilon_sq} must exceed Z={self.Z}; "
                "no batch size reaches the threshold under this bound")
        return self.Y / (self.epsilon_sq - self.Z)


def analytic_T(params: AnalyticCurveParams, b: float) -> float:
    """X b / ((eps^2 - Z) b - Y); decreasing and convex past the pole."""
    denom = (params.epsilon_sq - params.Z) * b - params.Y
    if params.epsilon_sq <= params.Z or denom <= 0:
        raise DomainError(
            f"b={b} is at or below the curve's pole; need b > {params.Y} / "
            f"(epsilon_sq - Z) = {params.Y / max(params.epsilon_sq - params.Z, 1e-300):.6g}")
    return params.X * b / denom


def analytic_sfo(params: AnalyticCurveParams, b: float) -> float:
    """X b^2 / ((eps^2 - Z) b - Y); convex with minimizer 2Y/(eps^2 - Z)."""
    return analytic_T(params, b) * b


def analytic_critical_batch(params: AnalyticCurveParams) -> float:
    """2 Y / (eps^2 - Z), the unique minimizer of the SFO curve."""
    if params.epsilon_sq <= params.Z:
        raise DomainError(
            f"epsilon_sq={params.epsilon_sq} <= Z={params.Z}: "
            "the SFO curve has no finite minimizer")
    return 2.0 * params.Y / (params.epsilon_sq - params.Z)


def variance_upper_bound(b_star: float, epsilon: float, eta: float) -> float:
    """b* eps^2 / eta, the back-estimated upper bound on the stochastic
    gradient variance C^2 given a measured critical batch size."""
    if b_star <= 0 or epsilon <= 0 or eta <= 0:
        raise ValueError("b_star, epsilon and eta must all be positive")
    return b_star * epsilon * epsilon / eta


def resolve_constants(spec: Objective, traces: Sequence[Trace], x_ref, beta: float) -> tuple:
    """(C^2, K^2, D, notes) of the bound. C^2 and K^2 come from the objective
    when known, otherwise from the traces (C^2-hat: mean of b *
    ||minibatch deviation||^2; K^2-hat: max ||grad f(x_t)||^2); D-hat, max
    ||x_t - x_ref||, is measured only when beta > 0 and is 0.0 otherwise.
    The notes name each source, worded for one trace or for an ensemble."""
    consts, notes = spec.constants(), []
    one = len(traces) == 1
    if consts.variance is not None:
        c_sq = consts.variance
        notes.append("C^2: configured")
    elif traces:
        dev = np.concatenate([rowdot(d, d) for d in (t.minibatch_grad - t.grad for t in traces)])
        c_sq = float(np.mean(dev) * traces[0].config.batch_size)
        notes.append("C^2: trace-estimated" if one else "C^2: ensemble-estimated")
    else:
        raise ValueError("variance C^2 unknown and no trace to estimate it from")
    if consts.grad_sq_bound is not None:
        k_sq = consts.grad_sq_bound
        notes.append("K^2: configured")
    elif traces:
        k_sq = max(float(np.max(rowdot(t.grad, t.grad))) for t in traces)
        notes.append("K^2: trace-estimated" if one else "K^2: ensemble max of ||grad||^2")
    else:
        raise ValueError("gradient bound K^2 unknown and no trace to estimate it from")
    d_hat = 0.0
    if beta > 0.0:
        if not traces:
            raise ValueError("momentum term needs a trace to estimate D = max ||x_t - x_ref||")
        d_hat = max(float(np.max(np.sqrt(rowdot(d, d)))) for d in (t.xs() - x_ref for t in traces))
        notes.append(f"D: trace-estimated ({d_hat:.6g})" if one
                     else f"D: ensemble max ||x_t - x_ref|| = {d_hat:.6g}")
    return c_sq, k_sq, d_hat, notes


def xyz_from_setup(spec: Objective, config: OptimizerConfig, x_ref,
                   trace: Optional[Trace] = None, epsilon: float = 1.0,
                   x0=None) -> AnalyticCurveParams:
    """Assemble (X, Y, Z) for a concrete setup.

    X = ||x0 - x_ref||^2 / (2 eta); Y = eta C^2 / 2; Z = eta K^2 / 2, plus
    beta * D * sqrt(C^2) when momentum is on, with the constants and their
    notes from resolve_constants on the trace.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    eta, beta = config.effective_eta_beta()
    x_ref = np.asarray(x_ref, dtype=float)
    notes = []

    if x0 is not None:
        x_start = np.asarray(x0, dtype=float)
    elif trace is not None and trace.x_snapshot is not None:
        x_start = trace.x_snapshot[0]
    else:
        x_start = spec.default_start()
        notes.append("x0: objective default start")
    d0 = x_start - x_ref
    X = float(rowdot(d0, d0)) / (2.0 * eta)

    c_sq, k_sq, d_hat, more = resolve_constants(spec, [] if trace is None else [trace],
                                              x_ref, beta)
    Z = eta * k_sq / 2.0 + beta * d_hat * math.sqrt(c_sq)
    return AnalyticCurveParams(X=X, Y=eta * c_sq / 2.0, Z=Z,
                               epsilon_sq=epsilon * epsilon, notes=tuple(notes + more))
