"""SGD and the two heavy-ball momentum variants, with a shared-noise run loop.

All three algorithms are one update of the iterate x and a buffer m, the
zero vector at t = 0, with g the minibatch gradient at x_t and
(p, q, a) = config.coefficients():

  m <- p * g + q * m;   x <- x - a * m

  algo   p          q          a
  sgd    1          0          eta
  nshb   1 - beta   beta       eta
  shb    1          beta_bar   gamma

m is the search direction, g for sgd, d_t for nshb and m_t for shb.
shb(gamma, beta_bar) traces the same iterates as nshb(eta, beta) under
eta = gamma / (1 - beta_bar), beta = beta_bar, because m_t = d_t / (1 - beta).

One engine, `simulate`, advances R independent cells, each under its own
config, in lockstep on (R, dim) arrays, and tests their stop rule and
divergence over the whole stack; `run` is its one-cell case. Each cell
draws one minibatch a step, around the exact gradient the step holds, from
the one generator its RngStream gives, and every algorithm draws alike, so
algorithms driven by the same RngStream see identical noise: cross-algorithm
comparisons are exact rather than statistical, and a cell's iterates do not
depend on which other cells share its stack.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .problems import CellDraws, Objective, RngStream
from .reporting import json_number, json_numbers

ALGOS = ("sgd", "nshb", "shb")

# any coordinate beyond this magnitude terminates a run as diverged
DIVERGENCE_LIMIT = 1e30


def _checked_momentum(value: float, name: str) -> float:
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {value}")
    return value


@dataclass(frozen=True)
class OptimizerConfig:
    algo: str
    batch_size: int = 1
    eta: Optional[float] = None        # sgd / nshb learning rate
    beta: float = 0.0                  # nshb momentum, in [0, 1)
    gamma: Optional[float] = None      # shb learning rate
    beta_bar: float = 0.0              # shb momentum, in [0, 1)

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ValueError(f"algo must be one of {ALGOS}, got {self.algo!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        _checked_momentum(self.beta, "beta")
        _checked_momentum(self.beta_bar, "beta_bar")
        rate, name = (self.gamma, "gamma") if self.algo == "shb" else (self.eta, "eta")
        if rate is None or rate <= 0:
            raise ValueError(f"{self.algo} needs {name} > 0, got {rate}")

    def coefficients(self) -> tuple[float, float, float]:
        """(p, q, a) of the update m <- p g + q m;  x <- x - a m."""
        return {"sgd": (1.0, 0.0, self.eta), "nshb": (1.0 - self.beta, self.beta, self.eta),
                "shb": (1.0, self.beta_bar, self.gamma)}[self.algo]

    def effective_eta_beta(self) -> tuple[float, float]:
        """The nshb-equivalent (eta, beta) pair for any algorithm."""
        _, q, a = map(float, self.coefficients())
        return map_shb_to_nshb(a, q) if self.algo == "shb" else (a, q)


@dataclass
class OptimizerState:
    """Iterate x and buffer m, the search direction, zero at t = 0."""

    x: np.ndarray
    momentum: np.ndarray
    t: int = 0

    @classmethod
    def initial(cls, x0) -> "OptimizerState":
        x0 = np.asarray(x0, dtype=float).copy()
        return cls(x=x0, momentum=np.zeros_like(x0), t=0)


def _update(state: OptimizerState, g: np.ndarray, p, q, a) -> None:
    """m <- p g + q m, the buffer updated in place;  x <- x - a m."""
    state.momentum *= q
    state.momentum += p * g
    state.x = state.x - a * state.momentum


def _checked_step(state: OptimizerState, g, p: float, q: float, a: float) -> OptimizerState:
    """_update, for a direct caller: a g that is not finite raises FloatingPointError,
    and the buffer is updated in a copy, so no array the caller holds is written."""
    g = np.asarray(g, dtype=float)
    # a NaN or infinite entry makes the max NaN or inf; an empty g passes
    if not np.maximum.reduce(np.abs(g), axis=None, initial=0.0) < np.inf:
        raise FloatingPointError("non-finite gradient passed to optimizer step")
    state.momentum = np.array(state.momentum, dtype=float)
    _update(state, g, p, q, a)
    state.t += 1
    return state


def sgd_step(state: OptimizerState, g, eta: float) -> OptimizerState:
    """x <- x - eta * g."""
    return _checked_step(state, g, 1.0, 0.0, eta)


def nshb_step(state: OptimizerState, g, eta: float, beta: float) -> OptimizerState:
    """d <- (1 - beta) g + beta d;  x <- x - eta * d."""
    return _checked_step(state, g, 1.0 - _checked_momentum(beta, "beta"), beta, eta)


def shb_step(state: OptimizerState, g, gamma: float, beta_bar: float) -> OptimizerState:
    """m <- g + beta_bar m;  x <- x - gamma * m."""
    return _checked_step(state, g, 1.0, _checked_momentum(beta_bar, "beta_bar"), gamma)


def map_shb_to_nshb(gamma: float, beta_bar: float) -> tuple[float, float]:
    """(gamma, beta_bar) -> (eta, beta) = (gamma / (1 - beta_bar), beta_bar)."""
    return gamma / (1.0 - _checked_momentum(beta_bar, "beta_bar")), beta_bar


@dataclass(frozen=True)
class TraceRecord:
    """Per-step observables. `grad` is always the exact oracle gradient at
    x_t, never the minibatch estimate; `search_direction` is what the
    update actually followed (g, d_t, or m_t)."""

    t: int
    f_value: Optional[float]
    grad: np.ndarray
    search_direction: np.ndarray
    minibatch_grad: np.ndarray
    x_snapshot: Optional[np.ndarray] = None
    dist_to_ref: Optional[float] = None

    def as_dict(self) -> dict:
        # JSON has no NaN or infinity: an overflowed or unrecorded value is written as null
        def number(v):
            return None if v is None else json_number(float(v))
        out = {"t": self.t, "f_value": number(self.f_value)}
        for name in ("grad", "search_direction", "minibatch_grad", "x_snapshot"):
            v = getattr(self, name)
            out[name] = None if v is None else json_numbers(np.asarray(v, dtype=float).tolist())
        out["dist_to_ref"] = number(self.dist_to_ref)
        return out


@dataclass
class Trace:
    """One cell's run as a struct of arrays: each TraceRecord field but t is
    a column that holds one row per recorded step (vectors as [steps, dim]),
    or is None when it was not recorded. A recorded run fills the four
    columns a step makes (grad, search_direction, minibatch_grad and
    x_snapshot); f_value and dist_to_ref are left to the caller, which can
    derive them from x_snapshot in one stacked call."""

    exit_reason: str          # "converged" | "step-cap" | "diverged"
    steps: int
    config: OptimizerConfig
    x_final: np.ndarray
    f_value: Optional[np.ndarray] = None
    grad: Optional[np.ndarray] = None
    search_direction: Optional[np.ndarray] = None
    minibatch_grad: Optional[np.ndarray] = None
    x_snapshot: Optional[np.ndarray] = None
    dist_to_ref: Optional[np.ndarray] = None

    @property
    def records(self) -> list:
        """The recorded steps as TraceRecords, or [] when nothing was recorded."""
        if self.grad is None:
            return []
        cols = {f.name: getattr(self, f.name) for f in fields(TraceRecord) if f.name != "t"}
        return [TraceRecord(t=t, **{k: None if c is None else c[t] for k, c in cols.items()})
                for t in range(self.steps)]

    def xs(self) -> np.ndarray:
        if self.x_snapshot is None:
            raise ValueError("trace was recorded without x snapshots")
        return self.x_snapshot


def _slices(groups: list) -> list:
    """(b, draws) pairs of consecutive rows, each with the slice of the stack it spans."""
    ends = itertools.accumulate(len(d.gens) for _, d in groups)
    return [(b, d, slice(hi - len(d.gens), hi)) for (b, d), hi in zip(groups, ends)]


def simulate(spec: Objective, configs: Sequence[OptimizerConfig], streams: Sequence[RngStream],
             x0=None, stop=None, max_steps: int = 1000, record: bool = True) -> list:
    """Advance one cell per stream in lockstep on (R, dim) arrays, all from
    x0; returns one Trace per stream, in order, each with its step columns
    when record is true (max_steps rows allocated up front, or under a stop
    rule 1,024 rows doubled as steps are taken).

    Row r runs configs[r], its Trace.config: its batch size (equal sizes
    contiguous) and its coefficients, so a stack may mix algorithms. Each
    cell runs as if alone: every step draws from the one generator
    streams[r].generator() built before its first step, one draw call per
    batch size, and a cell leaves the stack once it diverges or the
    accumulator from stop.start(R) stops it (see sweep.StopRule)."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    x = np.asarray(x0, dtype=float).copy() if x0 is not None else spec.default_start()
    if x.shape != (spec.dim,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({spec.dim},)")
    cells, sizes = len(streams), [c.batch_size for c in configs]
    runs = [(b, len(list(same))) for b, same in itertools.groupby(sizes)]
    if len(sizes) != cells or len({b for b, _ in runs}) < len(runs):
        raise ValueError(f"need one config per stream, equal batch sizes contiguous: {sizes}")
    gens = iter([s.generator() for s in streams])
    groups = _slices([(b, CellDraws(list(itertools.islice(gens, n)))) for b, n in runs])
    # one set of coefficients as floats, or per-row (R, 1) columns when rows differ
    coefs = np.array([c.coefficients() for c in configs]).reshape(cells, 3)
    shared = cells > 0 and bool((coefs == coefs[0]).all())
    p, q, a = coefs[0].tolist() if shared else coefs.T[:, :, None]
    state = OptimizerState.initial(np.tile(x, (cells, 1)))
    acc = stop.start(cells) if stop is not None else None
    names = ("grad", "search_direction", "minibatch_grad", "x_snapshot") if record else ()
    held = max_steps if stop is None else min(max_steps, 1024)     # rows each column holds
    cols = {n: np.empty((cells, held, spec.dim)) for n in names}

    grad, draw = spec.grad, spec.minibatch_grad_ensemble
    live = np.arange(cells)               # cell id of each row of the stacked state
    steps = np.full(cells, max_steps)
    exit_reason = np.full(cells, "step-cap", dtype=object)
    x_final = np.empty((cells, spec.dim))
    for t in range(max_steps):
        if not live.size:         # every cell has ended, or there was none
            break
        x_t = state.x
        g = grad(x_t)
        gb = (draw(x_t, *groups[0][:2], g) if len(groups) == 1 else
              np.concatenate([draw(x_t[s], b, d, g[s]) for b, d, s in groups]))
        _update(state, gb, p, q, a)
        # one test of the whole stack, row by row only when it fails; a NaN or infinite
        # coordinate fails it too, as does a row whose minibatch gradient is not finite:
        # that row has no next iterate, so its iterate and buffer become NaN
        in_range = np.maximum.reduce(np.abs(state.x), axis=None, initial=0.0) <= DIVERGENCE_LIMIT
        if not in_range:
            no_step = ~(np.maximum.reduce(np.abs(gb), axis=1) < np.inf)
            state.x[no_step] = state.momentum[no_step] = np.nan

        if record:
            if t == held:
                held = min(2 * held, max_steps)
                cols = {n: np.concatenate((c, np.empty((cells, held - t, spec.dim))), axis=1)
                        for n, c in cols.items()}
            rows = slice(None) if live.size == cells else live    # a slice writes faster
            cols["grad"][rows, t] = g
            cols["search_direction"][rows, t] = state.momentum
            cols["minibatch_grad"][rows, t] = gb
            cols["x_snapshot"][rows, t] = x_t

        if in_range:
            if acc is None:
                continue
            done = acc.observe(t, g, gb, x_t)
            if not done.any():
                continue
            diverged = np.zeros(live.size, dtype=bool)
        else:
            diverged = ~(np.maximum.reduce(np.abs(state.x), axis=1) <= DIVERGENCE_LIMIT)
            done = diverged if acc is None else diverged | acc.observe(t, g, gb, x_t)
        steps[live[done]] = t + 1
        exit_reason[live[done]] = np.where(diverged[done], "diverged", "converged")
        x_final[live[done]] = state.x[done]
        keep = ~done
        live, state.x, state.momentum = live[keep], state.x[keep], state.momentum[keep]
        if not shared:
            p, q, a = p[keep], q[keep], a[keep]
        if acc is not None:
            acc.keep(keep)
        for _, d, s in groups:
            d.keep(keep[s])
        groups = _slices([(b, d) for b, d, _ in groups if d.gens])
    x_final[live] = state.x

    return [Trace(exit_reason=exit_reason[c], steps=int(steps[c]), config=configs[c],
                  x_final=x_final[c], **{name: col[c, :steps[c]] for name, col in cols.items()})
            for c in range(cells)]


def run(spec: Objective, config: OptimizerConfig, x0=None, stop=None, max_steps: int = 1000,
        *, rng: RngStream, record: bool = True) -> Trace:
    """Drive the configured algorithm against the objective's minibatch
    oracle until the stop rule fires, the step cap is reached, or the
    iterate diverges: the one-cell case of `simulate`.

    Every minibatch comes from one generator, rng.generator(), step after
    step, so runs sharing an RngStream share noise draw-for-draw.
    """
    return simulate(spec, [config], [rng], x0=x0, stop=stop, max_steps=max_steps, record=record)[0]
