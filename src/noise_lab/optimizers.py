"""SGD and the two heavy-ball momentum variants, with a shared-noise run loop.

Updates (g is the minibatch gradient at x_t, buffers start at zero):

  sgd    x <- x - eta * g
  nshb   d <- (1 - beta) * g + beta * d;   x <- x - eta * d
  shb    m <- g + beta_bar * m;            x <- x - gamma * m

shb(gamma, beta_bar) traces the same iterates as nshb(eta, beta) under
eta = gamma / (1 - beta_bar), beta = beta_bar, because m_t = d_t / (1 - beta).

One engine, `simulate`, advances R independent cells, each at its own
batch size, in lockstep on (R, dim) arrays, and tests their stop rule and
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
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .problems import CellDraws, Objective, RngStream
from .reporting import json_number, json_numbers

ALGOS = ("sgd", "nshb", "shb")

# any coordinate beyond this magnitude terminates a run as diverged
DIVERGENCE_LIMIT = 1e30


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
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if not 0.0 <= self.beta_bar < 1.0:
            raise ValueError(f"beta_bar must be in [0, 1), got {self.beta_bar}")
        if self.algo in ("sgd", "nshb"):
            if self.eta is None or self.eta <= 0:
                raise ValueError(f"{self.algo} needs eta > 0, got {self.eta}")
        else:
            if self.gamma is None or self.gamma <= 0:
                raise ValueError(f"shb needs gamma > 0, got {self.gamma}")

    def effective_eta_beta(self) -> tuple[float, float]:
        """The nshb-equivalent (eta, beta) pair for any algorithm."""
        if self.algo == "sgd":
            return float(self.eta), 0.0
        if self.algo == "nshb":
            return float(self.eta), float(self.beta)
        return map_shb_to_nshb(float(self.gamma), float(self.beta_bar))


@dataclass
class OptimizerState:
    """Iterate plus momentum buffer (d for nshb, m for shb); buffers are the
    zero vector at t = 0."""

    x: np.ndarray
    momentum: np.ndarray
    t: int = 0

    @classmethod
    def initial(cls, x0) -> "OptimizerState":
        x0 = np.asarray(x0, dtype=float).copy()
        return cls(x=x0, momentum=np.zeros_like(x0), t=0)


def _sgd(state: OptimizerState, g: np.ndarray, eta: float) -> None:
    state.x = state.x - eta * g


def _nshb(state: OptimizerState, g: np.ndarray, eta: float, beta: float) -> None:
    state.momentum = (1.0 - beta) * g + beta * state.momentum
    state.x = state.x - eta * state.momentum


def _shb(state: OptimizerState, g: np.ndarray, gamma: float, beta_bar: float) -> None:
    state.momentum = g + beta_bar * state.momentum
    state.x = state.x - gamma * state.momentum


def _checked_step(update, state: OptimizerState, g, *args) -> OptimizerState:
    """update, for a direct caller: a g that is not finite raises FloatingPointError."""
    g = np.asarray(g, dtype=float)
    # a NaN or infinite entry makes the max NaN or inf; an empty g passes
    if not np.maximum.reduce(np.abs(g), axis=None, initial=0.0) < np.inf:
        raise FloatingPointError("non-finite gradient passed to optimizer step")
    update(state, g, *args)
    state.t += 1
    return state


def sgd_step(state: OptimizerState, g, eta: float) -> OptimizerState:
    """x <- x - eta * g."""
    return _checked_step(_sgd, state, g, eta)


def nshb_step(state: OptimizerState, g, eta: float, beta: float) -> OptimizerState:
    """d <- (1 - beta) g + beta d;  x <- x - eta * d."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    return _checked_step(_nshb, state, g, eta, beta)


def shb_step(state: OptimizerState, g, gamma: float, beta_bar: float) -> OptimizerState:
    """m <- g + beta_bar m;  x <- x - gamma * m."""
    if not 0.0 <= beta_bar < 1.0:
        raise ValueError(f"beta_bar must be in [0, 1), got {beta_bar}")
    return _checked_step(_shb, state, g, gamma, beta_bar)


def map_shb_to_nshb(gamma: float, beta_bar: float) -> tuple[float, float]:
    """(gamma, beta_bar) -> (eta, beta) = (gamma / (1 - beta_bar), beta_bar)."""
    if not 0.0 <= beta_bar < 1.0:
        raise ValueError(f"beta_bar must be in [0, 1), got {beta_bar}")
    return gamma / (1.0 - beta_bar), beta_bar


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


def simulate(spec: Objective, config: OptimizerConfig, streams: Sequence[RngStream],
             x0=None, stop=None, max_steps: int = 1000, record: bool = True,
             batch_sizes: Optional[Sequence[int]] = None) -> list:
    """Advance one cell per stream in lockstep on (R, dim) arrays, all from
    x0; returns one Trace per stream, in order, each with its step columns
    when record is true (max_steps rows allocated up front, or under a stop
    rule 1,024 rows doubled as steps are taken).

    Row r steps at batch size batch_sizes[r] (default config.batch_size;
    equal sizes contiguous), which its Trace.config carries. Each cell runs
    as if alone: every step draws from the one generator streams[r].generator()
    built before its first step, one draw call per batch size, the update
    cores above step the whole stack, and a cell leaves the stack once it
    diverges or the accumulator from stop.start(R) stops it (see
    sweep.StopRule)."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    x = np.asarray(x0, dtype=float).copy() if x0 is not None else spec.default_start()
    if x.shape != (spec.dim,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({spec.dim},)")
    cells = len(streams)
    sizes = [config.batch_size] * cells if batch_sizes is None else list(batch_sizes)
    runs = [(b, len(list(same))) for b, same in itertools.groupby(sizes)]
    if len(sizes) != cells or len({b for b, _ in runs}) < len(runs):
        raise ValueError(f"need one batch size per stream, equal sizes contiguous: {sizes}")
    gens = iter([s.generator() for s in streams])
    groups = _slices([(b, CellDraws(list(itertools.islice(gens, n)))) for b, n in runs])
    configs = {b: replace(config, batch_size=b) for b, _ in runs}
    state = OptimizerState.initial(np.tile(x, (cells, 1)))
    acc = stop.start(cells) if stop is not None else None
    names = ("grad", "search_direction", "minibatch_grad", "x_snapshot") if record else ()
    held = max_steps if stop is None else min(max_steps, 1024)     # rows each column holds
    cols = {n: np.empty((cells, held, spec.dim)) for n in names}

    # per-step constants, looked up once per call
    update, update_args, momentum = {              # momentum: the update follows the buffer
        "sgd": (_sgd, (config.eta,), False),
        "nshb": (_nshb, (config.eta, config.beta), True),
        "shb": (_shb, (config.gamma, config.beta_bar), True)}[config.algo]
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
        update(state, gb, *update_args)
        # one test of the whole stack, row by row only when it fails; a NaN or infinite
        # coordinate fails it too, as does a row whose minibatch gradient is not finite:
        # that row has no next iterate, so its iterate and buffer become NaN
        in_range = np.maximum.reduce(np.abs(state.x), axis=None, initial=0.0) <= DIVERGENCE_LIMIT
        if not in_range:
            no_step = ~(np.maximum.reduce(np.abs(gb), axis=1) < np.inf)
            state.x[no_step] = state.momentum[no_step] = np.nan
        direction = state.momentum if momentum else gb

        if record:
            if t == held:
                held = min(2 * held, max_steps)
                cols = {n: np.concatenate((c, np.empty((cells, held - t, spec.dim))), axis=1)
                        for n, c in cols.items()}
            rows = slice(None) if live.size == cells else live    # a slice writes faster
            cols["grad"][rows, t] = g
            cols["search_direction"][rows, t] = direction
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
        if acc is not None:
            acc.keep(keep)
        for _, d, s in groups:
            d.keep(keep[s])
        groups = _slices([(b, d) for b, d, _ in groups if d.gens])
    x_final[live] = state.x

    return [Trace(exit_reason=exit_reason[c], steps=int(steps[c]), config=configs[sizes[c]],
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
    return simulate(spec, config, [rng], x0=x0, stop=stop, max_steps=max_steps, record=record)[0]
