"""Synthetic stochastic objectives with analytically known noise constants.

Every objective exposes three oracles:

  * the exact value f(x) and exact full gradient (value, grad), each
    written once per kind for a point (dim,) or a stack of points (m, dim),
  * a single stochastic gradient draw G(x), the b = 1 minibatch, that is
    unbiased, E[G(x)] = grad f(x), with deviation second moment
    E||G - grad f||^2 equal to a configured constant C^2 (additive-noise
    kinds) or bounded by the data (finite-sum kind),
  * a minibatch gradient: the mean of b iid draws with replacement, whose
    deviation second moment is C^2 / b; minibatch_grad_means averages b
    explicit draws, while a step (minibatch_grad_ensemble) of an additive
    kind draws that mean directly, exact in law (see RNG_CONTRACT).

Kinds:

  noisy-quadratic            f(x) = 0.5 * sum_j a_j x_j^2, additive noise
  constant-gradient          f(x) = <c, x>, additive noise
  finite-sum-least-squares   f(x) = (1/n) sum_i 0.5 (a_i.x - y_i)^2,
                             stochastic gradient = grad f_i at uniform i
  nonconvex-sine-bowl        f(x) = 0.5||x||^2 + a * sum_j sin(w x_j),
                             additive noise

Additive noise is isotropic Gaussian with per-coordinate variance
C^2 / dim, so the total deviation second moment is exactly C^2 and the
1/b minibatch scaling is an equality rather than a bound.

All randomness flows through caller-supplied RngStream values or the
generators built from them: a stepped cell takes every draw from one
generator of its stream, through its stack's CellDraws and around the
rows' exact gradients. The objectives themselves are immutable and safe
to share across runs.
"""

from __future__ import annotations

import functools
import math
import operator
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# most scalars one block of Monte-Carlo draws holds: 1 MB of float64, the
# explicit draws of one b = 4096 minibatch mean at dim 16 held twice
_CHUNK_SCALARS = 1 << 17
# most steps of normals one refill of a CellDraws tape draws per row
_TAPE_STEPS = 64
# stream contract in every report: 3 draws all of a cell's steps from one generator
RNG_CONTRACT = 3


def rowdot(a, b) -> np.ndarray:
    """Sum over the last axis of a * b, the product laid out in C order: a
    row's sum has the same bits alone or stacked, and no BLAS kernel (none
    is called) changes them. Every dot product and norm that is written to
    an artifact or steers a trajectory goes through here."""
    return np.add.reduce(np.multiply(a, b, order="C"), axis=-1)


def _label_to_int(label) -> int:
    if isinstance(label, str):
        return zlib.crc32(label.encode("utf-8"))
    value = int(label)
    if value < 0:
        raise ValueError(f"rng path labels must be non-negative, got {label!r}")
    return value


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable source of randomness.

    Two streams with identical (master_seed, path) produce identical
    sample sequences; streams with distinct paths are statistically
    independent. `generator()` always restarts from the stream's origin,
    so a stream value denotes a reproducible sequence, not a cursor. Its
    bits are those of np.random.default_rng(np.random.SeedSequence(
    master_seed, spawn_key=path)).
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if operator.index(self.master_seed) < 0:
            raise ValueError(f"seeds must be non-negative, got {self.master_seed}")
        object.__setattr__(self, "path", tuple(map(_label_to_int, self.path)))

    def child(self, *labels) -> "RngStream":
        """Derive an independent substream; labels are ints or strings."""
        return RngStream(self.master_seed, self.path + labels)

    def generator(self) -> np.random.Generator:
        """A new generator at the start of this stream's sequence."""
        return np.random.default_rng(np.random.SeedSequence(self.master_seed, spawn_key=self.path))


class CellDraws:
    """The draws of a stack of cells, row r from its own generator gens[r].

    Its standard normals are read from a tape of each row's next K steps:
    K <= _TAPE_STEPS, and at most _CHUNK_SCALARS scalars in all (no tape
    when one step holds more). numpy fills standard_normal((K, dim)) as K
    calls of standard_normal(dim), so no K changes a bit. The finite sum
    draws its indices from gens directly: `integers` buffers 32-bit halves
    within one call, so a tape would tie its bits to K.
    """

    def __init__(self, gens: Sequence[np.random.Generator]):
        self.gens = list(gens)
        self._tape, self._next = np.empty((len(self.gens), 0, 0)), 0

    def standard_normal(self, shape: tuple, scale: float = 1.0, b: int = 1) -> np.ndarray:
        """The next standard normals z of shape (rows, dim), row r from gens[r],
        or with a scale and a batch size the step noise (scale * z) / sqrt(b):
        a tape is scaled once, as it is drawn, so every call on one CellDraws
        passes the same scale and b."""
        if self._next == self._tape.shape[1]:
            rows, dim = shape
            k = min(_TAPE_STEPS, _CHUNK_SCALARS // max(1, rows * dim))
            block = np.empty((rows, max(k, 1), dim))
            for gen, row in zip(self.gens, block):
                gen.standard_normal(out=row)
            block *= scale
            block /= math.sqrt(b)
            if k == 0:
                return block[:, 0]
            self._tape, self._next = block, 0
        self._next += 1
        return self._tape[:, self._next - 1]

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the rows where the boolean mask `rows` is set."""
        self.gens = [gen for gen, k in zip(self.gens, rows) if k]
        self._tape = self._tape[rows]


@dataclass(frozen=True)
class KnownConstants:
    """Analytic constants of an objective; None marks values that must be
    estimated empirically from a trace."""

    variance: Optional[float] = None        # C^2, deviation second moment
    grad_sq_bound: Optional[float] = None   # K^2, sup_t E||grad f(x_t)||^2
    lipschitz: Optional[float] = None       # L_f, global Lipschitz constant of f
    sample_count: Optional[int] = None      # n, finite-sum size


class Objective:
    """Base oracle. Subclasses implement the deterministic part; the
    stochastic layer lives here."""

    kind: str = ""

    def __init__(self, dim: int, variance: float = 0.0, x0: Optional[Sequence[float]] = None):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if variance < 0:
            raise ValueError(f"variance must be >= 0, got {variance}")
        self.dim = int(dim)
        self.variance = float(variance)
        self._x0 = np.full(self.dim, 1.0) if x0 is None else _finite(x0, "x0").copy()
        if self._x0.shape != (self.dim,):
            raise ValueError(f"x0 has shape {self._x0.shape}, expected ({self.dim},)")

    # -- deterministic oracle -------------------------------------------------

    def value(self, x):
        """f at a point (dim,), a float, or at each row of a stack (m, dim), shape (m,).
        Every sum runs through rowdot, so a row has the same bits alone or stacked."""
        raise NotImplementedError

    def grad(self, x):
        """The exact gradient at a point (dim,), or at each row of a stack, (m, dim)."""
        raise NotImplementedError

    def constants(self) -> KnownConstants:
        return KnownConstants()

    def minimizer(self) -> Optional[np.ndarray]:
        return None

    def lipschitz_on_box(self, radius: float) -> Optional[float]:
        """Lipschitz constant of f on the box |x_j| <= radius, if computable;
        a global one serves."""
        return self.constants().lipschitz

    def default_start(self) -> np.ndarray:
        return self._x0.copy()

    # -- stochastic oracle ----------------------------------------------------

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.dim},)")
        return x

    def _points(self, x) -> np.ndarray:
        """x as a float point (dim,) or stack (m, dim); any other shape raises."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(f"x has shape {x.shape}, expected ({self.dim},) or (m, {self.dim})")
        return x

    def minibatch_grad_means(self, x, b: int, m: int, gen: np.random.Generator) -> np.ndarray:
        """m independent minibatch gradients at a fixed point, shape (m, dim),
        from the next draws of gen: the generator continues its sequence, so
        two calls of m/2 rows give the bits of one call of m rows."""
        x = self._check_x(x)
        if m < 1:
            raise ValueError(f"sample count must be >= 1, got {m}")
        return self._draw_blocks(np.broadcast_to(x, (m, self.dim)), b, gen,
                                 np.broadcast_to(self.grad(x), (m, self.dim)), at_point=True)

    def minibatch_grad_ensemble(self, X: np.ndarray, b: int, draws,
                                G: Optional[np.ndarray] = None) -> np.ndarray:
        """One minibatch gradient per row of X (independent draws), (m, dim),
        given one np.random.Generator for all rows or the CellDraws of a
        stack, one generator per row, and G, the rows' exact gradients (when
        None, a kind whose draw reads them computes them). Row r has the law
        of minibatch_grad_means(X[r], b, 1, ...); the additive kinds draw its
        mean directly as dim normals, so their bits agree with it only at b = 1."""
        X = np.asarray(X, dtype=float)
        if isinstance(draws, np.random.Generator):
            return self._draw_blocks(X, b, draws, G)
        if len(draws.gens) != X.shape[0]:
            raise ValueError(f"got {len(draws.gens)} generators for {X.shape[0]} rows")
        if b < 1:
            raise ValueError(f"batch size must be >= 1, got {b}")
        return self._minibatch_block(X, b, draws, G, False)

    def _draw_blocks(self, X, b, gen, G, at_point=False) -> np.ndarray:
        """Minibatch gradients at the rows of X from one generator, drawn a
        block of rows at a time so that no block holds more than
        _CHUNK_SCALARS draws (unless one row does); as the generator continues
        its sequence across calls, no block size changes a bit of the result."""
        rows = self._block_rows(b, at_point)
        if 0 < X.shape[0] <= rows:      # one block, the common case: no copy into out
            return self._minibatch_block(X, b, gen, G, at_point)
        out = np.empty((X.shape[0], self.dim))
        for lo in range(0, X.shape[0], rows):
            out[lo:lo + rows] = self._minibatch_block(
                X[lo:lo + rows], b, gen, None if G is None else G[lo:lo + rows], at_point)
        return out

    def _block_rows(self, b: int, at_point: bool) -> int:
        """Rows of minibatch gradients one block of draws holds: at most
        _CHUNK_SCALARS scalars, unless one row holds more."""
        if b < 1:
            raise ValueError(f"batch size must be >= 1, got {b}")
        return max(1, _CHUNK_SCALARS // self._row_scalars(b, at_point))

    def _row_scalars(self, b, at_point) -> int:     # what one row of a block holds
        return b * self.dim

    def _minibatch_block(self, X, b, draws, G, at_point) -> np.ndarray:
        """One minibatch gradient per row of X, whose exact gradients are the
        rows of G (None: a kind whose draw reads them computes them): draws is
        one generator for all rows in order or a stack's CellDraws; at_point
        (one generator only) says every row is the same point, as in
        minibatch_grad_means."""
        raise NotImplementedError


def _finite(value, what: str) -> np.ndarray:
    """value as a float array, none of whose entries is a null (NaN) or infinite."""
    v = np.asarray(value, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"{what} has an entry that is null or not finite")
    return v


def _dim_vector(value, dim: int, what: str) -> np.ndarray:
    """A scalar fills every coordinate; a vector must have shape (dim,)."""
    v = _finite(value, what)
    if v.ndim and v.shape != (dim,):
        raise ValueError(f"{what} has shape {v.shape}, which does not match dim {dim}")
    return v * np.ones(dim)


class _AdditiveNoiseObjective(Objective):
    """Stochastic gradient = exact gradient + isotropic Gaussian noise with
    total variance C^2 (per-coordinate variance C^2 / dim)."""

    @functools.cached_property
    def noise_scale(self) -> float:
        return math.sqrt(self.variance / self.dim)

    def constants(self):
        # the gradient is unbounded globally: K^2 and L_f are trace-estimated
        return KnownConstants(variance=self.variance)

    def _row_scalars(self, b, at_point):
        # the means at a point of dim >= 2 hold their draws twice: as drawn and
        # transposed for the sum
        return (2 if self.dim > 1 else 1) * b * self.dim if at_point else self.dim

    def _minibatch_block(self, X, b, draws, G, at_point):
        # means at a point average b real draws; a step draws the mean of b iid
        # N(0, s^2) as one N(0, s^2 / b), exact in law and the same bits at b = 1
        G = self.grad(X) if G is None else G
        if self.variance == 0.0:
            return G.copy()
        if not at_point:        # G + (s * z) / sqrt(b): addition commutes exactly
            if isinstance(draws, CellDraws):        # its tape holds (s * z) / sqrt(b)
                return draws.standard_normal(X.shape, self.noise_scale, b) + G
            noise = draws.standard_normal(X.shape) * self.noise_scale
            noise /= math.sqrt(b)
            noise += G
            return noise
        noise = draws.standard_normal((X.shape[0], b, self.dim))
        if self.dim == 1:       # numpy sums a contiguous axis pairwise: keep those bits
            noise *= self.noise_scale
            mean = np.add.reduce(noise, axis=1)
        else:
            # the same sequential sum over b of each (row, coordinate), but with
            # the draws scaled into a (b, dim, rows) copy every add runs over
            # dim * rows values; the draws go before the sum
            terms = np.multiply(noise.transpose(1, 2, 0), self.noise_scale,
                                out=np.empty((b, self.dim, X.shape[0])))
            del noise
            mean = np.add.reduce(terms, axis=0).T
        mean /= b
        mean += G
        return mean


class NoisyQuadratic(_AdditiveNoiseObjective):
    """f(x) = 0.5 * sum_j a_j x_j^2 with diagonal curvature a > 0."""

    kind = "noisy-quadratic"

    def __init__(self, dim, variance=0.0, curvature=None, x0=None):
        super().__init__(dim, variance, x0)
        self.curvature = _dim_vector(1.0 if curvature is None else curvature, self.dim,
                                     "curvature diagonal")
        if np.any(self.curvature <= 0):
            raise ValueError("curvature diagonal must be positive")

    def value(self, x):
        x = self._points(x)
        return 0.5 * rowdot(x * x, self.curvature)

    def grad(self, x):
        return self.curvature * self._points(x)

    def minimizer(self):
        return np.zeros(self.dim)

    def lipschitz_on_box(self, radius):
        return radius * math.sqrt(rowdot(self.curvature, self.curvature))


class ConstantGradient(_AdditiveNoiseObjective):
    """f(x) = <c, x>; the gradient is the constant vector c, which makes the
    search-direction recurrences exactly stationary."""

    kind = "constant-gradient"

    def __init__(self, dim, variance=0.0, coefficient=None, x0=None):
        super().__init__(dim, variance, x0)
        self.coefficient = _dim_vector(1.0 if coefficient is None else coefficient, self.dim,
                                       "coefficient vector")

    def value(self, x):
        return rowdot(self._points(x), self.coefficient)

    def grad(self, x):
        out = np.empty(self._points(x).shape)
        out[...] = self.coefficient
        return out

    def constants(self):
        norm = math.sqrt(rowdot(self.coefficient, self.coefficient))
        return KnownConstants(
            variance=self.variance,
            grad_sq_bound=norm * norm,
            lipschitz=norm,
        )


class FiniteSumLeastSquares(Objective):
    """f(x) = (1/n) sum_i f_i(x), f_i(x) = 0.5 (a_i . x - y_i)^2.

    The stochastic gradient is grad f_i at a uniformly drawn index, so
    unbiasedness holds by construction and the deviation second moment is
    the empirical per-sample gradient variance at x (no noise is
    injected). A configured `variance` is kept as a declared bound only.
    """

    kind = "finite-sum-least-squares"

    def __init__(self, data, targets, variance=0.0, x0=None):
        data = _finite(data, "data")
        if data.ndim != 2:
            raise ValueError("data must be a 2-d array of sample rows")
        targets = _finite(targets, "targets")
        if targets.shape != (data.shape[0],):
            raise ValueError("targets length does not match data rows")
        if data.shape[0] < 1:
            raise ValueError("finite-sum objective needs n >= 1 samples")
        super().__init__(data.shape[1], variance, x0)
        self.data = data
        self.targets = targets
        self.n = data.shape[0]

    def _residuals(self, X):
        """(block, r) for each block of rows of the stack X, r the (rows, n)
        residuals a_i . x - y_i: a block at a time, no (rows, n, dim) product
        holds more than _CHUNK_SCALARS scalars, unless one row does."""
        rows = max(1, _CHUNK_SCALARS // (self.n * self.dim))
        for lo in range(0, X.shape[0], rows):
            yield slice(lo, lo + rows), rowdot(X[lo:lo + rows, None], self.data) - self.targets

    def value(self, x):
        x = self._points(x)
        X, out = x.reshape(-1, self.dim), np.empty(x.size // self.dim)
        for blk, r in self._residuals(X):
            out[blk] = 0.5 * np.mean(r * r, axis=-1)
        return out if x.ndim == 2 else out[0]

    def grad(self, x):
        x = self._points(x)
        X = x.reshape(-1, self.dim)
        out = np.empty_like(X)
        for blk, r in self._residuals(X):
            out[blk] = rowdot(self.data.T, r[:, None]) / self.n
        return out.reshape(x.shape)

    def per_sample_grads(self, x) -> np.ndarray:
        """All n per-sample gradients at x, shape (n, dim)."""
        r = rowdot(self.data, self._check_x(x)) - self.targets
        return self.data * r[:, None]

    def constants(self):
        return KnownConstants(
            variance=self.variance if self.variance > 0 else None,
            sample_count=self.n,
        )

    def minimizer(self):
        # a LAPACK call: its last bits follow the BLAS kernel
        sol, *_ = np.linalg.lstsq(self.data, self.targets, rcond=None)
        return sol

    def lipschitz_on_box(self, radius):
        # ||grad f(x)|| <= ||A^T A / n|| * sqrt(dim) * radius + ||A^T y / n||; the
        # spectral norm is a LAPACK call, so its last bits follow the BLAS kernel
        spectral = float(np.linalg.norm(self.data.T @ self.data / self.n, 2))
        bias = rowdot(self.data.T, self.targets) / self.n
        return spectral * radius * math.sqrt(self.dim) + math.sqrt(rowdot(bias, bias))

    def _minibatch_block(self, X, b, draws, G, at_point):
        # one generator draws every row's b indices at once, a stack's rows each
        # from their own; either way the rows' per-sample gradients are gathered
        # and averaged, so a row's bits do not depend on the rows beside it
        if isinstance(draws, np.random.Generator):
            idx = draws.integers(0, self.n, size=(X.shape[0], b))
        else:
            idx = np.array([gen.integers(0, self.n, size=b) for gen in draws.gens])
        rows = self.data[idx]                                   # (m, b, dim)
        r = rowdot(rows, X[:, None]) - self.targets[idx]
        return (rows * r[..., None]).mean(axis=1)


class SineBowl(_AdditiveNoiseObjective):
    """Nonconvex test bed: f(x) = 0.5||x||^2 + a * sum_j sin(w x_j).

    On the box |x_j| <= R the gradient norm is bounded by
    sqrt(dim) * (R + a*w), which gives a documented Lipschitz constant.
    """

    kind = "nonconvex-sine-bowl"

    def __init__(self, dim, variance=0.0, amplitude=1.0, frequency=3.0, x0=None):
        super().__init__(dim, variance, x0)
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        if self.amplitude < 0 or self.frequency <= 0:
            raise ValueError("sine-bowl needs amplitude >= 0 and frequency > 0")

    def value(self, x):
        x = self._points(x)
        return 0.5 * rowdot(x, x) + self.amplitude * np.sum(np.sin(self.frequency * x), axis=-1)

    def grad(self, x):
        x = self._points(x)
        return x + self.amplitude * self.frequency * np.cos(self.frequency * x)

    def lipschitz_on_box(self, radius):
        return float(math.sqrt(self.dim) * (radius + self.amplitude * self.frequency))


# each kind's class and the params keys it takes
_KINDS = {
    "noisy-quadratic": (NoisyQuadratic, {"curvature"}),
    "constant-gradient": (ConstantGradient, {"coefficient"}),
    "finite-sum-least-squares": (FiniteSumLeastSquares, {"data", "targets"}),
    "nonconvex-sine-bowl": (SineBowl, {"amplitude", "frequency"}),
}
KINDS = tuple(_KINDS)


def make_objective(kind: str, dim: Optional[int] = None, params: Optional[dict] = None,
                   variance: float = 0.0) -> Objective:
    """Build an objective from the JSON-config vocabulary.

    The config shape is {"kind": ..., "dim": ..., "params": {...},
    "variance": ...}; params keys are kind-specific (curvature,
    coefficient, data, targets, amplitude, frequency, all optional except
    the finite-sum data) plus an optional default start x0.
    """
    params = dict(params or {})
    x0 = params.pop("x0", None)
    if kind not in _KINDS:
        raise ValueError(f"unknown objective kind {kind!r}; expected one of {KINDS}")
    cls, names = _KINDS[kind]
    extra = set(params) - names
    if extra:
        raise ValueError(f"unknown params for kind {kind!r}: {sorted(extra)}")
    if cls is FiniteSumLeastSquares:
        if "data" not in params or "targets" not in params:
            raise ValueError("finite-sum-least-squares needs params.data and params.targets")
        obj = FiniteSumLeastSquares(params["data"], params["targets"], variance=variance, x0=x0)
        if dim is not None and obj.dim != dim:
            raise ValueError(f"data has dim {obj.dim}, config says {dim}")
        return obj
    if dim is None:
        raise ValueError(f"{kind} needs dim")
    return cls(dim, variance=variance, x0=x0, **params)

