"""Synthetic stochastic objectives with analytically known noise constants.

Every objective exposes three oracles:

  * the exact value f(x) and exact full gradient (value, grad),
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

All randomness flows through caller-supplied RngStream values, and a
step's draw through the generators its caller takes from them with
RngStream.generator(t), given with the rows' exact gradients; the
objectives themselves are immutable and safe to share across runs.
"""

from __future__ import annotations

import functools
import math
import operator
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

KINDS = (
    "noisy-quadratic",
    "constant-gradient",
    "finite-sum-least-squares",
    "nonconvex-sine-bowl",
)

# most scalars one block of Monte-Carlo draws holds: 1 MB of float64, the
# explicit draws of one b = 4096 minibatch mean at dim 16 held twice
_CHUNK_SCALARS = 1 << 17
# stream contract written into every report: 2 draws an additive step's mean directly
RNG_CONTRACT = 2


def _label_to_int(label) -> int:
    if isinstance(label, str):
        return zlib.crc32(label.encode("utf-8"))
    value = int(label)
    if value < 0:
        raise ValueError(f"rng path labels must be non-negative, got {label!r}")
    return value


def _word_count(n) -> int:
    """uint32 words numpy's SeedSequence makes of a non-negative int (0 is one)."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"seeds and rng path labels must be non-negative, got {n}")
    return max(1, -(-n.bit_length() // 32))


# numpy's SeedSequence (numpy/random/bit_generator.pyx), replayed bit for bit
# under numpy's stream-compatibility promise for a block of step labels at once:
# the hash and mix steps take uint64 arrays of 32-bit values, so the PCG64
# seed words of many children of one pool come out of one vectorised pass.
_MASK32, _HASH_INIT, _MULT_A, _MULT_B = 0xFFFFFFFF, 0x43B0D7E5, 0x931E8875, 0x58F38DED
_BLOCK = 128        # step labels whose seed words one pass fills


def _hash_constants(hc: int, mult: int, n: int) -> np.ndarray:
    """hc and the hash constants that follow it, n in all."""
    return np.array([hc * pow(mult, k, 1 << 32) & _MASK32 for k in range(n)], dtype=np.uint64)


_GENERATE_HASHES = _hash_constants(0x8B51F9DD, _MULT_B, 8)


def _hashmix(value, hc, mult=_MULT_A) -> tuple:
    hc_next = hc * mult & _MASK32
    value = (value ^ hc) * hc_next & _MASK32
    return value ^ value >> 16, hc_next


def _mix(x, y):
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return r ^ r >> 16


def _seed_state(pool) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of pools on the last axis."""
    words, _ = _hashmix(np.concatenate([pool, pool], axis=-1), _GENERATE_HASHES, _MULT_B)
    return words.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type() -> type:
    """An ISeedSequence that hands PCG64 the seed words SeedSequence would;
    built on first use, so importing this module leaves numpy.random unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype != np.uint64:
                raise ValueError("only PCG64's four uint64 seed words are replayed")
            return self.state

    return SeedWords


class _StepSeeds:
    """Seed words of a stream's step substreams stream.child(t), t < 2^32:
    labels t ... t+_BLOCK-1 are filled in one pass and kept until a label
    outside them is asked for."""

    def __init__(self, master_seed, path):
        self.master_seed, self.path = master_seed, path
        self.window = (0, np.empty((0, 4), dtype=np.uint64))

    @functools.cached_property
    def mixer(self) -> tuple:
        """The stream's pool, and the hash constants with which numpy mixes
        one more spawn-key word into each of its four words. numpy pads the
        seed to four words when a spawn key is present (and hashes a 0 for a
        missing word when not), and mixing W >= 4 entropy words takes 4 W
        hashmix calls: 4 + 12 for the first four words, 4 for each other."""
        from numpy.random import SeedSequence

        pool = SeedSequence(self.master_seed, spawn_key=self.path).pool.astype(np.uint64)
        calls = 4 * (max(_word_count(self.master_seed), 4) + sum(map(_word_count, self.path)))
        return pool, _hash_constants(_HASH_INIT * pow(_MULT_A, calls, 1 << 32), _MULT_A, 4)

    def state(self, label: int) -> np.ndarray:
        """child(label)'s seed words."""
        start, block = self.window    # read once: a race costs a refill, never a wrong row
        if not 0 <= label - start < len(block):
            pool, hashes = self.mixer
            labels = np.arange(label, min(label + _BLOCK, _MASK32 + 1), dtype=np.uint64)
            h, _ = _hashmix(labels[:, None], hashes)       # one column per pool word
            start, block = label, _seed_state(_mix(pool, h))
            self.window = (start, block)
        return block[label - start]


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable source of randomness.

    Two streams with identical (master_seed, path) produce identical
    sample sequences; streams with distinct paths are statistically
    independent. `generator()` always restarts from the stream's origin,
    so a stream value denotes a reproducible sequence, not a cursor. Its
    bits are those of np.random.default_rng(np.random.SeedSequence(
    master_seed, spawn_key=path)); generator(t), the generator of the step
    substream child(t), replays that seeding from blocks the stream fills.
    """

    master_seed: int
    path: tuple[int, ...] = ()
    # the memo of this stream's step seed words, made by the first generator(t)
    # (threads racing here make two, and either gives the right words)
    _child_seeds: Optional[_StepSeeds] = field(default=None, init=False, compare=False,
                                               repr=False)

    def __post_init__(self):
        _word_count(self.master_seed)       # a negative seed fails here
        object.__setattr__(self, "path", tuple(map(_label_to_int, self.path)))

    def child(self, *labels) -> "RngStream":
        """Derive an independent substream; labels are ints or strings."""
        return RngStream(self.master_seed, self.path + labels)

    def generator(self, t: Optional[int] = None) -> np.random.Generator:
        """This stream's generator, or with a step index t that of child(t)."""
        if t is not None and 0 <= t <= _MASK32:
            if self._child_seeds is None:
                object.__setattr__(self, "_child_seeds", _StepSeeds(self.master_seed, self.path))
            seq = _seed_words_type()(self._child_seeds.state(t))
        else:
            path = self.path if t is None else self.path + (_label_to_int(t),)
            seq = np.random.SeedSequence(self.master_seed, spawn_key=path)
        return np.random.Generator(np.random.PCG64(seq))


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

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_many(self, X: np.ndarray) -> np.ndarray:
        """Gradients at each row of X, shape (m, dim); row r equals grad(X[r])
        bit for bit, which the lockstep engine relies on."""
        X = np.asarray(X, dtype=float)
        return np.stack([self.grad(row) for row in X])

    def constants(self) -> KnownConstants:
        return KnownConstants()

    def minimizer(self) -> Optional[np.ndarray]:
        return None

    def lipschitz_on_box(self, radius: float) -> Optional[float]:
        """Lipschitz constant of f on the box |x_j| <= radius, if computable."""
        return None

    def default_start(self) -> np.ndarray:
        return self._x0.copy()

    # -- stochastic oracle ----------------------------------------------------

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.dim},)")
        return x

    def minibatch_grad_means(self, x, b: int, m: int, rng: RngStream) -> np.ndarray:
        """m independent minibatch gradients at a fixed point, shape (m, dim)."""
        x = self._check_x(x)
        if m < 1:
            raise ValueError(f"sample count must be >= 1, got {m}")
        return self._draw_blocks(np.broadcast_to(x, (m, self.dim)), b, rng.generator(),
                                 np.broadcast_to(self.grad(x), (m, self.dim)), at_point=True)

    def minibatch_grad_ensemble(self, X: np.ndarray, b: int, gens,
                                G: Optional[np.ndarray] = None) -> np.ndarray:
        """One minibatch gradient per row of X (independent draws), (m, dim),
        given one np.random.Generator for all rows or a sequence of one per
        row, and G, the rows' exact gradients (when None, a kind whose draw
        reads them computes them). Row r has the law of
        minibatch_grad_means(X[r], b, 1, ...); the additive kinds draw its mean
        directly as dim normals, so their bits agree with it only at b = 1."""
        X = np.asarray(X, dtype=float)
        if isinstance(gens, np.random.Generator):
            return self._draw_blocks(X, b, gens, G)
        if len(gens) != X.shape[0]:
            raise ValueError(f"got {len(gens)} generators for {X.shape[0]} rows")
        if b < 1:
            raise ValueError(f"batch size must be >= 1, got {b}")
        return self._minibatch_block(X, b, gens, G, False)

    def _draw_blocks(self, X, b, gen, G, at_point=False) -> np.ndarray:
        """Minibatch gradients at the rows of X from one generator, drawn a
        block of rows at a time so that no block holds more than
        _CHUNK_SCALARS draws (unless one row does); as the generator continues
        its sequence across calls, no block size changes a bit of the result."""
        if b < 1:
            raise ValueError(f"batch size must be >= 1, got {b}")
        rows = max(1, _CHUNK_SCALARS // self._row_scalars(b, at_point))
        if 0 < X.shape[0] <= rows:      # one block, the common case: no copy into out
            return self._minibatch_block(X, b, gen, G, at_point)
        out = np.empty((X.shape[0], self.dim))
        for lo in range(0, X.shape[0], rows):
            out[lo:lo + rows] = self._minibatch_block(
                X[lo:lo + rows], b, gen, None if G is None else G[lo:lo + rows], at_point)
        return out

    def _row_scalars(self, b, at_point) -> int:     # what one row of a block holds
        return b * self.dim

    def _minibatch_block(self, X, b, gens, G, at_point) -> np.ndarray:
        """One minibatch gradient per row of X, whose exact gradients are the
        rows of G (None: a kind whose draw reads them computes them): gens is
        one generator for all rows in order or a sequence of one per row;
        at_point says every row is the same point, as in
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

    def _minibatch_block(self, X, b, gens, G, at_point):
        # means at a point average b real draws; a step draws the mean of b iid
        # N(0, s^2) as one N(0, s^2 / b), exact in law and the same bits at b = 1
        G = self.grad_many(X) if G is None else G
        if self.variance == 0.0:
            return G.copy()
        shape = (X.shape[0], b, self.dim) if at_point else X.shape
        if isinstance(gens, np.random.Generator):
            noise = gens.standard_normal(shape)
        elif len(gens) == 1:                    # a one-row stack, as a run steps
            noise = gens[0].standard_normal(shape)
        else:
            noise = np.empty(shape)
            for r, gen in enumerate(gens):      # indexing beats iterating over noise's rows
                gen.standard_normal(out=noise[r])
        if not at_point:        # G + (s * z) / sqrt(b), in place: addition commutes exactly
            noise *= self.noise_scale
            noise /= math.sqrt(b)
            noise += G
            return noise
        if self.dim == 1:       # numpy sums a contiguous axis pairwise: keep those bits
            noise *= self.noise_scale
            return G + np.add.reduce(noise, axis=1) / b
        # the same sequential sum over b of each (row, coordinate), but with the
        # draws scaled into a (b, dim, rows) copy every add runs over dim * rows
        # values
        terms = np.multiply(noise.transpose(1, 2, 0), self.noise_scale,
                            out=np.empty((b, self.dim, X.shape[0])))
        return G + np.add.reduce(terms, axis=0).T / b


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
        x = self._check_x(x)
        return float(0.5 * np.dot(self.curvature, x * x))

    def grad(self, x):
        x = self._check_x(x)
        return self.curvature * x

    def value_many(self, X):
        X = np.asarray(X, dtype=float)
        return 0.5 * (X * X) @ self.curvature

    def grad_many(self, X):
        return np.asarray(X, dtype=float) * self.curvature

    def minimizer(self):
        return np.zeros(self.dim)

    def lipschitz_on_box(self, radius):
        return float(radius * np.linalg.norm(self.curvature))


class ConstantGradient(_AdditiveNoiseObjective):
    """f(x) = <c, x>; the gradient is the constant vector c, which makes the
    search-direction recurrences exactly stationary."""

    kind = "constant-gradient"

    def __init__(self, dim, variance=0.0, coefficient=None, x0=None):
        super().__init__(dim, variance, x0)
        self.coefficient = _dim_vector(1.0 if coefficient is None else coefficient, self.dim,
                                       "coefficient vector")

    def value(self, x):
        x = self._check_x(x)
        return float(np.dot(self.coefficient, x))

    def grad(self, x):
        self._check_x(x)
        return self.coefficient.copy()

    def value_many(self, X):
        return np.asarray(X, dtype=float) @ self.coefficient

    def grad_many(self, X):
        X = np.asarray(X, dtype=float)
        return np.tile(self.coefficient, (X.shape[0], 1))

    def constants(self):
        norm = float(np.linalg.norm(self.coefficient))
        return KnownConstants(
            variance=self.variance,
            grad_sq_bound=norm * norm,
            lipschitz=norm,
        )

    def lipschitz_on_box(self, radius):
        return float(np.linalg.norm(self.coefficient))


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

    def value(self, x):
        x = self._check_x(x)
        r = self.data @ x - self.targets
        return float(0.5 * np.mean(r * r))

    def grad(self, x):
        x = self._check_x(x)
        r = self.data @ x - self.targets
        return (self.data.T @ r) / self.n

    def value_many(self, X):
        R = np.asarray(X, dtype=float) @ self.data.T - self.targets
        return 0.5 * np.mean(R * R, axis=1)

    def per_sample_grads(self, x) -> np.ndarray:
        """All n per-sample gradients at x, shape (n, dim)."""
        x = self._check_x(x)
        r = self.data @ x - self.targets
        return self.data * r[:, None]

    def constants(self):
        return KnownConstants(
            variance=self.variance if self.variance > 0 else None,
            sample_count=self.n,
        )

    def minimizer(self):
        sol, *_ = np.linalg.lstsq(self.data, self.targets, rcond=None)
        return sol

    def lipschitz_on_box(self, radius):
        # ||grad f(x)|| <= ||A^T A / n|| * sqrt(dim) * radius + ||A^T y / n||
        gram = self.data.T @ self.data / self.n
        bias = self.data.T @ self.targets / self.n
        spectral = float(np.linalg.norm(gram, 2))
        return spectral * radius * math.sqrt(self.dim) + float(np.linalg.norm(bias))

    def _minibatch_block(self, X, b, gens, G, at_point):
        # minibatch_grad_means and per-row generators gather per-sample gradients;
        # one generator for many points takes the einsum form, whose bits differ
        if not isinstance(gens, np.random.Generator):
            return np.concatenate([self.per_sample_grads(x)[gen.integers(0, self.n, size=(1, b))]
                                   .mean(axis=1) for x, gen in zip(X, gens)])
        idx = gens.integers(0, self.n, size=(X.shape[0], b))
        if at_point:
            return self.per_sample_grads(X[0])[idx].mean(axis=1)
        rows = self.data[idx]                                   # (m, b, dim)
        r = np.einsum("mbd,md->mb", rows, X) - self.targets[idx]
        return np.einsum("mb,mbd->md", r, rows) / b


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
        x = self._check_x(x)
        return float(0.5 * np.dot(x, x) + self.amplitude * np.sum(np.sin(self.frequency * x)))

    def grad(self, x):
        x = self._check_x(x)
        return x + self.amplitude * self.frequency * np.cos(self.frequency * x)

    def value_many(self, X):
        X = np.asarray(X, dtype=float)
        return 0.5 * np.sum(X * X, axis=1) + self.amplitude * np.sum(np.sin(self.frequency * X), axis=1)

    def grad_many(self, X):
        X = np.asarray(X, dtype=float)
        return X + self.amplitude * self.frequency * np.cos(self.frequency * X)

    def lipschitz_on_box(self, radius):
        return float(math.sqrt(self.dim) * (radius + self.amplitude * self.frequency))


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
    known = {
        "noisy-quadratic": (NoisyQuadratic, {"curvature"}),
        "constant-gradient": (ConstantGradient, {"coefficient"}),
        "finite-sum-least-squares": (FiniteSumLeastSquares, {"data", "targets"}),
        "nonconvex-sine-bowl": (SineBowl, {"amplitude", "frequency"}),
    }
    if kind not in known:
        raise ValueError(f"unknown objective kind {kind!r}; expected one of {KINDS}")
    cls, names = known[kind]
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

