"""Synthetic stochastic objectives with analytically known noise constants.

Every objective exposes three oracles:

  * the exact value f(x) and exact full gradient,
  * a single stochastic gradient draw G(x) that is unbiased,
    E[G(x)] = grad f(x), with deviation second moment E||G - grad f||^2
    equal to a configured constant C^2 (additive-noise kinds) or bounded
    by the data (finite-sum kind),
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

All randomness flows through caller-supplied RngStream values; the
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
# explicit draws of one b = 8192 minibatch mean at dim 16
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
    """Seed words of a stream's substreams stream.child(t), t < 2^32. The
    first label asked for is left to numpy's SeedSequence, so a child made
    once costs what numpy's does; from the second on, labels t ...
    t+_BLOCK-1 are filled in one pass and kept until a label outside them is
    asked for."""

    def __init__(self, master_seed, path):
        self.seed_words = _word_count(master_seed)     # a negative seed fails here
        self.master_seed, self.path = master_seed, path
        self.window = None      # None until a first label has been asked for

    @functools.cached_property
    def mixer(self) -> tuple:
        """The stream's pool, and the hash constants with which numpy mixes
        one more spawn-key word into each of its four words. numpy pads the
        seed to four words when a spawn key is present (and hashes a 0 for a
        missing word when not), and mixing W >= 4 entropy words takes 4 W
        hashmix calls: 4 + 12 for the first four words, 4 for each other."""
        from numpy.random import SeedSequence

        pool = SeedSequence(self.master_seed, spawn_key=self.path).pool.astype(np.uint64)
        calls = 4 * (max(self.seed_words, 4) + sum(map(_word_count, self.path)))
        return pool, _hash_constants(_HASH_INIT * pow(_MULT_A, calls, 1 << 32), _MULT_A, 4)

    def state(self, label: int) -> Optional[np.ndarray]:
        """child(label)'s seed words, or None if numpy should derive them."""
        window = self.window    # read once: a race costs a refill, never a wrong row
        if window is None:
            self.window = (0, np.empty((0, 4), dtype=np.uint64))
            return None
        start, block = window
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
    master_seed, spawn_key=path)); the seeding of step substreams
    stream.child(t) is replayed here, in blocks their parent fills.
    """

    master_seed: int
    path: tuple[int, ...] = ()
    # the memo this stream's seed words come from, set by parent.child(t)
    _step_seeds: Optional[_StepSeeds] = field(default=None, compare=False, repr=False)
    # the memo of this stream's own child(t) substreams, made on first use
    # (threads racing here make two, and either gives the right words)
    _child_seeds: Optional[_StepSeeds] = field(default=None, init=False, compare=False,
                                               repr=False)

    def __post_init__(self):
        if self._step_seeds is None:    # child(t) hands over a checked path
            object.__setattr__(self, "path", tuple(map(_label_to_int, self.path)))

    def child(self, *labels) -> "RngStream":
        """Derive an independent substream; labels are ints or strings."""
        if len(labels) != 1 or type(labels[0]) is not int or labels[0] < 0:
            return RngStream(self.master_seed, self.path + labels)
        if self._child_seeds is None:
            object.__setattr__(self, "_child_seeds", _StepSeeds(self.master_seed, self.path))
        return RngStream(self.master_seed, self.path + labels, self._child_seeds)

    def generator(self) -> np.random.Generator:
        seeds = self._step_seeds
        state = seeds.state(self.path[-1]) if seeds and self.path[-1] <= _MASK32 else None
        if state is None:
            seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        else:
            seq = _seed_words_type()(state)
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
        self._x0 = np.full(self.dim, 1.0) if x0 is None else np.asarray(x0, dtype=float).copy()
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

    def stochastic_grad(self, x, rng: RngStream) -> np.ndarray:
        """One unbiased draw G(x)."""
        return self.stochastic_grads(x, 1, rng)[0]

    def stochastic_grads(self, x, m: int, rng: RngStream) -> np.ndarray:
        """m iid draws at a fixed point, shape (m, dim)."""
        return self.minibatch_grad_means(x, 1, m, rng)

    def minibatch_grad(self, x, b: int, rng: RngStream) -> np.ndarray:
        """Mean of b iid stochastic gradients (sampling with replacement)."""
        return self.minibatch_grad_means(x, b, 1, rng)[0]

    def minibatch_grad_means(self, x, b: int, m: int, rng: RngStream) -> np.ndarray:
        """m independent minibatch gradients at a fixed point, shape (m, dim)."""
        x = self._check_x(x)
        if m < 1:
            raise ValueError(f"sample count must be >= 1, got {m}")
        return self._draw_blocks(np.broadcast_to(x, (m, self.dim)), b, rng.generator(),
                                 at_point=True)

    def minibatch_grad_ensemble(self, X: np.ndarray, b: int, streams) -> np.ndarray:
        """One minibatch gradient per row of X (independent draws), (m, dim),
        from one RngStream for all rows or from one stream per row. Row r has
        the law of minibatch_grad(X[r], b, streams[r]); the additive kinds draw
        its mean directly as dim normals, so their bits agree only at b = 1."""
        X = np.asarray(X, dtype=float)
        if isinstance(streams, RngStream):
            return self._draw_blocks(X, b, streams.generator())
        if len(streams) != X.shape[0]:
            raise ValueError(f"got {len(streams)} streams for {X.shape[0]} rows")
        return self._draw_blocks(X, b, streams)

    def _draw_blocks(self, X, b, source, at_point=False) -> np.ndarray:
        """Minibatch gradients at the rows of X, drawn a block of rows at a
        time so that no block holds more than _CHUNK_SCALARS draws (unless
        one row does). source is one generator that fills every row in
        order, or one RngStream per row; as a generator continues its
        sequence across calls, no block size changes a bit of the result."""
        if b < 1:
            raise ValueError(f"batch size must be >= 1, got {b}")
        rows = max(1, _CHUNK_SCALARS // self._row_scalars(b, at_point))
        one = isinstance(source, np.random.Generator)
        if 0 < X.shape[0] <= rows:      # one block, the common case: no copy into out
            return self._minibatch_block(X, b, source if one else [s.generator() for s in source],
                                         at_point)
        out = np.empty((X.shape[0], self.dim))
        for lo in range(0, X.shape[0], rows):
            gens = source if one else [s.generator() for s in source[lo:lo + rows]]
            out[lo:lo + rows] = self._minibatch_block(X[lo:lo + rows], b, gens, at_point)
        return out

    def _row_scalars(self, b, at_point) -> int:     # what one row of a block holds
        return b * self.dim

    def _minibatch_block(self, X, b, gens, at_point) -> np.ndarray:
        """One minibatch gradient per row of X: gens is one generator for all
        rows in order or a list of one per row; at_point says every row is
        the same point, as in minibatch_grad_means."""
        raise NotImplementedError


def _dim_vector(value, dim: int, what: str) -> np.ndarray:
    """A scalar fills every coordinate; a vector must have shape (dim,)."""
    v = np.asarray(value, dtype=float)
    if v.ndim and v.shape != (dim,):
        raise ValueError(f"{what} has shape {v.shape}, which does not match dim {dim}")
    return v * np.ones(dim)


class _AdditiveNoiseObjective(Objective):
    """Stochastic gradient = exact gradient + isotropic Gaussian noise with
    total variance C^2 (per-coordinate variance C^2 / dim)."""

    @functools.cached_property
    def noise_scale(self) -> float:
        return math.sqrt(self.variance / self.dim)

    def _row_scalars(self, b, at_point):
        return b * self.dim if at_point else self.dim

    def _minibatch_block(self, X, b, gens, at_point):
        # means at a point average b real draws; a step draws the mean of b iid
        # N(0, s^2) as one N(0, s^2 / b), exact in law and the same bits at b = 1
        G = self.grad_many(X)
        if self.variance == 0.0:
            return G
        noise = np.empty((X.shape[0], b, self.dim) if at_point else G.shape)
        if isinstance(gens, list):
            for r, gen in enumerate(gens):      # indexing beats iterating over noise's rows
                gen.standard_normal(out=noise[r])
        else:
            gens.standard_normal(out=noise)
        noise *= self.noise_scale
        return G + (np.add.reduce(noise, axis=1) / b if at_point else noise / math.sqrt(b))


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

    def constants(self):
        # gradient is unbounded globally; K^2 and L_f are trace-estimated
        return KnownConstants(variance=self.variance)

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
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("data must be a 2-d array of sample rows")
        targets = np.asarray(targets, dtype=float)
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

    def _minibatch_block(self, X, b, gens, at_point):
        # minibatch_grad_means and per-row streams gather per-sample gradients;
        # one stream for many points takes the einsum form, whose bits differ
        if isinstance(gens, list):
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

    def constants(self):
        return KnownConstants(variance=self.variance)

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


# functional aliases matching the operation vocabulary

def eval_f(spec: Objective, x) -> float:
    """Exact objective value."""
    return spec.value(np.asarray(x, dtype=float))


def eval_grad(spec: Objective, x) -> np.ndarray:
    """Exact full gradient (mean of per-sample gradients for finite sums)."""
    return spec.grad(np.asarray(x, dtype=float))


def sample_stochastic_grad(spec: Objective, x, rng: RngStream) -> np.ndarray:
    """One unbiased stochastic gradient draw."""
    return spec.stochastic_grad(x, rng)


def minibatch_grad(spec: Objective, x, b: int, rng: RngStream) -> np.ndarray:
    """Mean of b iid stochastic gradients drawn with replacement."""
    return spec.minibatch_grad(x, b, rng)


def known_constants(spec: Objective) -> KnownConstants:
    """Analytic constants where defined; None fields must be estimated."""
    return spec.constants()
