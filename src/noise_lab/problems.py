"""Synthetic stochastic objectives with analytically known noise constants.

Every objective exposes three oracles:

  * the exact value f(x) and exact full gradient,
  * a single stochastic gradient draw G(x) that is unbiased,
    E[G(x)] = grad f(x), with deviation second moment E||G - grad f||^2
    equal to a configured constant C^2 (additive-noise kinds) or bounded
    by the data (finite-sum kind),
  * a minibatch gradient: the mean of b iid draws with replacement, whose
    deviation second moment is C^2 / b.

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

import math
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

KINDS = (
    "noisy-quadratic",
    "constant-gradient",
    "finite-sum-least-squares",
    "nonconvex-sine-bowl",
)

# chunk size (in scalar draws) for vectorised Monte-Carlo helpers
_CHUNK_SCALARS = 4_000_000


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
    so a stream value denotes a reproducible sequence, not a cursor.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(map(_label_to_int, self.path)))

    def child(self, *labels) -> "RngStream":
        """Derive an independent substream; labels are ints or strings."""
        return RngStream(self.master_seed, self.path + labels)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.default_rng(seq)


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

    def value_many(self, X: np.ndarray) -> np.ndarray:
        """Values at each row of X, shape (m, dim) -> (m,)."""
        X = np.asarray(X, dtype=float)
        return np.array([self.value(row) for row in X])

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
        if b < 1:
            raise ValueError(f"batch size must be >= 1, got {b}")
        if m < 1:
            raise ValueError(f"sample count must be >= 1, got {m}")
        gen = rng.generator()
        out = np.empty((m, self.dim))
        chunk = max(1, _CHUNK_SCALARS // (b * self.dim))
        done = 0
        while done < m:
            take = min(chunk, m - done)
            out[done:done + take] = self._minibatch_chunk(x, b, take, gen)
            done += take
        return out

    def minibatch_grad_ensemble(self, X: np.ndarray, b: int, streams) -> np.ndarray:
        """One minibatch gradient per row of X (independent draws), (m, dim),
        from one RngStream for all rows or from one stream per row; then row r
        equals minibatch_grad(X[r], b, streams[r]) bit for bit."""
        X = np.asarray(X, dtype=float)
        if b < 1:
            raise ValueError(f"batch size must be >= 1, got {b}")
        if isinstance(streams, RngStream):
            return self._minibatch_ensemble(X, b, streams.generator())
        if len(streams) != X.shape[0]:
            raise ValueError(f"got {len(streams)} streams for {X.shape[0]} rows")
        out = np.empty_like(X)
        chunk = max(1, _CHUNK_SCALARS // (b * self.dim))
        for lo in range(0, X.shape[0], chunk):
            gens = [s.generator() for s in streams[lo:lo + chunk]]
            out[lo:lo + chunk] = self._minibatch_rows(X[lo:lo + chunk], b, gens)
        return out

    # subclass hooks

    def _minibatch_chunk(self, x, b, m, gen) -> np.ndarray:
        raise NotImplementedError

    def _minibatch_ensemble(self, X, b, gen) -> np.ndarray:
        raise NotImplementedError

    def _minibatch_rows(self, X, b, gens) -> np.ndarray:
        """One minibatch gradient per row of X, row r drawn from gens[r]
        exactly as minibatch_grad draws it."""
        return np.stack([self._minibatch_chunk(x, b, 1, gen)[0] for x, gen in zip(X, gens)])


def _dim_vector(value, dim: int, what: str) -> np.ndarray:
    """A scalar fills every coordinate; a vector must have shape (dim,)."""
    v = np.asarray(value, dtype=float)
    if v.ndim and v.shape != (dim,):
        raise ValueError(f"{what} has shape {v.shape}, which does not match dim {dim}")
    return v * np.ones(dim)


class _AdditiveNoiseObjective(Objective):
    """Stochastic gradient = exact gradient + isotropic Gaussian noise with
    total variance C^2 (per-coordinate variance C^2 / dim)."""

    @property
    def noise_scale(self) -> float:
        return math.sqrt(self.variance / self.dim)

    def _minibatch_chunk(self, x, b, m, gen):
        g = self.grad(x)
        if self.variance == 0.0:
            return np.tile(g, (m, 1))
        noise = gen.standard_normal((m, b, self.dim)) * self.noise_scale
        return g + noise.mean(axis=1)

    def _minibatch_ensemble(self, X, b, gen):
        G = self.grad_many(X)
        if self.variance == 0.0:
            return G
        noise = gen.standard_normal((X.shape[0], b, self.dim)) * self.noise_scale
        return G + noise.mean(axis=1)

    def _minibatch_rows(self, X, b, gens):
        G = self.grad_many(X)
        if self.variance == 0.0:
            return G
        noise = np.empty((len(gens), b, self.dim))
        for block, gen in zip(noise, gens):
            gen.standard_normal(out=block)
        noise *= self.noise_scale
        return G + np.add.reduce(noise, axis=1) / b     # noise.mean(axis=1), bit for bit


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

    def _minibatch_chunk(self, x, b, m, gen):
        grads = self.per_sample_grads(x)
        idx = gen.integers(0, self.n, size=(m, b))
        return grads[idx].mean(axis=1)

    def _minibatch_ensemble(self, X, b, gen):
        X = np.asarray(X, dtype=float)
        idx = gen.integers(0, self.n, size=(X.shape[0], b))
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
        "noisy-quadratic": {"curvature"},
        "constant-gradient": {"coefficient"},
        "finite-sum-least-squares": {"data", "targets"},
        "nonconvex-sine-bowl": {"amplitude", "frequency"},
    }
    if kind not in known:
        raise ValueError(f"unknown objective kind {kind!r}; expected one of {KINDS}")
    extra = set(params) - known[kind]
    if extra:
        raise ValueError(f"unknown params for kind {kind!r}: {sorted(extra)}")
    if kind == "noisy-quadratic":
        if dim is None:
            raise ValueError("noisy-quadratic needs dim")
        return NoisyQuadratic(dim, variance=variance, x0=x0, **params)
    if kind == "constant-gradient":
        if dim is None:
            raise ValueError("constant-gradient needs dim")
        return ConstantGradient(dim, variance=variance, x0=x0, **params)
    if kind == "finite-sum-least-squares":
        if "data" not in params or "targets" not in params:
            raise ValueError("finite-sum-least-squares needs params.data and params.targets")
        obj = FiniteSumLeastSquares(params["data"], params["targets"], variance=variance, x0=x0)
        if dim is not None and obj.dim != dim:
            raise ValueError(f"data has dim {obj.dim}, config says {dim}")
        return obj
    if dim is None:
        raise ValueError("nonconvex-sine-bowl needs dim")
    return SineBowl(dim, variance=variance, x0=x0, **params)


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
