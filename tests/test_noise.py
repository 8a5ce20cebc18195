"""Noise measurement: gradient noise, search-direction noise, tails."""

import functools
import math

import numpy as np
import pytest

from noise_lab import problems
from noise_lab.noise import (
    default_burn_in,
    gradient_noise_samples,
    minibatch_deviation_sq_samples,
    search_direction_noise,
    tail_stats,
)
from noise_lab.optimizers import OptimizerConfig, run, simulate
from noise_lab.problems import (ConstantGradient, FiniteSumLeastSquares, NoisyQuadratic,
                                RngStream, rowdot)


def stationary_trace(beta, steps, c_sq=1.0, eta=0.05, seed=7):
    spec = ConstantGradient(dim=2, variance=c_sq, coefficient=[1.0, 1.0])
    cfg = OptimizerConfig(algo="nshb", eta=eta, beta=beta, batch_size=1)
    trace = run(spec, cfg, x0=np.zeros(2), max_steps=steps, rng=RngStream(seed))
    return spec, trace


LEVEL_RTOL, LEVEL_WINDOW = 0.1, 6_000


def level_standard_error(beta, dim, n):
    """Relative standard error of the mean of n consecutive ||omega_t||^2 at
    stationarity. Each of the dim coordinates of omega is a Gaussian AR(1)
    with coefficient beta and variance v, so its square has autocovariance
    2 v^2 beta^(2k), and the mean of n squares has variance
    2 v^2 (1 + beta^2) / ((1 - beta^2) n); the dim coordinates are independent."""
    return math.sqrt(2 * (1 + beta ** 2) / ((1 - beta ** 2) * dim * n))


def cells_for_level(beta, dim=2):
    """Independent cells whose averaged window means put 3 standard errors
    within LEVEL_RTOL: one at beta = 0.5, 2 at 0.9, 15 at 0.99, where the
    autocorrelation time is ~100 steps and one 6,000-step window is 1.3
    standard errors from a 10% miss."""
    return math.ceil((3 * level_standard_error(beta, dim, LEVEL_WINDOW) / LEVEL_RTOL) ** 2)


@functools.lru_cache(maxsize=None)
def stationary_level(beta):
    """Mean ||omega||^2 over the post-burn-in windows of independent nshb cells
    on a constant gradient (C^2 = 1, b = 1) stepped as one stack, and whether
    every cell's direction-noise flag passes."""
    spec = ConstantGradient(dim=2, variance=1.0, coefficient=[1.0, 1.0])
    cfg = OptimizerConfig(algo="nshb", eta=0.05, beta=beta, batch_size=1)
    streams = [RngStream(7).child(c) for c in range(cells_for_level(beta))]
    traces = simulate(spec, [cfg] * len(streams), streams, x0=np.zeros(2),
                      max_steps=default_burn_in(beta) + LEVEL_WINDOW)
    summaries = [search_direction_noise(t, spec).summary for t in traces]
    return (float(np.mean([s.mean_omega_sq for s in summaries])),
            all(s.direction_noise_bound_holds for s in summaries))


class TestGradientNoiseSamples:
    def test_zero_variance_all_zero(self):
        q = NoisyQuadratic(dim=2, variance=0.0)
        samples = gradient_noise_samples(q, [1.0, 1.0], 500, RngStream(0))
        np.testing.assert_array_equal(samples, np.zeros(500))

    def test_squared_mean_matches_variance(self):
        q = NoisyQuadratic(dim=2, variance=4.0)
        samples = gradient_noise_samples(q, [0.2, -0.4], 100_000, RngStream(1))
        np.testing.assert_allclose(np.mean(samples ** 2), 4.0, rtol=0.05)

    def test_measurement_protocol_count(self):
        q = NoisyQuadratic(dim=2, variance=1.0)
        assert gradient_noise_samples(q, [0.0, 0.0], 500, RngStream(2)).shape == (500,)

    @pytest.mark.parametrize("spec", [NoisyQuadratic(dim=3, variance=2.0),
                                      ConstantGradient(dim=2, variance=1.0)])
    def test_roots_of_the_b1_deviation_samples_bit_for_bit(self, spec):
        x = np.linspace(-1.0, 1.0, spec.dim)
        samples = gradient_noise_samples(spec, x, 300, RngStream(9))
        sq = minibatch_deviation_sq_samples(spec, x, 1, 300, RngStream(9))
        assert np.array_equal(samples, np.sqrt(sq))


class TestSearchDirectionNoise:
    def test_sgd_noise_coincides_with_gradient_noise(self):
        """For sgd the direction is the minibatch gradient, so the two
        noise series agree record by record."""
        q = NoisyQuadratic(dim=2, variance=4.0)
        cfg = OptimizerConfig(algo="sgd", eta=0.05, batch_size=4)
        trace = run(q, cfg, x0=np.array([1.0, 1.0]), max_steps=2_000, rng=RngStream(3))
        report = search_direction_noise(trace, q)
        np.testing.assert_array_equal(report.omega_sq, report.grad_noise_sq)
        np.testing.assert_allclose(report.summary.mean_omega_sq, 1.0, rtol=0.1)

    @pytest.mark.parametrize("beta", [0.5, 0.9, 0.99])
    def test_stationary_momentum_noise_level(self, beta):
        """Mean ||omega||^2 settles at (1-beta)/(1+beta) * C^2/b, below the
        C^2/b bound, so the direction-noise flag passes; enough cells are
        averaged that the 10% tolerance is at least 3 standard errors."""
        cells = cells_for_level(beta)
        assert 3 * level_standard_error(beta, 2, LEVEL_WINDOW) / math.sqrt(cells) <= LEVEL_RTOL
        level, flags_pass = stationary_level(beta)
        np.testing.assert_allclose(level, (1 - beta) / (1 + beta), rtol=LEVEL_RTOL)
        assert flags_pass

    @pytest.mark.parametrize("planted", [lambda beta: 1 / (1 + beta),
                                         lambda beta: 1.25 * (1 - beta) / (1 + beta)],
                             ids=["one-over-one-plus-beta", "level-25-percent-high"])
    @pytest.mark.parametrize("beta", [0.5, 0.9, 0.99])
    def test_stationary_level_catches_a_planted_level(self, beta, planted):
        """The same measurement rejects a wrong stationary level: 1/(1+beta),
        or the right one 25% high (3.75 standard errors past the tolerance)."""
        level, _ = stationary_level(beta)
        assert not np.isclose(level, planted(beta), rtol=LEVEL_RTOL, atol=0.0)

    def test_stationary_noise_formula_against_plain_recurrence(self):
        """Independent oracle: simulate the scalar buffer recurrence directly
        and compare its stationary second moment with the closed form."""
        beta = 0.9
        gen = np.random.default_rng(42)
        omega = np.zeros(2)
        acc = []
        for t in range(30_000):
            e = gen.standard_normal(2) / np.sqrt(2.0)    # total variance 1
            omega = (1 - beta) * e + beta * omega
            if t >= 200:
                acc.append(omega @ omega)
        np.testing.assert_allclose(np.mean(acc), (1 - beta) / (1 + beta), rtol=0.05)

    def test_buffer_lag_sides_at_stationarity(self):
        """lhs -> 2/(1+beta) * C^2/b exceeds rhs = beta(2-beta) * C^2/b for
        beta = 0.9, so the reported inequality fails there by design."""
        beta = 0.9
        spec, trace = stationary_trace(beta, 8_000)
        s = search_direction_noise(trace, spec).summary
        np.testing.assert_allclose(s.buffer_lag_lhs, 2.0 / (1 + beta), rtol=0.05)
        np.testing.assert_allclose(s.buffer_lag_rhs, beta * (2 - beta), rtol=0.05)
        assert s.buffer_lag_bound_holds is False

    def test_shb_buffer_noise_exceeds_budget(self):
        """The unnormalized heavy-ball buffer converges to grad/(1 - bb), so
        its direction noise carries a grad * bb/(1 - bb) offset and sits
        far above C^2/b; the report flags this honestly."""
        beta_bar = 0.9
        spec = ConstantGradient(dim=2, variance=1.0, coefficient=[1.0, 1.0])
        cfg = OptimizerConfig(algo="shb", gamma=0.005, beta_bar=beta_bar, batch_size=1)
        trace = run(spec, cfg, x0=np.zeros(2), max_steps=4_000, rng=RngStream(8))
        report = search_direction_noise(trace, spec)
        offset_sq = (beta_bar / (1 - beta_bar)) ** 2 * 2.0   # ||c||^2 = 2
        assert report.summary.mean_omega_sq > 0.5 * offset_sq
        assert report.summary.direction_noise_bound_holds is False

    def test_too_short_trace_rejected(self):
        spec, trace = stationary_trace(0.9, 50)
        with pytest.raises(ValueError):
            search_direction_noise(trace, spec)

    def test_default_burn_in(self):
        assert default_burn_in(0.0) == 100
        assert default_burn_in(0.9) == 100
        assert default_burn_in(0.99) == 1000

    def test_early_bias_flag_with_large_gradient(self):
        """With a large constant gradient the zero-initialised buffer makes
        early omega_t much larger than its stationary level."""
        spec = ConstantGradient(dim=2, variance=0.01, coefficient=[30.0, 0.0])
        cfg = OptimizerConfig(algo="nshb", eta=0.001, beta=0.9, batch_size=1)
        trace = run(spec, cfg, x0=np.zeros(2), max_steps=3_000, rng=RngStream(5))
        report = search_direction_noise(trace, spec)
        assert report.summary.early_bias_flagged is True
        assert report.summary.early_mean_omega_sq > report.summary.mean_omega_sq


class TestMinibatchDeviationSamples:
    def test_mean_is_c2_over_b(self):
        q = NoisyQuadratic(dim=2, variance=4.0)
        x = np.array([1.0, 0.0])
        for b in (1, 16):
            s = minibatch_deviation_sq_samples(q, x, b, 50_000, RngStream(6).child(b))
            np.testing.assert_allclose(np.mean(s), 4.0 / b, rtol=0.05)

    @pytest.mark.parametrize("b", [1, 64])
    @pytest.mark.parametrize("spec", [
        NoisyQuadratic(dim=1, variance=2.0), NoisyQuadratic(dim=2, variance=4.0),
        FiniteSumLeastSquares(np.arange(10.0).reshape(5, 2) % 3, np.arange(5.0))],
        ids=["quadratic-dim1", "quadratic-dim2", "finite-sum"])
    def test_streamed_blocks_equal_the_whole_array(self, spec, b):
        """Reduced a block at a time, the samples have the bits of
        rowdot(means - grad) over every mean drawn from the same stream at
        once: three full blocks and a remainder."""
        x = np.linspace(1.0, -2.0, spec.dim)
        m = 3 * spec._block_rows(b, at_point=True) + 5
        dev = spec.minibatch_grad_means(x, b, m, RngStream(8).generator()) - spec.grad(x)
        assert np.array_equal(minibatch_deviation_sq_samples(spec, x, b, m, RngStream(8)),
                              rowdot(dev, dev))

    @pytest.mark.parametrize("spec", [
        NoisyQuadratic(dim=2, variance=4.0),
        FiniteSumLeastSquares(np.arange(10.0).reshape(5, 2) % 3, np.arange(5.0))],
        ids=["quadratic-dim2", "finite-sum"])
    def test_one_gradient_for_every_block(self, spec, monkeypatch):
        """Five blocks of two rows are drawn through minibatch_grad_means,
        around one exact gradient at x taken once for the call, to the bits
        of the blocks each taking its own."""
        x, b = np.array([1.0, -2.0]), 4
        monkeypatch.setattr(problems, "_CHUNK_SCALARS", 2 * spec._row_scalars(b, True))
        gen, want = RngStream(6).generator(), []
        for _ in range(5):
            dev = spec.minibatch_grad_means(x, b, 2, gen) - spec.grad(x)
            want.extend(rowdot(dev, dev))
        grads, blocks = [], []
        grad, means = spec.grad, spec.minibatch_grad_means
        monkeypatch.setattr(spec, "grad", lambda x: grads.append(x) or grad(x))
        monkeypatch.setattr(spec, "minibatch_grad_means",
                            lambda *args: blocks.append(args) or means(*args))
        got = minibatch_deviation_sq_samples(spec, x, b, 10, RngStream(6))
        assert len(blocks) == 5 and len(grads) == 1
        assert np.array_equal(got, want)

    def test_bad_counts_rejected(self):
        q = NoisyQuadratic(dim=2, variance=4.0)
        for b, m in ((0, 10), (1, 0)):
            with pytest.raises(ValueError):
                minibatch_deviation_sq_samples(q, np.zeros(2), b, m, RngStream(0))


class TestTailStats:
    def test_gaussian_reference(self):
        gen = np.random.default_rng(0)
        stats = tail_stats(gen.standard_normal(200_000))
        # 99% CI of sample excess kurtosis for n = 2e5 is about +-0.03
        assert abs(stats.excess_kurtosis) < 0.05
        np.testing.assert_allclose(stats.variance, 1.0, rtol=0.02)
        assert stats.tail_mass[3] == pytest.approx(0.0027, abs=0.001)

    def test_uniform_kurtosis(self):
        gen = np.random.default_rng(1)
        stats = tail_stats(gen.uniform(-1, 1, 200_000))
        np.testing.assert_allclose(stats.excess_kurtosis, -1.2, atol=0.05)

    def test_laplace_kurtosis(self):
        gen = np.random.default_rng(2)
        stats = tail_stats(gen.laplace(size=400_000))
        np.testing.assert_allclose(stats.excess_kurtosis, 3.0, atol=0.25)

    def test_tail_mass_monotone(self):
        gen = np.random.default_rng(3)
        stats = tail_stats(gen.standard_normal(100_000))
        assert stats.tail_mass[3] >= stats.tail_mass[4] >= stats.tail_mass[5]
        assert all(0.0 <= v <= 1.0 for v in stats.tail_mass.values())

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            tail_stats(np.arange(10))

    def test_additive_noise_per_coordinate_is_light_tailed(self):
        """Per-coordinate deviations of the Gaussian oracle show zero excess
        kurtosis within the 99% CI."""
        q = NoisyQuadratic(dim=4, variance=2.0)
        draws = q.minibatch_grad_means(np.zeros(4), 1, 50_000, RngStream(9).generator())
        coords = (draws - q.grad(np.zeros(4))).ravel()
        stats = tail_stats(coords)
        # 99% CI half-width for n = 2e5: 2.58 * sqrt(24/n) ~ 0.028
        assert abs(stats.excess_kurtosis) < 0.03
