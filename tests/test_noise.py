"""Noise measurement: gradient noise, search-direction noise, tails."""

import numpy as np
import pytest

from noise_lab.noise import (
    default_burn_in,
    gradient_noise_samples,
    minibatch_deviation_sq_samples,
    search_direction_noise,
    tail_stats,
)
from noise_lab.optimizers import OptimizerConfig, TraceOptions, run
from noise_lab.problems import ConstantGradient, NoisyQuadratic, RngStream


def stationary_trace(beta, steps, c_sq=1.0, eta=0.05, seed=7):
    spec = ConstantGradient(dim=2, variance=c_sq, coefficient=[1.0, 1.0])
    cfg = OptimizerConfig(algo="nshb", eta=eta, beta=beta, batch_size=1)
    trace = run(spec, cfg, x0=np.zeros(2), max_steps=steps, rng=RngStream(seed),
                trace_options=TraceOptions(record_x=False, record_f=False))
    return spec, trace


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
        trace = run(q, cfg, x0=np.array([1.0, 1.0]), max_steps=2_000,
                    rng=RngStream(3),
                    trace_options=TraceOptions(record_x=False, record_f=False))
        report = search_direction_noise(trace, q)
        np.testing.assert_array_equal(report.omega_sq, report.grad_noise_sq)
        np.testing.assert_allclose(report.summary.mean_omega_sq, 1.0, rtol=0.1)

    @pytest.mark.parametrize("beta", [0.5, 0.9, 0.99])
    def test_stationary_momentum_noise_level(self, beta):
        """Mean ||omega||^2 settles at (1-beta)/(1+beta) * C^2/b, below the
        C^2/b bound, so the direction-noise flag passes."""
        steps = default_burn_in(beta) + 6_000
        spec, trace = stationary_trace(beta, steps)
        report = search_direction_noise(trace, spec)
        expected = (1 - beta) / (1 + beta)
        np.testing.assert_allclose(report.summary.mean_omega_sq, expected, rtol=0.1)
        assert report.summary.direction_noise_bound_holds is True

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
        trace = run(spec, cfg, x0=np.zeros(2), max_steps=4_000, rng=RngStream(8),
                    trace_options=TraceOptions(record_x=False, record_f=False))
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
        trace = run(spec, cfg, x0=np.zeros(2), max_steps=3_000, rng=RngStream(5),
                    trace_options=TraceOptions(record_x=False, record_f=False))
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
        draws = q.minibatch_grad_means(np.zeros(4), 1, 50_000, RngStream(9))
        coords = (draws - q.grad(np.zeros(4))).ravel()
        stats = tail_stats(coords)
        # 99% CI half-width for n = 2e5: 2.58 * sqrt(24/n) ~ 0.028
        assert abs(stats.excess_kurtosis) < 0.03
