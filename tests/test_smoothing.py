"""Smoothing operator, gap bound, mean-update identity, sharpness."""

import tracemalloc

import numpy as np
import pytest

from noise_lab import problems
from noise_lab.problems import (ConstantGradient, FiniteSumLeastSquares, NoisyQuadratic,
                                RngStream, SineBowl)
from noise_lab.smoothing import (
    SharpnessSpec,
    SmoothingSpec,
    adaptive_sharpness,
    degree_of_smoothing,
    draw_directions,
    gd_vs_nshb_expectation,
    mean_direction_norm,
    smoothed_value,
    smoothing_gap_check,
)


def norm_f(X):
    return np.linalg.norm(np.atleast_2d(X), axis=1)


class TestDegreeOfSmoothing:
    def test_zero_variance(self):
        assert degree_of_smoothing(0.1, 0.0, 8) == 0.0

    def test_reference_value(self):
        """eta=0.1, C^2=1280, b=2^7 -> 0.1 * sqrt(10) = 0.31623."""
        np.testing.assert_allclose(degree_of_smoothing(0.1, 1280.0, 2 ** 7),
                                   0.31623, rtol=1e-4)

    def test_strictly_decreasing_in_batch(self):
        values = [degree_of_smoothing(0.1, 1280.0, 2 ** k) for k in range(3, 14)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_signature_has_no_momentum_parameter(self):
        """The smoothing scale is a function of (eta, C^2, b) only; there is
        no momentum knob to pass."""
        import inspect
        assert list(inspect.signature(degree_of_smoothing).parameters) == [
            "eta", "c_sq", "b"]

    def test_validation(self):
        with pytest.raises(ValueError):
            degree_of_smoothing(0.1, 1.0, 0)


class TestDirections:
    def test_sphere_unit_norm(self):
        u = draw_directions("unit-sphere-uniform", 5, 2000, RngStream(0).generator())
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, rtol=1e-12)

    def test_gaussian_scaled_mean_norm(self):
        u = draw_directions("gaussian-scaled", 4, 200_000, RngStream(1).generator())
        np.testing.assert_allclose(np.mean(np.linalg.norm(u, axis=1)), 1.0, rtol=0.01)

    def test_ball_mean_norm_below_one(self):
        dim = 3
        u = draw_directions("ball-uniform", dim, 200_000, RngStream(2).generator())
        norms = np.linalg.norm(u, axis=1)
        assert np.max(norms) <= 1.0 + 1e-12
        np.testing.assert_allclose(np.mean(norms), dim / (dim + 1.0), rtol=0.01)

    def test_analytic_mean_norms(self):
        assert mean_direction_norm("unit-sphere-uniform", 9) == 1.0
        assert mean_direction_norm("ball-uniform", 3) == pytest.approx(0.75)


class TestSmoothedValue:
    def test_delta_zero_exact(self):
        q = NoisyQuadratic(dim=2)
        sv = smoothed_value(q, [1.5, 0.5], SmoothingSpec(delta=0.0), RngStream(0))
        assert sv.estimate == q.value(np.array([1.5, 0.5]))
        assert sv.std_error == 0.0

    def test_quadratic_at_origin(self):
        """f = 0.5||x||^2 with unit-sphere u gives f_hat(0) = delta^2 / 2
        exactly (every sample equals it)."""
        q = NoisyQuadratic(dim=3)
        delta = 0.7
        sv = smoothed_value(q, np.zeros(3), SmoothingSpec(delta=delta, samples=10_000),
                            RngStream(1))
        np.testing.assert_allclose(sv.estimate, delta ** 2 / 2, rtol=1e-12)

    def test_norm_function_gap_within_lipschitz_bound(self):
        sv = smoothed_value(norm_f, np.array([2.0, 1.0, 0.0]),
                            SmoothingSpec(delta=0.4, samples=50_000), RngStream(2))
        gap = abs(sv.estimate - np.linalg.norm([2.0, 1.0, 0.0]))
        assert gap <= 0.4 + 3 * sv.std_error

    def test_monotone_in_delta_at_quadratic_minimizer(self):
        """f_hat_delta(x*) = delta^2/2 is non-decreasing in delta for the
        convex quadratic."""
        q = NoisyQuadratic(dim=2)
        estimates = [
            smoothed_value(q, np.zeros(2), SmoothingSpec(delta=d, samples=4_000),
                           RngStream(3)).estimate
            for d in (0.0, 0.2, 0.5, 1.0, 2.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(estimates, estimates[1:]))

    def test_reports_mean_direction_norm(self):
        q = NoisyQuadratic(dim=4)
        sv = smoothed_value(q, np.ones(4), SmoothingSpec(delta=0.3, samples=5_000),
                            RngStream(4))
        np.testing.assert_allclose(sv.mean_direction_norm, 1.0, rtol=1e-9)

    def test_callable_gets_rows_of_points(self):
        """A callable f is only ever given an (m, dim) array, the point itself
        included, and returns its m values."""
        shapes = []

        def f(X):
            shapes.append(X.shape)
            return np.sum(X * X, axis=1)

        assert smoothed_value(f, np.ones(3), SmoothingSpec(delta=0.0),
                              RngStream(0)).estimate == 3.0
        smoothed_value(f, np.ones(3), SmoothingSpec(delta=0.2, samples=50), RngStream(0))
        smoothing_gap_check(f, [np.ones(3), np.zeros(3)], delta=0.2, lipschitz=10.0,
                            samples=50, rng=RngStream(1))
        assert shapes == [(1, 3), (50, 3), (50, 3), (1, 3), (50, 3), (1, 3)]

    def test_overflowing_squares_raise(self):
        """Values near 1e200 are finite but their squares are not: the variance
        would be inf - inf, which once read as a standard error of 0."""
        q = NoisyQuadratic(dim=2, curvature=[1.0, 2.0])
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="overflow"):
            smoothed_value(q, np.zeros(2), SmoothingSpec(delta=1e100, samples=1000),
                           RngStream(0))

    def test_finite_sum_values_in_bounded_blocks(self):
        """A large finite sum's values are taken a block of rows at a time, in
        the smoothing average and in a random search alike: no temporary holds
        more than _CHUNK_SCALARS scalars, where a (points, n) residual matrix
        and its square held 8 MB each."""
        gen = np.random.default_rng(5)
        fs = FiniteSumLeastSquares(gen.standard_normal((2000, 16)), gen.standard_normal(2000))
        x = np.zeros(16)
        for measure in (
                lambda: smoothed_value(fs, x, SmoothingSpec(delta=0.1, samples=500), RngStream(6)),
                lambda: adaptive_sharpness(fs, x, SharpnessSpec(rho=0.1, method="random-search",
                                                                iters=500), RngStream(7))):
            tracemalloc.start()
            try:
                measure()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 8 * problems._CHUNK_SCALARS


class TestSmoothingGapCheck:
    def test_delta_zero_all_gaps_zero(self):
        c = ConstantGradient(dim=2, coefficient=[1.0, 1.0])
        report = smoothing_gap_check(c, [[0.0, 0.0], [1.0, 2.0]], delta=0.0,
                                     samples=100, rng=RngStream(0))
        assert report.all_passed
        assert all(p.gap == 0.0 for p in report.points)

    def test_norm_boundary_case(self):
        """f = ||x|| at x = 0: every sphere sample is exactly delta, so the
        gap hits the bound delta * L_f with zero Monte-Carlo error."""
        report = smoothing_gap_check(norm_f, [np.zeros(3)], delta=0.5, lipschitz=1.0,
                                     samples=10_000, rng=RngStream(1))
        point = report.points[0]
        np.testing.assert_allclose(point.gap, 0.5, rtol=1e-12)
        assert point.passed

    def test_sine_bowl_on_box(self):
        spec = SineBowl(dim=3, amplitude=0.5, frequency=2.0)
        lip = spec.lipschitz_on_box(3.0)
        gen = np.random.default_rng(7)
        pts = gen.uniform(-1.5, 1.5, size=(4, 3))
        for delta in (0.1, 0.3, 1.0):
            report = smoothing_gap_check(spec, pts, delta=delta, lipschitz=lip,
                                         samples=20_000, rng=RngStream(2))
            assert report.all_passed

    def test_missing_lipschitz_rejected(self):
        q = NoisyQuadratic(dim=2)   # no global Lipschitz constant
        with pytest.raises(ValueError):
            smoothing_gap_check(q, [np.zeros(2)], delta=0.1, rng=RngStream(0))

    def test_one_sample_rejected(self):
        """One sample has no standard error, so the gap has no allowance."""
        c = ConstantGradient(dim=2, coefficient=[1.0, 1.0])
        with pytest.raises(ValueError, match="samples >= 2"):
            smoothing_gap_check(c, [np.zeros(2)], delta=0.1, samples=1, rng=RngStream(0))
        assert smoothing_gap_check(c, [np.zeros(2)], delta=0.1, samples=2,
                                   rng=RngStream(0)).points[0].std_error < float("inf")

    def test_objective_constant_used_by_default(self):
        c = ConstantGradient(dim=2, coefficient=[3.0, 4.0])   # L_f = 5
        report = smoothing_gap_check(c, [np.zeros(2)], delta=0.2, samples=5_000,
                                     rng=RngStream(3))
        assert report.lipschitz == pytest.approx(5.0)
        assert report.all_passed


class TestMeanUpdateIdentity:
    def setup_method(self):
        self.spec = ConstantGradient(dim=2, variance=1.0, coefficient=[1.0, 1.0])

    def test_beta_zero_pure_noise(self):
        """With no momentum the replica mean deviates only by the
        Monte-Carlo error of the unbiased noise."""
        rep = gd_vs_nshb_expectation(self.spec, np.zeros(2), eta=0.1, beta=0.0,
                                     replicas=20_000, burn_in=0, rng=RngStream(0))
        assert rep.discrepancy <= 4.0 * np.sqrt(0.1 ** 2 * 1.0 / 20_000)

    def test_burned_in_buffer_is_unbiased(self):
        rep = gd_vs_nshb_expectation(self.spec, np.zeros(2), eta=0.1, beta=0.9,
                                     replicas=10_000, burn_in=250, rng=RngStream(1))
        assert rep.within_confidence

    def test_no_burn_in_bias_matches_prediction(self):
        """At t = 0 the buffer is zero, so E[omega_0] = -beta grad f and the
        replica mean sits at eta beta ||grad f(x0)||."""
        rep = gd_vs_nshb_expectation(self.spec, np.zeros(2), eta=0.1, beta=0.9,
                                     replicas=10_000, burn_in=0, rng=RngStream(2))
        np.testing.assert_allclose(rep.discrepancy, rep.early_bias_reference,
                                   rtol=0.05)
        assert not rep.within_confidence

    def test_validation(self):
        with pytest.raises(ValueError):
            gd_vs_nshb_expectation(self.spec, np.zeros(2), eta=0.1, beta=0.9,
                                   replicas=1, rng=RngStream(0))

    @pytest.mark.parametrize("kind", ["constant-gradient", "finite-sum-least-squares"])
    def test_burn_in_leaves_the_exact_gradients_to_the_draw(self, monkeypatch, kind):
        """The burn-in draws without the exact gradients, which the draw takes
        only where its kind reads them: the report is that of a burn-in that
        passes grad(X) at every step, and a finite sum's gradient runs only
        twice: once on the stack of replicas at the last step, once at x_start."""
        gen = np.random.default_rng(5)
        spec = self.spec if kind == "constant-gradient" else FiniteSumLeastSquares(
            gen.standard_normal((50, 2)), gen.standard_normal(50))
        args = dict(x_start=np.array([0.5, -1.0]), eta=0.05, beta=0.9, replicas=300,
                    burn_in=20, rng=RngStream(4), batch_size=2)
        calls = []
        grad = type(spec).grad
        monkeypatch.setattr(type(spec), "grad", lambda obj, x: calls.append(1) or grad(obj, x))
        got = gd_vs_nshb_expectation(spec, **args)
        if kind == "finite-sum-least-squares":
            assert len(calls) == 2

        draw = spec.minibatch_grad_ensemble
        monkeypatch.setattr(spec, "minibatch_grad_ensemble",
                            lambda X, b, gens, G=None: draw(X, b, gens, spec.grad(X)))
        assert got == gd_vs_nshb_expectation(spec, **args)


class TestAdaptiveSharpness:
    def test_constant_function_is_flat(self):
        flat = ConstantGradient(dim=2, coefficient=[0.0, 0.0])
        spec = SharpnessSpec(rho=1.0, method="random-search", iters=64)
        assert adaptive_sharpness(flat, np.zeros(2), spec, RngStream(0)) == 0.0

    def test_zero_radius(self):
        q = NoisyQuadratic(dim=2)
        spec = SharpnessSpec(rho=0.0, iters=10)
        assert adaptive_sharpness(q, np.ones(2), spec, RngStream(0)) == 0.0

    def test_quadratic_sign_ascent_reference(self):
        """1-d quadratic at w=0 with rho=1, p=inf: the max over |delta|<=1 is
        0.5; sign ascent walks to the boundary and clips onto it."""
        q = NoisyQuadratic(dim=1, variance=0.0)
        spec = SharpnessSpec(rho=1.0, p="inf", method="sign-ascent", iters=50)
        value = adaptive_sharpness(q, np.zeros(1), spec, RngStream(1))
        np.testing.assert_allclose(value, 0.5, rtol=0.02)

    def test_random_search_lower_bounds_truth(self):
        q = NoisyQuadratic(dim=3, curvature=[1.0, 2.0, 0.5])
        w = np.array([0.3, -0.2, 0.1])
        spec = SharpnessSpec(rho=0.7, p="inf", method="random-search", iters=256)
        est = adaptive_sharpness(q, w, spec, RngStream(2))
        # true max over the box is at a corner
        corners = 0.7 * np.array(np.meshgrid(*[[-1, 1]] * 3)).T.reshape(-1, 3)
        truth = max(q.value(w + c) - q.value(w) for c in corners)
        assert 0.0 <= est <= truth + 1e-12

    def test_monotone_in_rho(self):
        q = NoisyQuadratic(dim=2)
        w = np.array([0.5, -0.5])
        vals = [
            adaptive_sharpness(q, w, SharpnessSpec(rho=r, method="sign-ascent", iters=40),
                               RngStream(3))
            for r in (0.1, 0.5, 1.0, 2.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_iters(self):
        q = SineBowl(dim=2, amplitude=0.4, frequency=3.0)
        w = np.array([0.2, -0.1])
        vals = [
            adaptive_sharpness(q, w, SharpnessSpec(rho=1.0, method="random-search",
                                                   iters=k), RngStream(4))
            for k in (8, 32, 128)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_p2_random_search_draws_ball_uniform_directions(self):
        q = SineBowl(dim=3, amplitude=0.4, frequency=3.0)
        w = np.array([0.2, -0.1, 0.4])
        c = np.array([1.0, 0.5, 2.0])
        spec = SharpnessSpec(rho=0.8, c=c, p=2, method="random-search", iters=64)
        value = adaptive_sharpness(q, w, spec, RngStream(6))
        deltas = 0.8 * c * draw_directions("ball-uniform", 3, 64, RngStream(6).generator())
        assert value == max(0.0, float(np.max(q.value(w + deltas) - q.value(w))))

    def test_non_finite_value_is_kept(self):
        """At rho = 1e200 the quadratic's values overflow: the NaN they leave is
        returned, not dropped for the zero perturbation's 0.0."""
        spec = SharpnessSpec(rho=1e200, p=2, method="sign-ascent", iters=5)
        with np.errstate(over="ignore", invalid="ignore"):
            value = adaptive_sharpness(NoisyQuadratic(dim=2), np.zeros(2), spec, RngStream(0))
        assert np.isnan(value)

    def test_p2_projection_respected(self):
        q = NoisyQuadratic(dim=2)
        spec = SharpnessSpec(rho=1.0, p=2, method="sign-ascent", iters=60)
        value = adaptive_sharpness(q, np.zeros(2), spec, RngStream(5))
        # max of 0.5||delta||^2 on the euclidean unit ball is 0.5
        assert value <= 0.5 + 1e-9
        np.testing.assert_allclose(value, 0.5, rtol=0.05)

    def test_scaling_vector_validation(self):
        with pytest.raises(ValueError):
            SharpnessSpec(rho=1.0, c=np.array([1.0, 0.0]))
