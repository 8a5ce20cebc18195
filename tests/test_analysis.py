"""Bound arithmetic, ensemble estimation, identities, verify suite."""

import threading
import time

import numpy as np
import pytest

from noise_lab import analysis
from noise_lab.analysis import (
    VerifySettings,
    convergence_bound_report,
    ensemble,
    grid_convex,
    grid_monotone_decreasing,
    lhs_inner_product,
    weighted_norm_identity,
    run_verify_suite,
    stationarity_check,
    thm_rhs,
)
from noise_lab.optimizers import OptimizerConfig, run
from noise_lab.problems import ConstantGradient, NoisyQuadratic, RngStream, SineBowl


class TestThmRhs:
    def test_sgd_reference(self):
        """||x0-x||^2=1, eta=0.1, T=100, C^2/b=1, K^2=1 -> 0.05 + 0.1."""
        comps = thm_rhs("sgd", 1.0, 0.1, 100, 1.0, 1, 1.0)
        assert comps.first_term == pytest.approx(0.05)
        assert comps.variance_term == pytest.approx(0.1)
        assert comps.momentum_term == 0.0
        assert comps.rhs == pytest.approx(0.15)

    def test_nshb_adds_momentum_term(self):
        comps = thm_rhs("nshb", 1.0, 0.1, 100, 1.0, 1, 1.0, d=1.0, beta=0.9)
        assert comps.momentum_term == pytest.approx(0.9)
        assert comps.rhs == pytest.approx(1.05)

    def test_beta_zero_matches_sgd(self):
        a = thm_rhs("sgd", 2.0, 0.05, 50, 4.0, 8, 3.0)
        b = thm_rhs("nshb", 2.0, 0.05, 50, 4.0, 8, 3.0, d=5.0, beta=0.0)
        assert a.rhs == b.rhs

    def test_component_decomposition_exact(self):
        comps = thm_rhs("nshb", 3.7, 0.13, 77, 11.0, 4, 2.2, d=1.9, beta=0.7)
        assert comps.rhs - (comps.first_term + comps.momentum_term
                            + comps.variance_term) == 0.0


class TestLhsInnerProduct:
    def test_degenerate_reference_is_zero(self):
        spec = ConstantGradient(dim=2, variance=0.0, coefficient=[1.0, 1.0])
        cfg = OptimizerConfig(algo="sgd", eta=0.0001, batch_size=1)
        x0 = np.array([0.3, 0.4])
        traces = ensemble(spec, cfg, x0, steps=1, seeds=30, rng=RngStream(0))
        mean, conf = lhs_inner_product(traces, x0)
        assert mean == pytest.approx(0.0)
        assert conf == pytest.approx(0.0)

    def test_noiseless_descent_convexity_sign(self):
        """On a convex quadratic, <x - x*, grad f(x)> >= 0 all along the
        path."""
        spec = NoisyQuadratic(dim=2, variance=0.0)
        cfg = OptimizerConfig(algo="sgd", eta=0.1, batch_size=1)
        traces = ensemble(spec, cfg, np.array([2.0, -1.0]), steps=50, seeds=30,
                          rng=RngStream(1))
        mean, _ = lhs_inner_product(traces, np.zeros(2))
        assert mean > 0.0

    def test_too_few_traces_rejected(self):
        spec = NoisyQuadratic(dim=2, variance=0.0)
        cfg = OptimizerConfig(algo="sgd", eta=0.1, batch_size=1)
        traces = ensemble(spec, cfg, np.ones(2), steps=5, seeds=5, rng=RngStream(2))
        with pytest.raises(ValueError):
            lhs_inner_product(traces, np.zeros(2))


class TestConvergenceBoundReport:
    @pytest.mark.parametrize("eta,b", [(0.1, 8), (0.05, 8), (0.1, 64)])
    def test_sgd_bound_holds_across_settings(self, eta, b):
        spec = NoisyQuadratic(dim=2, variance=4.0)
        cfg = OptimizerConfig(algo="sgd", eta=eta, batch_size=b)
        report = convergence_bound_report(spec, cfg, np.array([2.0, -1.0]),
                                          np.zeros(2), steps=200, seeds=60,
                                          rng=RngStream(3).child(b, int(eta * 100)))
        assert report.holds
        assert report.lhs - report.lhs_confidence <= report.rhs
        assert report.components.momentum_term == 0.0

    def test_nshb_report_carries_d_estimate(self):
        spec = NoisyQuadratic(dim=2, variance=4.0)
        cfg = OptimizerConfig(algo="nshb", eta=0.1, beta=0.9, batch_size=8)
        report = convergence_bound_report(spec, cfg, np.array([2.0, -1.0]),
                                          np.zeros(2), steps=200, seeds=60,
                                          rng=RngStream(4))
        assert report.components.momentum_term > 0.0
        assert any(note.startswith("D:") for note in report.regime_notes)


class TestWeightedNormIdentity:
    def test_hand_case(self):
        out = weighted_norm_identity([1.0, 0.0], [0.0, 1.0], 0.5)
        assert out["lhs"] == pytest.approx(0.5)
        assert out["rhs"] == pytest.approx(0.5)

    def test_alpha_endpoints(self):
        x, y = np.array([3.0, -1.0]), np.array([0.5, 2.0])
        assert weighted_norm_identity(x, y, 0.0)["abs_diff"] <= 1e-12
        assert weighted_norm_identity(x, y, 1.0)["abs_diff"] <= 1e-12

    def test_randomized_property(self):
        """10^4 random triples, alpha unrestricted; scaled error <= 1e-12."""
        gen = np.random.default_rng(10)
        for _ in range(10_000):
            x = gen.standard_normal(3) * 10.0 ** gen.integers(-2, 3)
            y = gen.standard_normal(3) * 10.0 ** gen.integers(-2, 3)
            a = float(gen.uniform(-3.0, 4.0))
            out = weighted_norm_identity(x, y, a)
            scale = max(np.dot(x, x), np.dot(y, y), 1e-300)
            assert out["abs_diff"] <= 1e-12 * scale


    @pytest.mark.parametrize("dim", [1, 2, 4, 17])
    def test_stacked_rows_equal_per_row_calls(self, dim):
        gen = np.random.default_rng(dim)
        x = gen.standard_normal((300, dim)) * 10.0 ** gen.integers(-3, 4, size=(300, 1))
        y = gen.standard_normal((300, dim))
        a = gen.uniform(-2.0, 3.0, size=300)
        stacked = weighted_norm_identity(x, y, a)
        for key in ("lhs", "rhs", "abs_diff"):
            assert stacked[key].shape == (300,)
            assert stacked[key].tolist() == [weighted_norm_identity(x[i], y[i], a[i])[key]
                                             for i in range(300)]

    def test_check_fails_an_identity_off_by_1e_10(self, monkeypatch):
        rng = RngStream(2024).child("identity")
        assert analysis._identity_check(rng, 10_000).holds
        exact = analysis.weighted_norm_identity

        def planted(x, y, alpha):
            out = exact(x, y, alpha)
            rhs = out["rhs"] * (1.0 + 1e-10)
            return dict(out, rhs=rhs, abs_diff=abs(out["lhs"] - rhs))

        monkeypatch.setattr(analysis, "weighted_norm_identity", planted)
        check = analysis._identity_check(rng, 10_000)
        assert not check.holds and check.lhs > 1e-11


class TestStationarityCheck:
    def test_quadratic_minimizer(self):
        out = stationarity_check(NoisyQuadratic(dim=3), np.zeros(3), 32, RngStream(0))
        assert out["grad_norm"] == 0.0
        assert out["min_inner_product"] >= 0.0
        assert out["consistent"]

    def test_non_stationary_point(self):
        """grad = (1, 0): the witness direction gives inner product
        -||grad||^2 < 0, agreeing that the point is not stationary."""
        spec = ConstantGradient(dim=2, coefficient=[1.0, 0.0])
        out = stationarity_check(spec, np.array([1.0, 1.0]), 16, RngStream(1))
        assert out["min_inner_product"] <= -1.0 + 1e-12
        assert out["consistent"]

    def test_sine_bowl_local_minimizer_from_descent(self):
        spec = SineBowl(dim=2, variance=0.0, amplitude=0.3, frequency=2.0)
        cfg = OptimizerConfig(algo="sgd", eta=0.1, batch_size=1)
        trace = run(spec, cfg, x0=np.array([1.5, -1.0]), max_steps=2_000, rng=RngStream(2),
                    record=False)
        out = stationarity_check(spec, trace.x_final, 64, RngStream(3), grad_tol=1e-6)
        assert out["grad_norm"] < 1e-6
        assert out["consistent"]


class TestTraceBudgetChecks:
    def make_trace(self):
        spec = ConstantGradient(dim=2, variance=1.0, coefficient=[1.0, 1.0])
        cfg = OptimizerConfig(algo="nshb", eta=0.05, beta=0.9, batch_size=1)
        trace = run(spec, cfg, x0=np.zeros(2), max_steps=1500, rng=RngStream(21))
        return trace

    def test_minibatch_second_moment_within_budget(self):
        from noise_lab.analysis import minibatch_second_moment_check
        out = minibatch_second_moment_check(self.make_trace())
        assert out["holds"]
        # E||g_S||^2 = ||c||^2 + C^2/b = 3 on this problem
        np.testing.assert_allclose(out["lhs"], 3.0, rtol=0.1)

    def test_buffer_second_moment_within_budget(self):
        from noise_lab.analysis import buffer_second_moment_check
        out = buffer_second_moment_check(self.make_trace())
        assert out["holds"]
        # E||d||^2 = ||c||^2 + (1-beta)/(1+beta) * C^2/b ~ 2.053
        np.testing.assert_allclose(out["lhs"], 2.0526, rtol=0.1)

    def test_short_trace_rejected(self):
        from noise_lab.analysis import buffer_second_moment_check
        spec = NoisyQuadratic(dim=2, variance=1.0)
        cfg = OptimizerConfig(algo="sgd", eta=0.1, batch_size=1)
        trace = run(spec, cfg, x0=np.ones(2), max_steps=20, rng=RngStream(0))
        with pytest.raises(ValueError):
            buffer_second_moment_check(trace)


class TestGridShapeHelpers:
    def test_convexity_on_uneven_grid(self):
        grid = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        assert grid_convex(grid, 1.0 / grid)
        assert not grid_convex(grid, np.sin(grid))

    def test_monotone(self):
        assert grid_monotone_decreasing(np.array([3.0, 2.0, 1.0]))
        assert not grid_monotone_decreasing(np.array([1.0, 2.0]))


# the schema's floor for every verify budget
FLOORS = VerifySettings(variance_draws=1000, noise_steps=200, ensemble_seeds=30,
                        ensemble_steps=10, identity_triples=100, replicas=100)


def scaling_sampler(monkeypatch, before_64):
    """Patch the suite's deviation sampler to call before_64() ahead of the
    b = 64 draw; returns the thread each b drew on."""
    sampler, threads = analysis.minibatch_deviation_sq_samples, {}

    def patched(spec, x, b, m, rng):
        threads[b] = threading.current_thread()
        if b == 64:
            before_64()
        return sampler(spec, x, b, m, rng)

    monkeypatch.setattr(analysis, "minibatch_deviation_sq_samples", patched)
    return threads


class TestVerifySuite:
    def test_default_suite_asserted_checks_pass(self):
        settings = VerifySettings(ensemble_seeds=40, ensemble_steps=80,
                                  noise_steps=600, variance_draws=20_000,
                                  identity_triples=1_000, replicas=2_000)
        results = run_verify_suite(settings)
        failures = [r.check for r in results if r.asserted and not r.holds]
        assert failures == []

    def test_buffer_lag_diagnostic_reports_false(self):
        settings = VerifySettings(ensemble_seeds=40, ensemble_steps=80,
                                  noise_steps=600, variance_draws=20_000,
                                  identity_triples=1_000, replicas=2_000)
        results = {r.check: r for r in run_verify_suite(settings)}
        lag = results["buffer-lag-noise-bound"]
        assert not lag.asserted
        assert not lag.holds
        assert results["direction-noise-second-moment-bound"].holds

    def test_suite_is_deterministic(self):
        settings = VerifySettings(ensemble_seeds=30, ensemble_steps=40,
                                  noise_steps=400, variance_draws=5_000,
                                  identity_triples=500, replicas=500)
        a = run_verify_suite(settings)
        b = run_verify_suite(settings)
        assert [(r.check, r.lhs, r.rhs, r.holds) for r in a] == \
               [(r.check, r.lhs, r.rhs, r.holds) for r in b]

    def test_thread_timing_changes_no_result(self, monkeypatch):
        """The b = 64 draw runs on a helper thread beside every other check:
        holding it back until the others are done, or holding the first
        main-thread check back until it is done, changes no result."""
        threads = threading.active_count()
        plain = run_verify_suite(FLOORS)
        with monkeypatch.context() as m:
            drew_on = scaling_sampler(m, lambda: time.sleep(0.3))
            late_draw = run_verify_suite(FLOORS)
        assert drew_on[64] is not threading.current_thread()
        assert all(drew_on[b] is threading.current_thread() for b in (1, 4, 16))
        with monkeypatch.context() as m:
            identity = analysis._identity_check
            m.setattr(analysis, "_identity_check",
                      lambda *args: time.sleep(0.3) or identity(*args))
            late_check = run_verify_suite(FLOORS)
        assert plain == late_draw == late_check
        assert threading.active_count() == threads

    def test_scaling_lhs_equals_the_draws_made_in_turn(self):
        rng, quad = RngStream(FLOORS.master_seed), NoisyQuadratic(dim=2, variance=4.0)
        rel = []
        for b in (1, 4, 16, 64):
            mean = float(np.mean(analysis.minibatch_deviation_sq_samples(
                quad, np.array([1.0, -2.0]), b, FLOORS.variance_draws, rng.child("scaling", b))))
            rel.append(abs(mean - 4.0 / b) / (4.0 / b))
        scaling = {r.check: r for r in run_verify_suite(FLOORS)}["minibatch-variance-scaling"]
        assert scaling.lhs == max(rel)

    def test_a_failed_helper_draw_is_raised_by_the_suite(self, monkeypatch):
        planted = RuntimeError("b = 64")

        def fail():
            raise planted

        scaling_sampler(monkeypatch, fail)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            run_verify_suite(FLOORS)
        assert info.value is planted
        assert threading.active_count() == threads

    def test_the_helper_draws_under_the_callers_error_state(self, monkeypatch):
        """numpy's error state does not carry into a new thread: the helper
        sets the caller's, as the CLI's handlers run under over/invalid ignore."""
        seen = []
        scaling_sampler(monkeypatch, lambda: seen.append(np.geterr()))
        with np.errstate(over="ignore", invalid="ignore"):
            caller = np.geterr()
            run_verify_suite(FLOORS)
        assert seen == [caller]
