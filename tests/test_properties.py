"""Randomized cross-cutting invariants over seeded parameter grids."""

import numpy as np
import pytest

import noise_lab as nl
from noise_lab.optimizers import run
from noise_lab.problems import RngStream


def random_objective(gen, dim):
    kind = gen.integers(0, 4)
    if kind == 0:
        return nl.NoisyQuadratic(dim=dim, variance=float(gen.uniform(0, 5)),
                                 curvature=gen.uniform(0.5, 2.0, dim))
    if kind == 1:
        return nl.ConstantGradient(dim=dim, variance=float(gen.uniform(0, 5)),
                                   coefficient=gen.standard_normal(dim))
    if kind == 2:
        n = int(gen.integers(2, 12))
        return nl.FiniteSumLeastSquares(gen.standard_normal((n, dim)),
                                        gen.standard_normal(n))
    return nl.SineBowl(dim=dim, variance=float(gen.uniform(0, 5)),
                       amplitude=float(gen.uniform(0, 1)),
                       frequency=float(gen.uniform(1, 4)))


class TestOracleProperties:
    def test_minibatch_mean_is_unbiased_for_every_kind(self):
        """Across random objectives and points, the minibatch sampler's mean
        approaches the exact gradient at the 4 sigma / sqrt(m b) level."""
        gen = np.random.default_rng(100)
        for trial in range(12):
            dim = int(gen.integers(1, 5))
            spec = random_objective(gen, dim)
            x = gen.standard_normal(dim)
            b = int(gen.integers(1, 5))
            m = 4_000
            draws = spec.minibatch_grad_means(x, b, m, RngStream(200).child(trial).generator())
            err = np.linalg.norm(draws.mean(axis=0) - spec.grad(x))
            dev = draws - spec.grad(x)
            second_moment = float(np.mean(np.sum(dev * dev, axis=1)))
            assert err <= 4.0 * np.sqrt(max(second_moment, 1e-12) / m) + 1e-12

    def test_value_grad_consistency_by_finite_difference(self):
        gen = np.random.default_rng(101)
        for trial in range(8):
            dim = int(gen.integers(1, 4))
            spec = random_objective(gen, dim)
            x = gen.standard_normal(dim)
            h = 1e-6
            num = np.array([
                (spec.value(x + h * e) - spec.value(x - h * e)) / (2 * h)
                for e in np.eye(dim)
            ])
            np.testing.assert_allclose(spec.grad(x), num, atol=5e-5)

    def test_child_streams_are_decorrelated(self):
        a = RngStream(7).child(1).generator().standard_normal(50_000)
        b = RngStream(7).child(2).generator().standard_normal(50_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


class TestRunProperties:
    def test_sfo_and_record_count_identities(self):
        gen = np.random.default_rng(102)
        spec = nl.NoisyQuadratic(dim=3, variance=2.0)
        for trial in range(6):
            algo = ("sgd", "nshb", "shb")[int(gen.integers(0, 3))]
            kwargs = {"algo": algo, "batch_size": int(gen.integers(1, 9))}
            if algo == "shb":
                kwargs.update(gamma=float(gen.uniform(0.01, 0.1)),
                              beta_bar=float(gen.uniform(0, 0.95)))
            else:
                kwargs.update(eta=float(gen.uniform(0.01, 0.2)),
                              beta=float(gen.uniform(0, 0.95)))
            cfg = nl.OptimizerConfig(**kwargs)
            steps = int(gen.integers(1, 60))
            trace = run(spec, cfg, x0=gen.standard_normal(3), max_steps=steps,
                        rng=RngStream(300).child(trial))
            assert trace.steps == len(trace.records) == steps
            assert trace.exit_reason == "step-cap"
            assert trace.records[-1].t == steps - 1

    def test_reparameterization_round_trip_random_grid(self):
        gen = np.random.default_rng(103)
        spec = nl.NoisyQuadratic(dim=2, variance=1.0)
        for trial in range(5):
            gamma = float(gen.uniform(0.005, 0.05))
            beta_bar = float(gen.uniform(0.0, 0.95))
            eta, beta = nl.map_shb_to_nshb(gamma, beta_bar)
            assert eta * (1 - beta) == pytest.approx(gamma, rel=1e-12)
            stream = RngStream(400).child(trial)
            shb = run(spec, nl.OptimizerConfig(algo="shb", gamma=gamma,
                                               beta_bar=beta_bar, batch_size=2),
                      x0=np.array([1.0, -1.0]), max_steps=200, rng=stream)
            nshb = run(spec, nl.OptimizerConfig(algo="nshb", eta=eta, beta=beta,
                                                batch_size=2),
                       x0=np.array([1.0, -1.0]), max_steps=200, rng=stream)
            scale = np.maximum(np.abs(nshb.xs()), 1.0)
            assert np.max(np.abs(shb.xs() - nshb.xs()) / scale) < 1e-10


class TestCurveProperties:
    def test_sfo_equals_T_times_b(self):
        gen = np.random.default_rng(104)
        for _ in range(50):
            y = float(gen.uniform(0.1, 100.0))
            z = float(gen.uniform(0.0, 0.4))
            params = nl.AnalyticCurveParams(
                X=float(gen.uniform(0.5, 300.0)), Y=y, Z=z,
                epsilon_sq=z + float(gen.uniform(0.05, 1.5)))
            b = params.pole() * float(gen.uniform(1.01, 50.0))
            np.testing.assert_allclose(nl.analytic_sfo(params, b),
                                       nl.analytic_T(params, b) * b, rtol=1e-12)

    def test_critical_batch_first_order_condition(self):
        """The SFO slope changes sign exactly at 2Y/(eps^2 - Z)."""
        gen = np.random.default_rng(105)
        for _ in range(25):
            z = float(gen.uniform(0.0, 0.4))
            params = nl.AnalyticCurveParams(
                X=float(gen.uniform(0.5, 50.0)), Y=float(gen.uniform(0.1, 80.0)),
                Z=z, epsilon_sq=z + float(gen.uniform(0.05, 1.5)))
            b_star = nl.analytic_critical_batch(params)
            h = 1e-6 * b_star
            left = nl.analytic_sfo(params, b_star - h)
            mid = nl.analytic_sfo(params, b_star)
            right = nl.analytic_sfo(params, b_star + h)
            assert mid <= left and mid <= right

    def test_degree_of_smoothing_scaling_laws(self):
        gen = np.random.default_rng(106)
        for _ in range(25):
            eta = float(gen.uniform(0.001, 1.0))
            c_sq = float(gen.uniform(0.1, 2000.0))
            b = int(gen.integers(1, 1 << 13))
            d = nl.degree_of_smoothing(eta, c_sq, b)
            np.testing.assert_allclose(nl.degree_of_smoothing(2 * eta, c_sq, b),
                                       2 * d, rtol=1e-12)
            np.testing.assert_allclose(nl.degree_of_smoothing(eta, 4 * c_sq, b),
                                       2 * d, rtol=1e-12)
            np.testing.assert_allclose(nl.degree_of_smoothing(eta, c_sq, 4 * b),
                                       d / 2, rtol=1e-12)


class TestStopRuleProperties:
    def test_cumulative_norm_matches_manual_prefix_means(self):
        gen = np.random.default_rng(107)
        norms = gen.uniform(0.0, 2.0, 60)
        eps = 0.9
        acc = nl.StopRule(epsilon=eps).start(1)
        fired_at = None
        for t, v in enumerate(norms):
            if acc.observe(t, np.array([v]), None, None):
                fired_at = t
                break
        means = np.cumsum(norms) / np.arange(1, len(norms) + 1)
        below = np.nonzero(means < eps)[0]
        expected = int(below[0]) if below.size else None
        assert fired_at == expected

    def test_inner_product_matches_manual_prefix_means(self):
        gen = np.random.default_rng(108)
        ref = np.zeros(2)
        xs = gen.standard_normal((40, 2))
        gs = gen.standard_normal((40, 2))
        eps = 0.4
        acc = nl.StopRule(epsilon=eps, kind="inner-product",
                          reference_point=ref).start(1)
        fired_at = None
        for t in range(40):
            if acc.observe(t, gs[t], None, xs[t]):
                fired_at = t
                break
        ips = np.sum(xs * gs, axis=1)
        means = np.cumsum(ips) / np.arange(1, 41)
        below = np.nonzero(means <= eps * eps)[0]
        expected = int(below[0]) if below.size else None
        assert fired_at == expected
