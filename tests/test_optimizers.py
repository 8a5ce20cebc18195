"""Step updates, the reparameterization map, and the shared-noise run loop."""

import numpy as np
import pytest

from noise_lab.optimizers import (
    OptimizerConfig,
    OptimizerState,
    map_shb_to_nshb,
    nshb_step,
    run,
    sgd_step,
    shb_step,
)
from noise_lab.problems import ConstantGradient, NoisyQuadratic, RngStream


def max_rel_divergence(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / scale))


class TestSgdStep:
    def test_hand_arithmetic(self):
        state = OptimizerState.initial([0.0, 0.0])
        sgd_step(state, np.array([1.0, 2.0]), eta=0.5)
        np.testing.assert_array_equal(state.x, [-0.5, -1.0])
        assert state.t == 1

    def test_zero_gradient_no_move(self):
        state = OptimizerState.initial([1.0, 1.0])
        sgd_step(state, np.zeros(2), eta=0.5)
        np.testing.assert_array_equal(state.x, [1.0, 1.0])

    def test_zero_rate_no_move(self):
        state = OptimizerState.initial([1.0, 1.0])
        sgd_step(state, np.array([5.0, -5.0]), eta=0.0)
        np.testing.assert_array_equal(state.x, [1.0, 1.0])

    def test_non_finite_gradient_raises(self):
        state = OptimizerState.initial([0.0])
        with pytest.raises(FloatingPointError):
            sgd_step(state, np.array([np.nan]), eta=0.1)


class TestNshbStep:
    def test_beta_zero_matches_sgd(self):
        g = np.array([0.7, -1.3])
        s1 = OptimizerState.initial([1.0, 2.0])
        s2 = OptimizerState.initial([1.0, 2.0])
        nshb_step(s1, g, eta=0.3, beta=0.0)
        sgd_step(s2, g, eta=0.3)
        np.testing.assert_array_equal(s1.x, s2.x)

    def test_hand_unrolled_recurrence(self):
        state = OptimizerState.initial([0.0, 0.0])
        nshb_step(state, np.array([2.0, 0.0]), eta=1.0, beta=0.5)
        np.testing.assert_allclose(state.momentum, [1.0, 0.0])
        nshb_step(state, np.array([0.0, 2.0]), eta=1.0, beta=0.5)
        np.testing.assert_allclose(state.momentum, [0.5, 1.0])

    def test_constant_gradient_geometric_form(self):
        """d_t = (1 - beta^{t+1}) g for a constant gradient stream."""
        beta = 0.8
        g = np.array([3.0, -1.0])
        state = OptimizerState.initial(np.zeros(2))
        for t in range(25):
            nshb_step(state, g, eta=0.01, beta=beta)
            np.testing.assert_allclose(state.momentum, (1 - beta ** (t + 1)) * g,
                                       rtol=1e-12)

    def test_invalid_beta(self):
        state = OptimizerState.initial([0.0])
        with pytest.raises(ValueError):
            nshb_step(state, np.array([1.0]), eta=0.1, beta=1.0)


class TestShbStep:
    def test_beta_bar_zero_is_sgd_with_gamma(self):
        g = np.array([1.0, 4.0])
        s1 = OptimizerState.initial([0.0, 0.0])
        s2 = OptimizerState.initial([0.0, 0.0])
        shb_step(s1, g, gamma=0.2, beta_bar=0.0)
        sgd_step(s2, g, eta=0.2)
        np.testing.assert_array_equal(s1.x, s2.x)

    def test_hand_unrolled_recurrence(self):
        state = OptimizerState.initial([0.0, 0.0])
        shb_step(state, np.array([2.0, 0.0]), gamma=0.1, beta_bar=0.5)
        np.testing.assert_allclose(state.momentum, [2.0, 0.0])
        shb_step(state, np.array([0.0, 2.0]), gamma=0.1, beta_bar=0.5)
        np.testing.assert_allclose(state.momentum, [1.0, 2.0])

    def test_constant_gradient_limit(self):
        """m_t -> g / (1 - beta_bar) under a constant gradient."""
        beta_bar = 0.5
        g = np.array([1.0])
        state = OptimizerState.initial(np.zeros(1))
        for _ in range(80):
            shb_step(state, g, gamma=0.0, beta_bar=beta_bar)
        np.testing.assert_allclose(state.momentum, g / (1 - beta_bar), rtol=1e-12)


class TestMapShbToNshb:
    def test_reference_values(self):
        assert map_shb_to_nshb(0.1, 0.9) == pytest.approx((1.0, 0.9))
        assert map_shb_to_nshb(0.5, 0.0) == (0.5, 0.0)
        assert map_shb_to_nshb(0.05, 0.5) == pytest.approx((0.1, 0.5))

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            map_shb_to_nshb(0.1, 1.0)


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(algo="sgd", batch_size=0, eta=0.1)
        with pytest.raises(ValueError):
            OptimizerConfig(algo="sgd")  # missing eta
        with pytest.raises(ValueError):
            OptimizerConfig(algo="nshb", eta=0.1, beta=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(algo="shb", gamma=0.1, beta_bar=-0.1)
        with pytest.raises(ValueError):
            OptimizerConfig(algo="adam", eta=0.1)

    def test_effective_parameters(self):
        shb = OptimizerConfig(algo="shb", gamma=0.1, beta_bar=0.9)
        assert shb.effective_eta_beta() == pytest.approx((1.0, 0.9))
        sgd = OptimizerConfig(algo="sgd", eta=0.3)
        assert sgd.effective_eta_beta() == (0.3, 0.0)


class TestRun:
    def setup_method(self):
        self.spec = NoisyQuadratic(dim=2, variance=4.0)
        self.x0 = np.array([2.0, -1.0])

    def test_max_steps_boundary(self):
        cfg = OptimizerConfig(algo="sgd", eta=0.1, batch_size=2)
        with pytest.raises(ValueError):
            run(self.spec, cfg, x0=self.x0, max_steps=0, rng=RngStream(0))
        trace = run(self.spec, cfg, x0=self.x0, max_steps=1, rng=RngStream(0))
        assert trace.steps == 1
        assert len(trace.records) == 1

    def test_record_fields(self):
        """A recorded run fills the four columns a step makes; f_value and
        dist_to_ref are left to the caller."""
        cfg = OptimizerConfig(algo="sgd", eta=0.1, batch_size=2)
        trace = run(self.spec, cfg, x0=self.x0, max_steps=3, rng=RngStream(0))
        for name in ("grad", "search_direction", "minibatch_grad", "x_snapshot"):
            assert getattr(trace, name).shape == (3, 2), name
        assert trace.f_value is None and trace.dist_to_ref is None
        rec = trace.records[0]
        np.testing.assert_array_equal(rec.x_snapshot, self.x0)
        np.testing.assert_array_equal(rec.grad, self.x0)  # identity curvature
        assert rec.f_value is None and rec.dist_to_ref is None
        # sgd search direction is the minibatch gradient itself
        np.testing.assert_array_equal(rec.search_direction, rec.minibatch_grad)

    def test_determinism(self):
        cfg = OptimizerConfig(algo="nshb", eta=0.1, beta=0.9, batch_size=4)
        t1 = run(self.spec, cfg, x0=self.x0, max_steps=200, rng=RngStream(5))
        t2 = run(self.spec, cfg, x0=self.x0, max_steps=200, rng=RngStream(5))
        np.testing.assert_array_equal(t1.xs(), t2.xs())
        np.testing.assert_array_equal(t1.x_final, t2.x_final)

    def test_nshb_beta0_equals_sgd(self):
        shared = RngStream(8)
        sgd = run(self.spec, OptimizerConfig(algo="sgd", eta=0.1, batch_size=4),
                  x0=self.x0, max_steps=500, rng=shared)
        nshb = run(self.spec, OptimizerConfig(algo="nshb", eta=0.1, beta=0.0, batch_size=4),
                   x0=self.x0, max_steps=500, rng=shared)
        assert max_rel_divergence(sgd.xs(), nshb.xs()) <= 1e-12

    def test_shb_equals_reparameterized_nshb(self):
        shared = RngStream(9)
        gamma, beta_bar = 0.05, 0.9
        eta, beta = map_shb_to_nshb(gamma, beta_bar)
        shb = run(self.spec, OptimizerConfig(algo="shb", gamma=gamma, beta_bar=beta_bar,
                                             batch_size=4),
                  x0=self.x0, max_steps=1000, rng=shared)
        nshb = run(self.spec, OptimizerConfig(algo="nshb", eta=eta, beta=beta,
                                              batch_size=4),
                   x0=self.x0, max_steps=1000, rng=shared)
        assert max_rel_divergence(shb.xs(), nshb.xs()) <= 1e-10
        # the buffers differ by exactly the 1/(1-beta) normalization
        m = shb.search_direction
        d = nshb.search_direction
        assert max_rel_divergence(m * (1 - beta), d) <= 1e-10

    def test_divergence_detection(self):
        cfg = OptimizerConfig(algo="sgd", eta=3.0, batch_size=1)  # |1 - eta| > 1
        trace = run(self.spec, cfg, x0=self.x0, max_steps=5000, rng=RngStream(1))
        assert trace.exit_reason == "diverged"
        assert trace.steps < 5000

    def test_momentum_buffer_second_moment(self):
        """Windowed mean of ||d_t||^2 stays within the empirical
        C^2/b + K^2 budget measured on the same trace."""
        spec = ConstantGradient(dim=2, variance=1.0, coefficient=[1.0, 1.0])
        cfg = OptimizerConfig(algo="nshb", eta=0.05, beta=0.9, batch_size=1)
        trace = run(spec, cfg, x0=np.zeros(2), max_steps=1200, rng=RngStream(12))
        w = slice(100, None)
        dirs = trace.search_direction
        grads = trace.grad
        mbs = trace.minibatch_grad
        lhs = np.mean(np.sum(dirs[w] ** 2, axis=1))
        c2b = np.mean(np.sum((mbs[w] - grads[w]) ** 2, axis=1))
        k2 = np.max(np.sum(grads[w] ** 2, axis=1))
        assert lhs <= (c2b + k2) * 1.05

    def test_stop_rule_duck_typing(self):
        class StopAfter:
            def __init__(self, n):
                self.n = n

            def start(self, rows):
                outer = self

                class Acc:
                    def __init__(self):
                        self.rows = rows

                    def observe(self, t, grad, minibatch_grad, x):
                        assert grad.shape == x.shape == (self.rows, 2)
                        return np.full(self.rows, t + 1 >= outer.n)

                    def keep(self, mask):
                        self.rows = int(np.count_nonzero(mask))

                return Acc()

        cfg = OptimizerConfig(algo="sgd", eta=0.1, batch_size=1)
        trace = run(self.spec, cfg, x0=self.x0, stop=StopAfter(7), max_steps=100,
                    rng=RngStream(2))
        assert trace.steps == 7
        assert trace.exit_reason == "converged"
