"""Objective oracles: exact values, unbiased noise, minibatch scaling."""

import random
import sys
import threading

import numpy as np
import pytest

from noise_lab.problems import (
    ConstantGradient,
    FiniteSumLeastSquares,
    NoisyQuadratic,
    RngStream,
    SineBowl,
    make_objective,
)


def two_sample_finite_sum():
    # per-sample gradients at x = 0 are (2, 0) and (0, 2)
    return FiniteSumLeastSquares(data=[[1.0, 0.0], [0.0, 1.0]], targets=[-2.0, -2.0])


class TestRngStream:
    def test_same_path_same_sequence(self):
        a = RngStream(123, (1, 2)).generator().standard_normal(8)
        b = RngStream(123, (1, 2)).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = RngStream(123).child(0).generator().standard_normal(8)
        b = RngStream(123).child(1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_string_labels_are_stable(self):
        a = RngStream(5).child("minibatch", 3)
        b = RngStream(5).child("minibatch", 3)
        assert a == b

    def test_generator_restarts_from_origin(self):
        s = RngStream(7)
        first = s.generator().standard_normal(4)
        second = s.generator().standard_normal(4)
        np.testing.assert_array_equal(first, second)


def numpy_generator(stream, *step):
    """The oracle: numpy's own SeedSequence seeding of the stream's path, or
    of child(t)'s when a step t is given."""
    seq = np.random.SeedSequence(stream.master_seed, spawn_key=stream.path + step)
    return np.random.default_rng(seq)


def assert_numpy_bits(stream, *step):
    """stream.generator() or, given a step t, stream.generator(t) draws numpy's bits."""
    ours, oracle = stream.generator(*step), numpy_generator(stream, *step)
    np.testing.assert_array_equal(ours.standard_normal(5), oracle.standard_normal(5))
    np.testing.assert_array_equal(ours.integers(0, 2 ** 62, size=5),
                                  oracle.integers(0, 2 ** 62, size=5))


MASTER_SEEDS = [0, 1, 2024, 2 ** 32 + 5, 2 ** 70 + 3, 2 ** 130 + 7]


class TestSeedSequenceReplay:
    """generator() and generator(t) draw bit for bit what numpy's SeedSequence seeds."""

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    @pytest.mark.parametrize("path", [(), ("minibatch",), (3, "ensemble", 0),
                                      (2 ** 32,), (2 ** 40 + 1, 7)])
    def test_streams(self, seed, path):
        assert_numpy_bits(RngStream(seed, path))
        if path:
            assert_numpy_bits(RngStream(seed).child(*path))

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_steps_in_order_across_blocks(self, seed):
        for parent in (RngStream(seed), RngStream(seed).child("cell", 3)):
            for t in range(1201):
                assert_numpy_bits(parent, t)

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_steps_out_of_order(self, seed):
        parent = RngStream(seed, (9,))
        for t in [700, 3, 130, 129, 128, 127, 0, 1199, 255, 256, 5, 700]:
            assert_numpy_bits(parent, t)

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_labels_at_and_past_two_to_the_32(self, seed):
        parent = RngStream(seed).child("big")
        for t in [2 ** 32 - 2, 2 ** 32 - 1, 2 ** 32, 2 ** 33 + 5, 2 ** 64 + 1, 0, 2 ** 32 - 1]:
            assert_numpy_bits(parent, t)

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    @pytest.mark.parametrize("labels", [(7,), (0,), (2 ** 32 - 1,), ("identity",),
                                        ("cell", 3), (4, 2)])
    def test_one_off_children_of_a_fresh_parent(self, seed, labels):
        for parent in (RngStream(seed), RngStream(seed, ("cell", 2 ** 40))):
            assert_numpy_bits(parent.child(*labels))

    @pytest.mark.parametrize("parent", [RngStream(17).child("cell"), RngStream(2 ** 130 + 7),
                                        RngStream(2 ** 70 + 3, (2 ** 40, "cell", 2 ** 64 + 9))])
    def test_a_block_fills_from_the_first_label(self, parent):
        for t in (5, 6, 700):
            assert_numpy_bits(parent, t)
            assert parent._child_seeds.window[0] == (700 if t == 700 else 5)
            assert len(parent._child_seeds.window[1]) == 128

    def test_parents_interleaved(self):
        parents = [RngStream(seed).child(c) for seed in (1, 2 ** 70 + 3) for c in range(3)]
        steps = [(p, t) for p in parents for t in range(300)]
        random.Random(0).shuffle(steps)
        for parent, t in steps:
            assert_numpy_bits(parent, t)

    @pytest.mark.parametrize("stream", [RngStream(0), RngStream(2024, (3, 7)),
                                        RngStream(2 ** 70 + 3, (2 ** 40, "cell"))])
    @pytest.mark.parametrize("t", [0, 127, 128, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1])
    def test_step_generator_is_the_childs(self, stream, t):
        ours = stream.generator(t).standard_normal(5)
        assert np.array_equal(ours, stream.child(t).generator().standard_normal(5))
        assert np.array_equal(ours, numpy_generator(stream, t).standard_normal(5))

    def test_memo_is_not_part_of_the_value(self):
        stepped = RngStream(5).child(3)
        stepped.generator(7)
        assert stepped._child_seeds is not None
        assert stepped == RngStream(5, (3,)) and hash(stepped) == hash(RngStream(5, (3,)))
        assert repr(stepped) == "RngStream(master_seed=5, path=(3,))"

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1).generator()
        with pytest.raises(ValueError):
            RngStream(-1).child(0)

    def test_threads_sharing_a_parent_get_numpy_bits(self):
        """Threads race on one parent's block window; every draw still
        equals numpy's."""
        parent = RngStream(2024).child("shared")
        labels = list(range(0, 2000, 3))
        want = {t: numpy_generator(parent, t).standard_normal(3) for t in labels}
        errors = []

        def worker(order):
            for t in order:
                if not np.array_equal(parent.generator(t).standard_normal(3), want[t]):
                    errors.append(t)

        orders = [random.Random(k).sample(labels, len(labels)) for k in range(4)]
        threads = [threading.Thread(target=worker, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []


class TestEvalF:
    def test_quadratic_minimum(self):
        q = NoisyQuadratic(dim=2)
        assert q.value([0.0, 0.0]) == 0.0

    def test_quadratic_hand_value(self):
        q = NoisyQuadratic(dim=2)
        assert q.value([2.0, 0.0]) == 2.0

    def test_constant_gradient_hand_value(self):
        c = ConstantGradient(dim=2, coefficient=[1.0, 1.0])
        assert c.value([3.0, 4.0]) == 7.0

    def test_dimension_mismatch(self):
        q = NoisyQuadratic(dim=2)
        with pytest.raises(ValueError):
            q.value([1.0, 2.0, 3.0])

    def test_value_many_matches_loop(self):
        rng = np.random.default_rng(0)
        for spec in (NoisyQuadratic(dim=3, curvature=[1.0, 2.0, 0.5]),
                     ConstantGradient(dim=3, coefficient=[1.0, -1.0, 2.0]),
                     SineBowl(dim=3, amplitude=0.7, frequency=2.0),
                     FiniteSumLeastSquares(rng.standard_normal((5, 3)),
                                           rng.standard_normal(5))):
            X = rng.standard_normal((6, 3))
            want = [spec.value(row) for row in X]
            np.testing.assert_allclose(spec.value_many(X), want, rtol=1e-12)


class TestEvalGrad:
    def test_quadratic_gradient_is_x(self):
        q = NoisyQuadratic(dim=2)
        np.testing.assert_array_equal(q.grad([2.0, 0.0]), [2.0, 0.0])

    def test_constant_gradient(self):
        c = ConstantGradient(dim=2, coefficient=[1.0, 1.0])
        np.testing.assert_array_equal(c.grad([9.0, -3.0]), [1.0, 1.0])

    def test_finite_sum_average(self):
        fs = two_sample_finite_sum()
        np.testing.assert_allclose(fs.grad([0.0, 0.0]), [1.0, 1.0], atol=1e-15)

    def test_finite_sum_consistency(self):
        """Averaging all per-sample gradients equals the full gradient."""
        rng = np.random.default_rng(3)
        fs = FiniteSumLeastSquares(rng.standard_normal((40, 4)), rng.standard_normal(40))
        x = rng.standard_normal(4)
        avg = fs.per_sample_grads(x).mean(axis=0)
        np.testing.assert_allclose(avg, fs.grad(x), rtol=1e-12)

    def test_grad_many_matches_loop(self):
        rng = np.random.default_rng(1)
        spec = SineBowl(dim=2, amplitude=0.5, frequency=3.0)
        X = rng.standard_normal((7, 2))
        np.testing.assert_allclose(spec.grad_many(X),
                                   np.stack([spec.grad(r) for r in X]), rtol=1e-12)

    def test_sine_bowl_gradient_finite_difference(self):
        spec = SineBowl(dim=3, amplitude=0.8, frequency=2.5)
        x = np.array([0.3, -1.1, 0.7])
        h = 1e-6
        num = np.array([
            (spec.value(x + h * e) - spec.value(x - h * e)) / (2 * h)
            for e in np.eye(3)
        ])
        np.testing.assert_allclose(spec.grad(x), num, atol=1e-6)


class TestStochasticGrad:
    def test_zero_variance_is_exact(self):
        q = NoisyQuadratic(dim=2, variance=0.0)
        g = q.minibatch_grad_means([1.0, 2.0], 1, 1, RngStream(0))[0]
        np.testing.assert_array_equal(g, q.grad([1.0, 2.0]))

    def test_deviation_second_moment(self):
        """Monte-Carlo E||G - grad f||^2 equals the configured C^2."""
        q = NoisyQuadratic(dim=2, variance=4.0)
        x = np.array([1.0, -1.0])
        draws = q.minibatch_grad_means(x, 1, 100_000, RngStream(11))
        dev = draws - q.grad(x)
        mean_sq = np.mean(np.sum(dev * dev, axis=1))
        np.testing.assert_allclose(mean_sq, 4.0, rtol=0.05)

    def test_unbiasedness(self):
        """||mean G - grad f|| <= 4 sqrt(C^2/m)."""
        q = NoisyQuadratic(dim=3, variance=9.0)
        x = np.array([0.5, 1.5, -2.0])
        m = 100_000
        draws = q.minibatch_grad_means(x, 1, m, RngStream(21))
        err = np.linalg.norm(draws.mean(axis=0) - q.grad(x))
        assert err <= 4.0 * np.sqrt(9.0 / m)

    def test_finite_sum_uniform_index(self):
        fs = two_sample_finite_sum()
        draws = fs.minibatch_grad_means(np.zeros(2), 1, 20_000, RngStream(4))
        first = np.array([2.0, 0.0])
        second = np.array([0.0, 2.0])
        is_first = np.all(np.isclose(draws, first), axis=1)
        is_second = np.all(np.isclose(draws, second), axis=1)
        assert np.all(is_first | is_second)
        np.testing.assert_allclose(is_first.mean(), 0.5, atol=0.02)

    def test_bit_for_bit_determinism(self):
        q = SineBowl(dim=4, variance=2.0)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        a = q.minibatch_grad_means(x, 1, 1, RngStream(9, (2,)))
        b = q.minibatch_grad_means(x, 1, 1, RngStream(9, (2,)))
        np.testing.assert_array_equal(a, b)


class TestMinibatchGrad:
    def test_b1_matches_single_draw(self):
        """At b = 1 a minibatch is one draw: the gradient plus dim normals
        scaled to per-coordinate variance C^2 / dim."""
        q = NoisyQuadratic(dim=2, variance=4.0)
        x = np.array([1.0, 1.0])
        s = RngStream(13)
        np.testing.assert_array_equal(q.minibatch_grad_means(x, 1, 1, s)[0],
                                      q.grad(x) + s.generator().standard_normal(2) * q.noise_scale)

    def test_zero_variance_any_batch(self):
        q = NoisyQuadratic(dim=2, variance=0.0)
        g = q.minibatch_grad_means([3.0, -1.0], 16, 1, RngStream(0))[0]
        np.testing.assert_array_equal(g, q.grad([3.0, -1.0]))

    def test_variance_scaling_b4(self):
        """Variance-of-the-mean equality case: E||dev||^2 = C^2 / 4 at b=4."""
        q = NoisyQuadratic(dim=2, variance=4.0)
        x = np.array([1.0, 1.0])
        means = q.minibatch_grad_means(x, 4, 100_000, RngStream(17))
        dev = means - q.grad(x)
        np.testing.assert_allclose(np.mean(np.sum(dev * dev, axis=1)), 1.0, rtol=0.05)

    def test_variance_scaling_grid(self):
        q = NoisyQuadratic(dim=2, variance=4.0)
        x = np.array([0.3, -0.7])
        for b in (1, 4, 16, 64):
            means = q.minibatch_grad_means(x, b, 100_000, RngStream(19).child(b))
            dev = means - q.grad(x)
            np.testing.assert_allclose(np.mean(np.sum(dev * dev, axis=1)),
                                       4.0 / b, rtol=0.05)

    def test_zero_batch_rejected(self):
        q = NoisyQuadratic(dim=2, variance=1.0)
        with pytest.raises(ValueError):
            q.minibatch_grad_means([0.0, 0.0], 0, 1, RngStream(0))

    def test_finite_sum_ensemble_matches_chunk_distribution(self):
        """The per-row ensemble draw has the same mean/covariance scale as
        the fixed-point sampler."""
        rng = np.random.default_rng(8)
        fs = FiniteSumLeastSquares(rng.standard_normal((30, 3)), rng.standard_normal(30))
        x = rng.standard_normal(3)
        ens = fs.minibatch_grad_ensemble(np.tile(x, (20_000, 1)), 4, RngStream(33).generator(),
                                         np.tile(fs.grad(x), (20_000, 1)))
        ref = fs.minibatch_grad_means(x, 4, 20_000, RngStream(44))
        np.testing.assert_allclose(ens.mean(axis=0), ref.mean(axis=0), atol=0.05)
        dev_e = np.mean(np.sum((ens - fs.grad(x)) ** 2, axis=1))
        dev_r = np.mean(np.sum((ref - fs.grad(x)) ** 2, axis=1))
        np.testing.assert_allclose(dev_e, dev_r, rtol=0.1)


class TestKnownConstants:
    def test_configured_variance_round_trip(self):
        q = NoisyQuadratic(dim=8, variance=1280.0)
        assert q.constants().variance == 1280.0

    def test_constant_gradient_constants(self):
        c = ConstantGradient(dim=2, coefficient=[1.0, 1.0])
        consts = c.constants()
        np.testing.assert_allclose(consts.grad_sq_bound, 2.0)
        np.testing.assert_allclose(consts.lipschitz, np.sqrt(2.0))

    def test_finite_sum_sample_count(self):
        fs = two_sample_finite_sum()
        assert fs.constants().sample_count == 2

    def test_quadratic_unbounded_fields_are_unknown(self):
        consts = NoisyQuadratic(dim=2, variance=1.0).constants()
        assert consts.grad_sq_bound is None
        assert consts.lipschitz is None

    def test_sine_bowl_box_lipschitz(self):
        s = SineBowl(dim=4, amplitude=0.5, frequency=2.0)
        # sup ||grad|| <= sqrt(d) (R + a w)
        assert s.lipschitz_on_box(3.0) == pytest.approx(2.0 * (3.0 + 1.0))

    def test_quadratic_box_lipschitz_bounds_gradient(self):
        q = NoisyQuadratic(dim=3, curvature=[1.0, 2.0, 0.5])
        bound = q.lipschitz_on_box(2.0)
        gen = np.random.default_rng(12)
        X = gen.uniform(-2.0, 2.0, size=(200, 3))
        assert np.all(np.linalg.norm(q.grad_many(X), axis=1) <= bound + 1e-12)


class TestMakeObjective:
    def test_kinds_build(self):
        assert make_objective("noisy-quadratic", dim=2, variance=1.0).kind == "noisy-quadratic"
        assert make_objective("constant-gradient", dim=2).kind == "constant-gradient"
        fs = make_objective("finite-sum-least-squares",
                            params={"data": [[1.0, 0.0]], "targets": [1.0]})
        assert fs.n == 1
        assert make_objective("nonconvex-sine-bowl", dim=2,
                              params={"amplitude": 0.5, "frequency": 2.0}).kind == "nonconvex-sine-bowl"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_objective("rosenbrock", dim=2)

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            make_objective("noisy-quadratic", dim=2, params={"slope": 1.0})

    def test_x0_param_sets_default_start(self):
        q = make_objective("noisy-quadratic", dim=2, params={"x0": [3.0, 4.0]})
        np.testing.assert_array_equal(q.default_start(), [3.0, 4.0])

    def test_finite_sum_minimizer(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        fs = make_objective("finite-sum-least-squares",
                            params={"data": A.tolist(), "targets": y.tolist()})
        x_star = fs.minimizer()
        np.testing.assert_allclose(fs.grad(x_star), 0.0, atol=1e-10)
