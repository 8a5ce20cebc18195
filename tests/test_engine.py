"""The lockstep engine: every cell of a stack must reproduce, bit for bit,
the run it would have made alone under the same stream; the oracle's
draws, made in bounded blocks, must be those of one unblocked draw; and a
step's directly drawn minibatch mean must have the law of b averaged draws."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from noise_lab import problems
from noise_lab.noise import minibatch_deviation_sq_samples
from noise_lab.optimizers import (DIVERGENCE_LIMIT, OptimizerConfig, OptimizerState, nshb_step,
                                  run, sgd_step, shb_step, simulate)
from noise_lab.problems import (CellDraws, ConstantGradient, FiniteSumLeastSquares,
                                NoisyQuadratic, RngStream, SineBowl)
from noise_lab.sweep import StopRule

COLUMNS = ("f_value", "grad", "search_direction", "minibatch_grad", "x_snapshot",
           "dist_to_ref")
# the columns a recorded step fills; the caller derives f_value and dist_to_ref
STEP_COLUMNS = ("grad", "search_direction", "minibatch_grad", "x_snapshot")


def objectives():
    gen = np.random.default_rng(7)
    return [
        NoisyQuadratic(dim=3, variance=2.0, curvature=[1.0, 2.0, 0.5]),
        ConstantGradient(dim=2, variance=1.0, coefficient=[1.0, -1.0]),
        FiniteSumLeastSquares(gen.standard_normal((6, 3)), gen.standard_normal(6)),
        SineBowl(dim=3, variance=1.5, amplitude=0.7, frequency=2.5),
    ]


CONFIGS = [
    OptimizerConfig(algo="sgd", eta=0.05, batch_size=3),
    OptimizerConfig(algo="nshb", eta=0.05, beta=0.8, batch_size=3),
    OptimizerConfig(algo="shb", gamma=0.02, beta_bar=0.7, batch_size=3),
]


def cell_generator(stream):
    """A cell's one generator under stream contract 3, built here from
    numpy's own SeedSequence of the stream's path."""
    seq = np.random.SeedSequence(stream.master_seed, spawn_key=stream.path)
    return np.random.Generator(np.random.PCG64(seq))


def step_draw(spec, x, b, gen):
    """A step's minibatch gradient at x written out under stream contract 3,
    from the next draws of the cell's generator: the additive kinds draw the
    mean of b deviations as dim normals scaled by noise_scale / sqrt(b);
    finite-sum averages the per-sample gradients at b drawn indices."""
    if isinstance(spec, FiniteSumLeastSquares):
        return spec.per_sample_grads(x)[gen.integers(0, spec.n, size=(1, b))].mean(axis=1)[0]
    if spec.variance == 0.0:
        return spec.grad(x)
    return spec.grad(x) + gen.standard_normal(spec.dim) * spec.noise_scale / np.sqrt(b)


def v1_draw(spec, x, b, gen):
    """A step's minibatch as stream contract 1 took it, the mean of b explicit
    draws, here from the next draws of the cell's generator."""
    if isinstance(spec, FiniteSumLeastSquares):
        return spec.per_sample_grads(x)[gen.integers(0, spec.n, size=b)].mean(axis=0)
    if spec.variance == 0.0:
        return spec.grad(x)
    return spec.grad(x) + (gen.standard_normal((b, spec.dim)) * spec.noise_scale).mean(axis=0)


def reference_run(spec, config, x0, max_steps, rng, stop=None, draw=step_draw):
    """The one-cell step loop written out: one generator for the cell, then
    per step the exact gradient, one minibatch from that generator, one
    update, divergence check, then the stop rule."""
    gen = cell_generator(rng)
    state = OptimizerState.initial(x0)
    acc = stop.start(1) if stop is not None else None
    xs, grads, mbs, dirs, fs = [], [], [], [], []
    exit_reason = "step-cap"
    for t in range(max_steps):
        x_t = state.x
        g = spec.grad(x_t)
        gb = draw(spec, x_t, config.batch_size, gen)
        if config.algo == "sgd":
            sgd_step(state, gb, config.eta)
            d = gb
        elif config.algo == "nshb":
            nshb_step(state, gb, config.eta, config.beta)
            d = state.momentum
        else:
            shb_step(state, gb, config.gamma, config.beta_bar)
            d = state.momentum
        xs.append(x_t)
        grads.append(g)
        mbs.append(gb)
        dirs.append(d.copy())
        fs.append(spec.value(x_t))
        if not np.all(np.isfinite(state.x)) or np.max(np.abs(state.x)) > DIVERGENCE_LIMIT:
            exit_reason = "diverged"
            break
        if acc is not None and acc.observe(t, g, gb, x_t):
            exit_reason = "converged"
            break
    return {"exit_reason": exit_reason, "steps": len(xs), "x_final": state.x,
            "x_snapshot": np.array(xs), "grad": np.array(grads),
            "minibatch_grad": np.array(mbs), "search_direction": np.array(dirs),
            "f_value": np.array(fs)}


def assert_same_trace(a, b):
    assert a.exit_reason == b.exit_reason
    assert a.steps == b.steps
    assert np.array_equal(a.x_final, b.x_final)
    for name in COLUMNS:
        col_a, col_b = getattr(a, name), getattr(b, name)
        assert (col_a is None) == (col_b is None), name
        if col_a is not None:
            assert np.array_equal(col_a, col_b), name


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.algo)
@pytest.mark.parametrize("spec", objectives(), ids=lambda s: s.kind)
class TestParity:
    def test_ensemble_equals_per_seed_runs(self, spec, config):
        rng = RngStream(31).child("parity")
        x0 = spec.default_start() * 0.5
        traces = simulate(spec, config, [rng.child(s) for s in range(5)], x0=x0, max_steps=40)
        for seed, trace in enumerate(traces):
            alone = run(spec, config, x0=x0, max_steps=40, rng=rng.child(seed))
            assert_same_trace(trace, alone)

    def test_run_equals_the_written_out_step_loop(self, spec, config):
        x0 = spec.default_start() * 0.5
        trace = run(spec, config, x0=x0, max_steps=60, rng=RngStream(4))
        ref = reference_run(spec, config, x0, 60, RngStream(4))
        assert trace.exit_reason == ref["exit_reason"]
        assert trace.steps == ref["steps"]
        for name in ("x_final", "x_snapshot", "grad", "minibatch_grad", "search_direction"):
            assert np.array_equal(getattr(trace, name), ref[name]), name
        # f of the whole trace in one stacked call has the bits of f at each x_t alone
        assert np.array_equal(spec.value(trace.x_snapshot), ref["f_value"])

    def test_grad_many_rows_equal_grad(self, spec, config):
        """The gradient and value of a stack of many rows equal, row by row, those
        at each point alone."""
        X = np.random.default_rng(3).standard_normal((7, spec.dim)) * 2.0
        G, F = spec.grad(X), spec.value(X)
        for x, g, f in zip(X, G, F):
            assert np.array_equal(g, spec.grad(x))
            assert f == spec.value(x)

    def test_per_row_streams_equal_minibatch_grad(self, spec, config, monkeypatch):
        """The first step of a stack, each row from its stream's generator, is
        that stream's written-out first step draw, with a tape of 64 steps or
        (blocks of 8 dim scalars) none; that is the draw of
        minibatch_grad_means at b = 1, and for finite-sum at any b."""
        X = np.random.default_rng(5).standard_normal((9, spec.dim))
        streams = [RngStream(12, (r, 3)) for r in range(len(X))]
        for chunk_scalars in (problems._CHUNK_SCALARS, 2 * 4 * spec.dim):
            monkeypatch.setattr(problems, "_CHUNK_SCALARS", chunk_scalars)
            for b in (1, 4, 33):
                draws = CellDraws([s.generator() for s in streams])
                G = spec.minibatch_grad_ensemble(X, b, draws, spec.grad(X))
                for x, s, g in zip(X, streams, G):
                    assert np.array_equal(g, step_draw(spec, x, b, cell_generator(s)))
                    if b == 1 or isinstance(spec, FiniteSumLeastSquares):
                        means = spec.minibatch_grad_means(x, b, 1, s.generator())
                        assert np.array_equal(g, means[0])


@pytest.mark.parametrize("config", [replace(c, batch_size=1) for c in CONFIGS],
                         ids=lambda c: c.algo)
@pytest.mark.parametrize("spec", objectives(), ids=lambda s: s.kind)
def test_b1_runs_equal_the_v1_step_loop(spec, config):
    """At b = 1 the directly drawn mean is the one draw that averaging b
    explicit draws takes, so a b = 1 run equals the step loop of contract 1's
    explicit means, drawn from the cell's one generator."""
    x0 = spec.default_start() * 0.5
    trace = run(spec, config, x0=x0, max_steps=60, rng=RngStream(4))
    ref = reference_run(spec, config, x0, 60, RngStream(4), draw=v1_draw)
    assert trace.steps == ref["steps"]
    for name in ("x_final", "minibatch_grad", "search_direction"):
        assert np.array_equal(getattr(trace, name), ref[name]), name


@pytest.mark.parametrize("spec", [s for s in objectives() if s.variance > 0] + [
    FiniteSumLeastSquares(np.random.default_rng(8).standard_normal((200, 8)),
                          np.random.default_rng(9).standard_normal(200))],
                         ids=lambda s: s.kind)
def test_one_exact_gradient_per_step(spec, monkeypatch):
    """A step makes one call of its kind's gradient, on the whole stack, and
    the step's draw reuses the gradient the engine already holds."""
    calls = []
    grad = type(spec).grad

    def counted(obj, x):
        calls.append(np.shape(x))
        return grad(obj, x)
    monkeypatch.setattr(type(spec), "grad", counted)
    config = CONFIGS[1]
    simulate(spec, config, [RngStream(6).child(c) for c in range(4)], max_steps=30)
    assert calls == [(4, spec.dim)] * 30
    calls.clear()
    run(spec, config, max_steps=30, rng=RngStream(6))
    assert calls == [(1, spec.dim)] * 30
    if isinstance(spec, FiniteSumLeastSquares):
        calls.clear()
        simulate(spec, config, [RngStream(6).child(c) for c in range(100)], max_steps=5)
        assert calls == [(100, spec.dim)] * 5


def test_the_step_loop_builds_no_streams(monkeypatch):
    """A step's generator comes from its cell's stream, not from a new
    RngStream per step."""
    rng, built = RngStream(9).child("cell"), []
    post_init = RngStream.__post_init__

    def counted(self):
        built.append(self.path)
        post_init(self)
    monkeypatch.setattr(RngStream, "__post_init__", counted)
    trace = run(NoisyQuadratic(dim=3, variance=2.0), CONFIGS[0], max_steps=500, rng=rng)
    assert trace.steps == 500
    assert built == []


def unblocked_draws(spec, X, b, gen, at_point):
    """One minibatch gradient per row of X from a single draw of the whole
    array. at_point: every row is X[0] and averages b explicit draws, as in
    minibatch_grad_means; otherwise a step's draw, as in
    minibatch_grad_ensemble, where the additive kinds draw each mean directly."""
    if isinstance(spec, FiniteSumLeastSquares):
        # every path gathers each row's per-sample gradients at its b indices
        idx = gen.integers(0, spec.n, size=(X.shape[0], b))
        return np.array([spec.per_sample_grads(x)[i].mean(axis=0) for x, i in zip(X, idx)])
    g = spec.grad(X)
    if spec.variance == 0.0:
        return g + np.zeros_like(X)
    if not at_point:
        return g + gen.standard_normal(X.shape) * spec.noise_scale / np.sqrt(b)
    return g + (gen.standard_normal((X.shape[0], b, spec.dim)) * spec.noise_scale).mean(axis=1)


# numpy sums the b draws of a dim-1 mean along a contiguous axis, pairwise
# once b >= 8, and those of a wider mean one after another: both orders are pinned
DRAW_SPECS = objectives() + [NoisyQuadratic(dim=2), NoisyQuadratic(dim=1, variance=2.0),
                             NoisyQuadratic(dim=16, variance=3.0)]
DRAW_IDS = [s.kind for s in objectives()] + ["noiseless-quadratic", "quadratic-dim1",
                                             "quadratic-dim16"]


@pytest.mark.parametrize("rows", [None, 1, 3], ids=["default-block", "one-row", "three-rows"])
@pytest.mark.parametrize("b", [1, 4, 33])
@pytest.mark.parametrize("spec", DRAW_SPECS, ids=DRAW_IDS)
class TestDrawBlocks:
    """Each public draw entry gives the bits of one unblocked draw, whatever
    number of rows a block holds (10 rows: blocks of 3 leave a remainder);
    a step's draw takes a generator, or a stack's CellDraws, and the rows'
    gradients."""

    @pytest.fixture
    def blocks(self, spec, b, rows, monkeypatch):
        """Sets blocks of `rows` rows of the entry's draws (at_point for the
        means, not for a step) and counts the blocks drawn."""
        calls = []

        def block_rows(at_point):
            if rows is not None:
                monkeypatch.setattr(problems, "_CHUNK_SCALARS",
                                    rows * spec._row_scalars(b, at_point))
            draw = spec._minibatch_block

            def counted(*args):
                calls.append(args[0].shape[0])
                return draw(*args)
            monkeypatch.setattr(spec, "_minibatch_block", counted)
            return calls
        return block_rows

    def points(self, spec):
        return np.random.default_rng(8).standard_normal((10, spec.dim))

    def test_means_at_a_point(self, spec, b, rows, blocks):
        calls = blocks(True)
        x = self.points(spec)[0]
        got = spec.minibatch_grad_means(x, b, 10, RngStream(3, (b,)).generator())
        want = unblocked_draws(spec, np.tile(x, (10, 1)), b, RngStream(3, (b,)).generator(), True)
        assert np.array_equal(got, want)
        assert len(calls) == (1 if rows is None else -(-10 // rows))

    def test_ensemble_from_one_stream(self, spec, b, rows, blocks):
        calls = blocks(False)
        X = self.points(spec)
        got = spec.minibatch_grad_ensemble(X, b, RngStream(4, (b,)).generator(), spec.grad(X))
        want = unblocked_draws(spec, X, b, RngStream(4, (b,)).generator(), False)
        assert np.array_equal(got, want)
        assert len(calls) == (1 if rows is None else -(-10 // rows))

    def test_ensemble_from_a_stream_per_row(self, spec, b, rows, blocks):
        """A row of the per-row path holds only its own output, so all rows
        are one block whatever the block size."""
        calls = blocks(False)
        X = self.points(spec)
        streams = [RngStream(5, (b, r)) for r in range(len(X))]
        got = spec.minibatch_grad_ensemble(X, b, CellDraws([s.generator() for s in streams]),
                                           spec.grad(X))
        assert np.array_equal(got, [step_draw(spec, x, b, cell_generator(s))
                                    for x, s in zip(X, streams)])
        assert len(calls) == 1

    def test_ensemble_without_gradients(self, spec, b, rows, blocks):
        """Without the rows' gradients a draw computes them where it reads
        them, block by block, to the same bits."""
        blocks(False)
        X = self.points(spec)
        for gens in (RngStream(4, (b,)).generator,
                     lambda: CellDraws([RngStream(5, (b, r)).generator()
                                        for r in range(len(X))])):
            assert np.array_equal(spec.minibatch_grad_ensemble(X, b, gens()),
                                  spec.minibatch_grad_ensemble(X, b, gens(), spec.grad(X)))


LAW_BATCHES = (1, 8, 512)
LAW_Z = 4.5     # per statistic, two-sided; 30 statistics make a check


def deviation_law_holds(spec, x, n, rng, batches=LAW_BATCHES, z=LAW_Z) -> bool:
    """Draw n step minibatches (one cell generator per row, as a stack steps) and n
    minibatch_grad_means at x for each b; both sets of deviations from
    grad f(x) must have every coordinate's mean within z standard errors of
    0 and a mean squared norm within z standard errors of C^2 / b. The
    errors are those of N(0, C^2 / (b dim)) coordinates: sqrt(C^2 / (b dim n))
    for a mean, C^2 / b * sqrt(2 / (dim n)) for the squared norm's."""
    g, c2 = spec.grad(x), spec.variance
    for b in batches:
        step = rng.child("step", b)
        cells = CellDraws([step.child(i).generator() for i in range(n)])
        paths = (spec.minibatch_grad_ensemble(np.tile(x, (n, 1)), b, cells, np.tile(g, (n, 1))),
                 spec.minibatch_grad_means(x, b, n, rng.child("means", b).generator()))
        for draws in paths:
            d = draws - g
            mean_z = d.mean(axis=0) / np.sqrt(c2 / (b * spec.dim * n))
            sq_z = (np.sum(d * d, axis=1).mean() - c2 / b) / (c2 / b * np.sqrt(2 / (spec.dim * n)))
            if np.abs(mean_z).max() > z or abs(sq_z) > z:
                return False
    return True


LAW_X, LAW_DRAWS = np.array([1.0, -2.0, 0.5, 3.0]), 4000


def test_step_means_have_the_law_of_averaged_draws():
    spec = NoisyQuadratic(dim=4, variance=3.0)
    assert deviation_law_holds(spec, LAW_X, LAW_DRAWS, RngStream(2026))


@pytest.mark.parametrize("scale", [lambda b: b ** -0.25, lambda b: np.sqrt(1.1 / b)],
                         ids=["variance-over-sqrt-b", "variance-10-percent-high"])
def test_deviation_law_catches_a_planted_step_sampler(monkeypatch, scale):
    """A step path whose mean has variance C^2 / sqrt(b), or 1.1 C^2 / b, fails."""
    spec = NoisyQuadratic(dim=4, variance=3.0)
    draw = spec._minibatch_block

    def planted(X, b, draws, G, at_point):
        if at_point:
            return draw(X, b, draws, G, at_point)
        z = np.stack([gen.standard_normal(spec.dim) for gen in draws.gens])
        return G + z * spec.noise_scale * scale(b)
    monkeypatch.setattr(spec, "_minibatch_block", planted)
    assert not deviation_law_holds(spec, LAW_X, LAW_DRAWS, RngStream(2026))


def test_minibatch_means_hold_one_block_of_draws_at_a_time():
    """100,000 minibatch means at b = 64 and dim 2 are 12.8M Gaussians (98 MB);
    drawn in 1 MB blocks, the call's peak stays a few (m, dim) arrays."""
    spec, x = NoisyQuadratic(2, 4.0), np.array([1.0, -2.0])
    RngStream(0).generator()        # numpy.random loaded before tracing starts
    tracemalloc.start()
    try:
        samples = minibatch_deviation_sq_samples(spec, x, 64, 100_000, RngStream(6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert samples.shape == (100_000,)
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("b", [1, 64])
def test_deviations_hold_one_block_beside_their_samples(b):
    """200,000 deviations at dim 2 are drawn and reduced a block at a time:
    the call's peak stays below its (m,) samples plus 2.5 MB, where the whole
    (m, dim) means, their deviations and squares took ~6 MB more."""
    spec, x = NoisyQuadratic(2, 4.0), np.array([1.0, -2.0])
    RngStream(0).generator()        # numpy.random loaded before tracing starts
    tracemalloc.start()
    try:
        samples = minibatch_deviation_sq_samples(spec, x, b, 200_000, RngStream(6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert samples.shape == (200_000,)
    assert peak < samples.nbytes + 2.5e6


def splitting_problem():
    """1-d least squares with samples a = 1 and a = 30 at eta = 0.05: a step
    on sample 0 shrinks x by 0.95, one on sample 1 multiplies it by -44, so
    cells whose first draw is sample 1 run away (past the divergence limit
    after 37 to 56 steps on the streams below) while the others meet the
    stop rule at their second step."""
    spec = FiniteSumLeastSquares(data=[[1.0], [30.0]], targets=[0.0, 0.0])
    config = OptimizerConfig(algo="sgd", eta=0.05, batch_size=1)
    x0 = np.array([1e-4])
    return spec, config, x0


@pytest.mark.parametrize("kind", ["cumulative-grad-norm", "inner-product"])
def test_cells_leave_the_stack_on_divergence_and_convergence(kind):
    spec, config, x0 = splitting_problem()
    g0 = float(np.linalg.norm(spec.grad(x0)))
    if kind == "cumulative-grad-norm":
        stop = StopRule(epsilon=0.98 * g0)
    else:
        stop = StopRule(epsilon=float(np.sqrt(0.97 * np.dot(x0, spec.grad(x0)))),
                        kind=kind, reference_point=np.zeros(1))
    streams = [RngStream(8).child(c) for c in range(10)]
    for cap in (200, 40):
        traces = simulate(spec, config, streams, x0=x0, stop=stop, max_steps=cap)
        reasons = {t.exit_reason for t in traces}
        assert {"converged", "diverged"} <= reasons
        assert ("step-cap" in reasons) == (cap == 40)
        for stream, trace in zip(streams, traces):
            alone = run(spec, config, x0=x0, stop=stop, max_steps=cap, rng=stream)
            assert_same_trace(trace, alone)
            ref = reference_run(spec, config, x0, cap, stream, stop=stop)
            assert trace.exit_reason == ref["exit_reason"]
            assert trace.steps == ref["steps"]
            assert np.array_equal(trace.x_snapshot, ref["x_snapshot"])


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.algo)
def test_a_non_finite_minibatch_gradient_ends_only_its_cell(config):
    """One sample's gradient overflows at x0, so a cell that draws it has an
    infinite minibatch gradient: that cell ends as diverged at that step, while
    every other cell of the stack runs on as it would alone."""
    spec = FiniteSumLeastSquares(data=[[1.0], [0.5], [0.8], [1e200]], targets=[0.0] * 4)
    config = replace(config, batch_size=1)
    x0 = np.array([1e-4])
    streams = [RngStream(8).child(c) for c in range(8)]
    with np.errstate(over="ignore", invalid="ignore"):
        traces = simulate(spec, config, streams, x0=x0, max_steps=4)
        for stream, trace in zip(streams, traces):
            alone = run(spec, config, x0=x0, max_steps=4, rng=stream)
            gb = trace.minibatch_grad
            if trace.exit_reason == "diverged":
                assert not np.isfinite(gb[-1]).all() and np.isfinite(gb[:-1]).all()
                assert np.isnan(trace.x_final).all()
                assert (alone.exit_reason, alone.steps) == ("diverged", trace.steps)
                assert np.array_equal(alone.minibatch_grad, gb)
            else:
                assert trace.exit_reason == "step-cap" and np.isfinite(gb).all()
                assert_same_trace(trace, alone)
                ref = reference_run(spec, config, x0, 4, stream)
                assert np.array_equal(trace.x_snapshot, ref["x_snapshot"])
    reasons = [t.exit_reason for t in traces]
    assert "diverged" in reasons and "step-cap" in reasons


def test_no_streams_take_no_steps(monkeypatch):
    """A stack of no cells returns no traces at once, without stepping."""
    spec, calls = NoisyQuadratic(dim=2, variance=1.0), []
    monkeypatch.setattr(type(spec), "grad", lambda obj, x: calls.append(len(x)) or x)
    assert simulate(spec, CONFIGS[0], [], max_steps=100_000) == []
    assert calls == []


@pytest.mark.parametrize("epsilon", [0.15, 1e-300])
def test_a_stopped_stack_grows_its_columns_as_it_steps(epsilon):
    """Under a stop rule the recorded columns start at 1,024 rows and double
    up to the cap: cells that converge at steps 2,166 to 2,257 (epsilon 0.15),
    or run to the cap of 2,500, hold the first steps of the same cells
    recorded without a stop rule, whose columns are allocated at once."""
    spec, config = NoisyQuadratic(dim=2, variance=1.0), OptimizerConfig(algo="sgd", eta=0.01)
    x0, streams = np.array([2.0, -1.0]), [RngStream(3).child(c) for c in range(3)]
    full = simulate(spec, config, streams, x0=x0, max_steps=2500)
    stopped = simulate(spec, config, streams, x0=x0, stop=StopRule(epsilon=epsilon),
                       max_steps=2500)
    assert all(t.steps > 2048 for t in stopped)
    for trace, whole in zip(stopped, full):
        for name in STEP_COLUMNS:
            assert np.array_equal(getattr(trace, name), getattr(whole, name)[:trace.steps])


def test_batch_sizes_must_be_contiguous_and_one_per_stream():
    """Rows of equal batch size form one draw group: a size that comes back
    after another is rejected before any step, as is a list of the wrong length;
    each trace carries its row's size and equals its cell run alone."""
    spec, streams = NoisyQuadratic(dim=2, variance=1.0), [RngStream(4).child(c) for c in range(4)]
    for sizes in ([2, 4, 2, 4], [1, 1, 8, 1], [2, 2, 4]):
        with pytest.raises(ValueError, match="equal sizes contiguous"):
            simulate(spec, CONFIGS[0], streams, batch_sizes=sizes, max_steps=3)
    traces = simulate(spec, CONFIGS[0], streams, batch_sizes=[4, 4, 1, 2], max_steps=3)
    for b, stream, trace in zip((4, 4, 1, 2), streams, traces):
        assert trace.config == replace(CONFIGS[0], batch_size=b)
        assert_same_trace(trace, run(spec, trace.config, max_steps=3, rng=stream))


@pytest.mark.parametrize("kind", ["cumulative-grad-norm", "inner-product"])
def test_each_cell_keeps_its_own_stop_accumulator(kind):
    spec = NoisyQuadratic(dim=2, variance=4.0)
    config = OptimizerConfig(algo="nshb", eta=0.1, beta=0.5, batch_size=1)
    x0 = np.array([2.0, -1.0])
    stop = StopRule(epsilon=0.6, kind=kind, reference_point=np.zeros(2))
    streams = [RngStream(3).child(c) for c in range(12)]
    traces = simulate(spec, config, streams, x0=x0, stop=stop, max_steps=400, record=False)
    converged = [t.steps for t in traces if t.exit_reason == "converged"]
    assert len(set(converged)) > 3          # cells leave the stack at different steps
    for stream, trace in zip(streams, traces):
        alone = run(spec, config, x0=x0, stop=stop, max_steps=400, rng=stream, record=False)
        assert_same_trace(trace, alone)


class TestColumnarTrace:
    def setup_method(self):
        self.spec = NoisyQuadratic(dim=2, variance=4.0)
        self.cfg = OptimizerConfig(algo="nshb", eta=0.1, beta=0.5, batch_size=2)

    def test_records_are_a_view_of_the_columns(self):
        trace = run(self.spec, self.cfg, x0=np.array([2.0, -1.0]), max_steps=5, rng=RngStream(1))
        # the two derived columns, filled in after the run as `noise-lab run` fills them
        trace.f_value = self.spec.value(trace.xs())
        trace.dist_to_ref = np.sqrt(np.sum(trace.xs() ** 2, axis=1))
        recs = trace.records
        assert len(recs) == trace.steps == 5
        assert [r.t for r in recs] == list(range(5))
        assert recs[-1].t == 4 and [r.t for r in recs[1:3]] == [1, 2]
        with pytest.raises(IndexError):
            recs[5]
        for t, rec in enumerate(recs):
            assert rec.f_value == self.spec.value(trace.x_snapshot[t])
            assert np.array_equal(rec.search_direction, trace.search_direction[t])
            assert rec.dist_to_ref == np.sqrt(np.sum(trace.xs()[t] ** 2))
            assert rec.as_dict()["grad"] == [float(v) for v in trace.grad[t]]

    def test_records_reproduce_every_column(self):
        trace = run(self.spec, self.cfg, x0=np.array([2.0, -1.0]), max_steps=7, rng=RngStream(2))
        recs = trace.records
        assert isinstance(recs, list) and len(recs) == trace.steps == 7
        for name in STEP_COLUMNS:
            assert np.array_equal(np.array([getattr(r, name) for r in recs]),
                                  getattr(trace, name)), name
        assert all(r.f_value is None and r.dist_to_ref is None for r in recs)
        quiet = run(self.spec, self.cfg, max_steps=7, rng=RngStream(2), record=False)
        assert quiet.records == []

    def test_unrecorded_columns(self):
        """An unrecorded run has no column; a recorded one has the four a step
        makes, and leaves f_value and dist_to_ref to its caller."""
        quiet = run(self.spec, self.cfg, max_steps=5, rng=RngStream(1), record=False)
        assert len(quiet.records) == 0 and quiet.steps == 5
        assert all(getattr(quiet, name) is None for name in COLUMNS)
        with pytest.raises(ValueError, match="x snapshots"):
            quiet.xs()
        recorded = run(self.spec, self.cfg, max_steps=5, rng=RngStream(1))
        for name in STEP_COLUMNS:
            assert getattr(recorded, name).shape == (5, 2), name
        assert recorded.f_value is None and recorded.dist_to_ref is None
        assert recorded.records[0].f_value is None
        assert recorded.records[0].as_dict()["f_value"] is None
        assert recorded.records[0].as_dict()["dist_to_ref"] is None


@pytest.mark.parametrize("tape_steps", [1, 7, 64])
@pytest.mark.parametrize("spec", objectives(), ids=lambda s: s.kind)
def test_tapes_equal_the_written_out_step_loop(spec, tape_steps, monkeypatch):
    """Whatever number K of steps a tape holds, every cell of a stack of up
    to 150 steps (not a multiple of 7 or 64) equals the one-generator step
    loop, while cells leave the stack at their own steps (48 to 150, but for
    the constant gradient, whose cells all run to the cap) and the tape
    drops their rows; so does every cell of a stack of three batch sizes,
    1, 3 and 64, each group with its own tape of scaled step noise."""
    monkeypatch.setattr(problems, "_TAPE_STEPS", tape_steps)
    config, x0 = CONFIGS[1], spec.default_start() * 0.5
    stop = StopRule(epsilon=0.3 * float(np.linalg.norm(spec.grad(x0))))
    streams = [RngStream(15).child("tape", c) for c in range(6)]
    for sizes in (None, [1, 1, 3, 3, 64, 64]):
        traces = simulate(spec, config, streams, x0=x0, stop=stop, max_steps=150,
                          batch_sizes=sizes)
        for stream, trace in zip(streams, traces):
            ref = reference_run(spec, trace.config, x0, 150, stream, stop=stop)
            assert (trace.exit_reason, trace.steps) == (ref["exit_reason"], ref["steps"])
            for name in ("x_final", "x_snapshot", "minibatch_grad", "search_direction"):
                assert np.array_equal(getattr(trace, name), ref[name]), name
        if not isinstance(spec, ConstantGradient):
            assert len({t.steps for t in traces}) > 2


@pytest.mark.parametrize("rows", [13, 1000, 2000])
def test_a_tape_holds_at_most_a_block_of_scalars(rows):
    """A tape of dim-100 rows holds at most _CHUNK_SCALARS scalars: 13 rows
    keep the full K = 64 steps (83,200), 1,000 rows one step (100,000), and
    2,000 rows, whose one step is 200,000 scalars, no tape at all; every
    step still gives each row its generator's next 100 normals."""
    gens = [np.random.default_rng(r) for r in range(rows)]
    want = [np.random.default_rng(r).standard_normal((3, 100)) for r in range(rows)]
    draws = CellDraws(gens)
    for t in range(3):
        z = draws.standard_normal((rows, 100))
        assert draws._tape.size <= problems._CHUNK_SCALARS
        assert np.array_equal(z, [w[t] for w in want])
    assert draws._tape.shape[1] == {13: 64, 1000: 1, 2000: 0}[rows]
