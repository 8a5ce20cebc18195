"""Acceptance suite.

One test per shipped criterion, each asserting at its stated tolerance
and printing a live pass/fail line. Monte-Carlo criteria use pinned
master seeds, so the whole suite is deterministic.
"""

import json
import time
from pathlib import Path

import numpy as np

import noise_lab as nl
from noise_lab.cli import main

DATA = Path(__file__).parent / "data"
GRID = [2 ** k for k in range(3, 14)]


def report(capsys, num, desc, cond):
    with capsys.disabled():
        print(f"[acceptance] criterion {num:02d} "
              f"{'PASS' if cond else 'FAIL'} - {desc}")
    assert cond, f"criterion {num}: {desc}"


def max_rel_divergence(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / scale))


def test_criterion_01_fixture_table(tmp_path, capsys):
    """Built-in arithmetic fixture reproduces {12800, 1280, 1280, 256, 128}
    and {10, 20, 20} exactly, byte-identical to the frozen file."""
    t0 = time.time()
    assert main(["table1", "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    expected = (DATA / "table1_expected.txt").read_text()
    ok = stdout.startswith(expected)
    ok &= (tmp_path / "table1.txt").read_bytes() == expected.encode()
    bounds = [nl.variance_upper_bound(b, e, eta) for eta, e, b in
              [(0.01, 1.0, 2 ** 7), (0.05, 0.5, 2 ** 8), (0.1, 0.5, 2 ** 9),
               (0.5, 0.5, 2 ** 9), (1.0, 0.5, 2 ** 9),
               (0.1, 0.5, 2 ** 2), (0.1, 0.5, 2 ** 3), (0.1, 0.5, 2 ** 3)]]
    ok &= bounds == [12800.0, 1280.0, 1280.0, 256.0, 128.0, 10.0, 20.0, 20.0]
    ok &= time.time() - t0 < 1.0
    report(capsys, 1, "fixture table exact and byte-stable", ok)


def test_criterion_02_variance_bound_fixture(capsys):
    """variance_upper_bound(2^9, 0.5, 0.1) = 1280 exactly."""
    ok = nl.variance_upper_bound(2 ** 9, 0.5, 0.1) == 1280.0
    report(capsys, 2, "b* eps^2 / eta fixture equals 1280 exactly", ok)


def test_criterion_03_minibatch_variance_scaling(capsys):
    """Empirical minibatch deviation second moments match {4, 1, 0.25,
    0.0625} within 5% at 10^5 draws per batch size, in under 10 s."""
    t0 = time.time()
    quad = nl.NoisyQuadratic(dim=2, variance=4.0)
    x = np.array([1.0, -1.0])
    ok = True
    for b in (1, 4, 16, 64):
        samples = nl.minibatch_deviation_sq_samples(
            quad, x, b, 100_000, nl.RngStream(301).child(b))
        ok &= abs(float(np.mean(samples)) - 4.0 / b) <= 0.05 * (4.0 / b)
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(capsys, 3, f"C^2/b scaling within 5% at 1e5 draws ({elapsed:.1f}s)", ok)


def test_criterion_04_algorithm_equivalences(capsys):
    """NSHB(beta=0) = SGD and SHB(gamma, bb) = NSHB(gamma/(1-bb), bb) under
    shared noise, per-coordinate relative divergence <= 1e-10 over 1e3
    steps, for (gamma, bb) in {0.1, 0.01} x {0.5, 0.9}."""
    spec = nl.NoisyQuadratic(dim=2, variance=4.0)
    x0 = np.array([2.0, -1.0])
    opts = nl.TraceOptions(record_x=True, record_f=False)
    ok = True

    shared = nl.RngStream(401)
    sgd = nl.run(spec, nl.OptimizerConfig(algo="sgd", eta=0.1, batch_size=4),
                 x0=x0, max_steps=1000, rng=shared, trace_options=opts)
    nshb0 = nl.run(spec, nl.OptimizerConfig(algo="nshb", eta=0.1, beta=0.0, batch_size=4),
                   x0=x0, max_steps=1000, rng=shared, trace_options=opts)
    ok &= max_rel_divergence(sgd.xs(), nshb0.xs()) <= 1e-10

    for gamma in (0.1, 0.01):
        for beta_bar in (0.5, 0.9):
            stream = nl.RngStream(402).child(int(gamma * 1000), int(beta_bar * 100))
            eta, beta = nl.map_shb_to_nshb(gamma, beta_bar)
            shb = nl.run(spec, nl.OptimizerConfig(algo="shb", gamma=gamma,
                                                  beta_bar=beta_bar, batch_size=4),
                         x0=x0, max_steps=1000, rng=stream, trace_options=opts)
            nshb = nl.run(spec, nl.OptimizerConfig(algo="nshb", eta=eta, beta=beta,
                                                   batch_size=4),
                          x0=x0, max_steps=1000, rng=stream, trace_options=opts)
            ok &= max_rel_divergence(shb.xs(), nshb.xs()) <= 1e-10
    report(capsys, 4, "shared-noise equivalences within 1e-10 over 1e3 steps", ok)


def test_criterion_05_analytic_curve_fixture(capsys):
    """X=100, Y=64, Z=0.05, eps^2=0.25: T(512), SFO at {512, 640, 800},
    grid argmin at 640 = 2Y/(eps^2 - Z), monotone decreasing and convex."""
    params = nl.AnalyticCurveParams(X=100.0, Y=64.0, Z=0.05, epsilon_sq=0.25)
    ok = abs(nl.analytic_T(params, 512) - 4000.0 / 3.0) <= 1e-6 * (4000.0 / 3.0)
    for b, want in ((512, 2048000.0 / 3.0), (640, 640000.0), (800, 2000000.0 / 3.0)):
        ok &= abs(nl.analytic_sfo(params, b) - want) <= 1e-6 * want
    b_star = nl.analytic_critical_batch(params)
    ok &= abs(b_star - 640.0) <= 1e-9

    grid = sorted(set(GRID) | {640})
    valid = [b for b in grid if b > params.pole()]
    sfo = {b: nl.analytic_sfo(params, b) for b in valid}
    ok &= min(sfo, key=lambda b: (sfo[b], b)) == 640

    ts = np.array([nl.analytic_T(params, b) for b in valid])
    bs = np.array(valid, dtype=float)
    from noise_lab.analysis import grid_convex, grid_monotone_decreasing
    ok &= grid_monotone_decreasing(ts)
    ok &= grid_convex(bs, ts)
    ok &= grid_convex(bs, np.array([sfo[b] for b in valid]))
    report(capsys, 5, "analytic step/SFO fixture values, argmin 640, shape", ok)


def test_criterion_06_critical_batch_lower_bound(capsys):
    """b* > eta C^2 / eps^2 across a 3x3x3 grid of (eta, C^2, eps) with
    Z > 0; fixture instance 640 > 512."""
    ok = True
    for eta in (0.01, 0.1, 0.5):
        for c_sq in (10.0, 1280.0, 5000.0):
            for eps in (0.6, 1.0, 2.0):
                params = nl.AnalyticCurveParams(
                    X=1.0, Y=eta * c_sq / 2.0, Z=eta * 1.0 / 2.0,
                    epsilon_sq=eps * eps)
                ok &= nl.analytic_critical_batch(params) > eta * c_sq / eps ** 2
    fixture = nl.AnalyticCurveParams(X=100.0, Y=64.0, Z=0.05, epsilon_sq=0.25)
    ok &= nl.analytic_critical_batch(fixture) > 0.1 * 1280.0 / 0.25
    report(capsys, 6, "critical batch exceeds eta C^2 / eps^2 whenever Z > 0", ok)


def test_criterion_07_inner_product_bound(capsys):
    """Plain-SGD averaged-inner-product bound on the noisy quadratic
    (eta=0.1, b in {8, 64}, T=500, 100 seeds): lhs - 3 stderr <= rhs,
    in under 30 s."""
    t0 = time.time()
    spec = nl.NoisyQuadratic(dim=2, variance=4.0)
    x0 = np.array([2.0, -1.0])
    ok = True
    for b in (8, 64):
        cfg = nl.OptimizerConfig(algo="sgd", eta=0.1, batch_size=b)
        rep = nl.convergence_bound_report(spec, cfg, x0, np.zeros(2), steps=500,
                                          seeds=100, rng=nl.RngStream(701).child(b))
        ok &= rep.holds
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    report(capsys, 7, f"sgd bound holds at b=8 and b=64 ({elapsed:.1f}s)", ok)


def test_criterion_08_smoothing_gap_bound(capsys):
    """f = ||x|| (L_f = 1): gap check passes at delta in {0.1, 0.5, 1.0} for
    20 random points at 1e5 samples, and the x=0 boundary case achieves
    gap = delta within Monte-Carlo error."""
    def norm_f(X):
        return np.linalg.norm(np.atleast_2d(X), axis=1)

    gen = np.random.default_rng(801)
    points = gen.standard_normal((20, 4))
    ok = True
    for i, delta in enumerate((0.1, 0.5, 1.0)):
        rep = nl.smoothing_gap_check(norm_f, points, delta=delta, lipschitz=1.0,
                                     samples=100_000, rng=nl.RngStream(802).child(i))
        ok &= rep.all_passed
        boundary = nl.smoothing_gap_check(norm_f, [np.zeros(4)], delta=delta,
                                          lipschitz=1.0, samples=100_000,
                                          rng=nl.RngStream(803).child(i)).points[0]
        ok &= abs(boundary.gap - delta) <= 3.0 * boundary.std_error + 1e-9
        ok &= boundary.passed
    report(capsys, 8, "Lipschitz gap bound holds; boundary case gap = delta", ok)


def test_criterion_09_smoothed_quadratic_fixture(capsys):
    """f = 0.5||x||^2 with unit-sphere directions: f_hat_delta(0) = delta^2/2
    within 1% at 1e5 samples."""
    quad = nl.NoisyQuadratic(dim=3)
    delta = 0.8
    sv = nl.smoothed_value(quad, np.zeros(3),
                           nl.SmoothingSpec(delta=delta, samples=100_000),
                           nl.RngStream(901))
    ok = abs(sv.estimate - delta ** 2 / 2.0) <= 0.01 * (delta ** 2 / 2.0)
    report(capsys, 9, "smoothed quadratic at the minimizer equals delta^2/2", ok)


def test_criterion_10_mean_update_identity(capsys):
    """Constant-gradient problem, beta=0.9, 1e4 replicas: after burn-in 200
    the replica-mean update matches the GD step within its Monte-Carlo
    radius; with no burn-in the discrepancy equals eta beta ||grad f(x0)||
    within 5%."""
    spec = nl.ConstantGradient(dim=2, variance=1.0, coefficient=[1.0, 1.0])
    burned = nl.gd_vs_nshb_expectation(spec, np.zeros(2), eta=0.1, beta=0.9,
                                       replicas=10_000, burn_in=200,
                                       rng=nl.RngStream(1001))
    ok = burned.within_confidence
    raw = nl.gd_vs_nshb_expectation(spec, np.zeros(2), eta=0.1, beta=0.9,
                                    replicas=10_000, burn_in=0,
                                    rng=nl.RngStream(1002))
    ok &= abs(raw.discrepancy - raw.early_bias_reference) \
        <= 0.05 * raw.early_bias_reference
    report(capsys, 10, "replica-mean update unbiased after burn-in; "
                       "early bias = eta beta ||grad f||", ok)


def test_criterion_11_direction_noise_diagnostics(capsys):
    """Constant-gradient, beta=0.9, C^2/b=1, >= 1e4-step window: mean
    ||omega||^2 = 0.0526 +- 10% with the direction-noise flag true, and the
    buffer-lag sides show lhs ~ 1.0526 vs rhs ~ 0.99 with its flag false."""
    beta = 0.9
    spec = nl.ConstantGradient(dim=2, variance=1.0, coefficient=[1.0, 1.0])
    cfg = nl.OptimizerConfig(algo="nshb", eta=0.05, beta=beta, batch_size=1)
    burn = nl.default_burn_in(beta)
    trace = nl.run(spec, cfg, x0=np.zeros(2), max_steps=burn + 10_000,
                   rng=nl.RngStream(1101),
                   trace_options=nl.TraceOptions(record_x=False, record_f=False))
    s = nl.search_direction_noise(trace, spec).summary
    stationary = (1 - beta) / (1 + beta)          # 0.052631...
    ok = abs(s.mean_omega_sq - stationary) <= 0.10 * stationary
    ok &= s.direction_noise_bound_holds is True
    ok &= abs(s.buffer_lag_lhs - 2.0 / (1 + beta)) <= 0.05 * (2.0 / (1 + beta))
    ok &= abs(s.buffer_lag_rhs - beta * (2 - beta)) <= 0.05 * (beta * (2 - beta))
    ok &= s.buffer_lag_bound_holds is False
    report(capsys, 11, "direction-noise bound true, buffer-lag bound false "
                       "at stationarity", ok)


def test_criterion_12_sharpness_fixture(capsys):
    """1-d quadratic at w=0, c=1, p=inf, rho=1: sign-ascent with 50
    iterations returns 0.5 within 2%."""
    quad = nl.NoisyQuadratic(dim=1, variance=0.0)
    spec = nl.SharpnessSpec(rho=1.0, p="inf", method="sign-ascent", iters=50)
    value = nl.adaptive_sharpness(quad, np.zeros(1), spec, nl.RngStream(1201))
    ok = abs(value - 0.5) <= 0.02 * 0.5
    report(capsys, 12, f"adaptive sharpness fixture value {value:.4f}", ok)


def test_criterion_13_sweep_regime(tmp_path, capsys):
    """Noisy-quadratic sweep over b in {2^3..2^13} with 3 seeds: mean T
    roughly halves from b=8 to b=16 (ratio in [1/2, 1/1.6]); the analytic
    SFO curve for the same setup has an interior grid minimum; the whole
    sweep finishes in under 5 minutes."""
    t0 = time.time()
    cfg = {
        "master_seed": 5,
        "problem": {"kind": "noisy-quadratic", "dim": 16, "variance": 450.0,
                    "params": {"x0": [2.0] * 16}},
        "optimizer": {"algo": "sgd", "eta": 0.02, "batch_size": 8},
        "sweep": {"batch_grid": GRID, "epsilon": 1.0, "seeds": 3,
                  "max_steps": 30000},
    }
    cfg_path = tmp_path / "sweep_cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--jobs", "4"]) == 0
    capsys.readouterr()
    elapsed = time.time() - t0

    per_b = {}
    for line in (tmp_path / "summary.csv").read_text().splitlines()[1:]:
        b, mean_steps, mean_sfo, frac = line.split(",")
        per_b[int(b)] = (float(mean_steps), float(mean_sfo), float(frac))
    ok = all(v[2] == 1.0 for v in per_b.values())
    ratio = per_b[16][0] / per_b[8][0]
    ok &= 1.0 / 2.0 <= ratio <= 1.0 / 1.6

    critical = json.loads((tmp_path / "critical.json").read_text())
    params = nl.AnalyticCurveParams(**{k: critical["params"][k]
                                       for k in ("X", "Y", "Z", "epsilon_sq")})
    b_star = critical["analytic_b_star"]
    ok &= b_star is not None and GRID[0] < b_star < GRID[-1]
    valid = [b for b in GRID if b > params.pole()]
    sfo = {b: nl.analytic_sfo(params, b) for b in valid}
    argmin = min(sfo, key=lambda b: (sfo[b], b))
    # interior: strictly inside the grid range, one cell around b*
    ok &= GRID[0] < argmin < GRID[-1]
    below = max((b for b in valid if b <= b_star), default=valid[0])
    above = min((b for b in valid if b >= b_star), default=valid[-1])
    ok &= argmin in (below, above)
    ok &= elapsed < 300.0

    empirical = critical["empirical_b_star"]
    report(capsys, 13,
           f"T(16)/T(8) = {ratio:.3f} in band; analytic argmin {argmin} "
           f"interior (b* = {b_star:.1f}, empirical argmin {empirical}); "
           f"{elapsed:.0f}s", ok)


def test_criterion_14_byte_determinism(tmp_path, capsys):
    """Repeated sweep and verify runs with identical configs produce
    byte-identical artifacts at --jobs 1 and --jobs 8."""
    sweep_cfg = {
        "master_seed": 14,
        "problem": {"kind": "noisy-quadratic", "dim": 2, "variance": 4.0,
                    "params": {"x0": [2.0, -1.0]}},
        "optimizer": {"algo": "sgd", "eta": 0.1, "batch_size": 1},
        "sweep": {"batch_grid": [4, 8, 16, 32], "epsilon": 0.4, "seeds": 2,
                  "max_steps": 3000},
    }
    verify_cfg = {
        "master_seed": 2024,
        "verify": {"ensemble_seeds": 30, "ensemble_steps": 40,
                   "noise_steps": 400, "variance_draws": 5000,
                   "identity_triples": 500, "replicas": 2000},
    }
    sp = tmp_path / "s.json"
    vp = tmp_path / "v.json"
    sp.write_text(json.dumps(sweep_cfg))
    vp.write_text(json.dumps(verify_cfg))

    ok = True
    outs = {}
    for jobs in ("1", "8", "1"):
        key = f"sweep-{jobs}-{len(outs)}"
        out = tmp_path / key
        assert main(["sweep", "--config", str(sp), "--out", str(out),
                     "--jobs", jobs]) == 0
        outs[key] = out
    names = ("sweep.csv", "summary.csv", "critical.json")
    ref_dir = outs["sweep-1-0"]
    for key, out in outs.items():
        for name in names:
            ok &= (out / name).read_bytes() == (ref_dir / name).read_bytes()

    v_out = []
    for jobs in ("1", "8"):
        out = tmp_path / f"verify-{jobs}"
        assert main(["verify", "--config", str(vp), "--out", str(out),
                     "--jobs", jobs]) == 0
        v_out.append(out / "verify.json")
    ok &= v_out[0].read_bytes() == v_out[1].read_bytes()
    capsys.readouterr()
    report(capsys, 14, "sweep and verify artifacts byte-identical across "
                       "jobs and reruns", ok)
