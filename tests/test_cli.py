"""CLI behavior: subcommands, exit codes, determinism, file formats."""

import gc
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from noise_lab import analysis, cli, smoothing, sweep as sweep_mod
from noise_lab.cli import fixture_table_text, main
from noise_lab.config import POINT, SCHEMA, ConfigError, build_objective, validate_config
from noise_lab.problems import _CHUNK_SCALARS, rowdot
from noise_lab.reporting import dump_json, emit_csv, emit_jsonl, json_number, json_numbers

DATA = Path(__file__).parent / "data"

SMALL_VERIFY = {
    "master_seed": 2024,
    "verify": {
        "ensemble_seeds": 30,
        "ensemble_steps": 40,
        "noise_steps": 400,
        "variance_draws": 5000,
        "identity_triples": 500,
        "replicas": 2000,
    },
}

SWEEP_CFG = {
    "master_seed": 11,
    "problem": {"kind": "noisy-quadratic", "dim": 2, "variance": 4.0,
                "params": {"x0": [2.0, -1.0]}},
    "optimizer": {"algo": "sgd", "eta": 0.1, "batch_size": 1},
    "sweep": {"batch_grid": [4, 8, 16], "epsilon": 0.4, "seeds": 2,
              "max_steps": 3000},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestDefaults:
    def test_default_batch_grid_is_the_power_ladder(self):
        from noise_lab.cli import DEFAULT_BATCH_GRID
        assert DEFAULT_BATCH_GRID == [2 ** k for k in range(3, 14)]

    def test_output_dir_from_config_when_out_flag_missing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(SWEEP_CFG)
        cfg["output_dir"] = "artifacts"
        cfg["run"] = {"max_steps": 2}
        path = write_cfg(tmp_path, cfg)
        assert main(["run", "--config", path]) == 0
        assert (tmp_path / "artifacts" / "run.jsonl").exists()


class TestTableFixture:
    def test_stdout_matches_frozen_fixture(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert out == (DATA / "table1_expected.txt").read_text()

    def test_file_output_byte_identical(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        written = (tmp_path / "table1.txt").read_bytes()
        assert written == (DATA / "table1_expected.txt").read_bytes()

    def test_fixture_values(self):
        text = fixture_table_text()
        for value in ("12800", "1280", "256", "128", "10", "20"):
            assert value in text


class TestExitCodes:
    def test_verify_default_suite_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_VERIFY)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "verify.json").read_text())["rng_contract"] == 3

    def test_sweep_epsilon_zero_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--out", str(tmp_path), "--epsilon", "0"])
        assert exc.value.code == 2
        assert ("argument --epsilon: 0.0 is less than or equal to the minimum of 0"
                in capsys.readouterr().err)

    def test_malformed_config_names_path(self, tmp_path, capsys):
        bad = dict(SWEEP_CFG)
        bad["optimizer"] = {"algo": "sgd", "eta": -1.0}
        cfg = write_cfg(tmp_path, bad)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "$.optimizer.eta" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = dict(SWEEP_CFG)
        bad["learning_rate"] = 0.1
        cfg = write_cfg(tmp_path, bad)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_config(self, capsys):
        assert main(["run"]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"master_seed": 1, "output_dir": "d\xe9j\xe0"}'.encode("latin-1"))
        assert main(["run", "--config", str(path)]) == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, command, jobs):
        cfg = write_cfg(tmp_path, SWEEP_CFG if command == "sweep" else SMALL_VERIFY)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert (f"argument --jobs: {jobs} is less than the minimum of 1"
                in capsys.readouterr().err)
        assert not out.exists()


def exit_status(argv) -> int:
    """main's return value, or the status of an argparse exit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# (subcommand, extra flags, top-level config overrides, NOISE_LAB_SEED, path
# the error must name); a config of None points --config at a missing file, and
# NO_CONFIG passes no --config
NO_CONFIG = "no --config"
BAD_INPUTS = {
    "missing-config-file": ("run", [], None, None, "--config"),
    "empty-batch-size": ("sweep", ["--batch-grid", "8,,16"], {}, None,
                         "argument --batch-grid: '' is not of type 'integer'"),
    "descending-batch-grid": ("sweep", ["--batch-grid", "16,8"], {}, None,
                              "--batch-grid: batch sizes must be strictly ascending"),
    "repeated-batch-size": ("sweep", ["--batch-grid", "8,8,16"], {}, None,
                            "--batch-grid: batch sizes must be strictly ascending"),
    "descending-config-grid": ("sweep", [],
                               {"sweep": dict(SWEEP_CFG["sweep"], batch_grid=[16, 8])},
                               None, "$.sweep.batch_grid"),
    "noise-steps-below-burn-in": ("noise", [], {"noise": {"steps": 50, "burn_in": 100}}, None,
                                  "$.noise.steps"),
    "noise-steps-at-default-burn-in": ("noise", [], {"noise": {"steps": 100}}, None,
                                       "$.noise.steps"),
    "noise-diverges-before-burn-in": (
        "noise", [], {"problem": {"kind": "noisy-quadratic", "dim": 2, "variance": 1.0},
                      "optimizer": {"algo": "sgd", "eta": 5.0, "batch_size": 1},
                      "noise": {"steps": 400}}, None, "$.optimizer"),
    # diverges at step 148, where noise of size ~1 would vanish against ~1e29 gradients: the
    # step of x <- x - 2.585 (x + z_t / sqrt(2)) written out with the z_t of one
    # np.random.Generator(np.random.PCG64(np.random.SeedSequence(1))), 2 normals a step
    "noise-diverges-after-burn-in": (
        "noise", [], {"master_seed": 1,
                      "problem": {"kind": "noisy-quadratic", "dim": 2, "variance": 1.0},
                      "optimizer": {"algo": "sgd", "eta": 2.585, "batch_size": 1},
                      "noise": {"steps": 400}}, None, "$.optimizer: the run diverged at step 148"),
    "jobs-zero": ("sweep", ["--jobs", "0"], {}, None,
                  "argument --jobs: 0 is less than the minimum of 1"),
    # a flag outside its schema node names the flag; the same value in a config file
    # names its JSON path
    "sweep-seeds-zero-flag": ("sweep", ["--seeds", "0"], {}, None,
                              "argument --seeds: 0 is less than the minimum of 1"),
    "sweep-seeds-negative-flag": ("sweep", ["--seeds", "-3"], {}, None,
                                  "argument --seeds: -3 is less than the minimum of 1"),
    "sweep-max-steps-zero-flag": ("sweep", ["--max-steps", "0"], {}, None,
                                  "argument --max-steps: 0 is less than the minimum of 1"),
    "sweep-batch-grid-zero-flag": ("sweep", ["--batch-grid", "0,8"], {}, None,
                                   "argument --batch-grid: 0 is less than the minimum of 1"),
    "smooth-samples-zero-flag": ("smooth", ["--samples", "0"], {}, None,
                                 "argument --samples: 0 is less than the minimum of 2"),
    # one sample has no standard error: smooth.json would hold "std_error": Infinity
    "smooth-samples-one-flag": ("smooth", ["--samples", "1"], {"smooth": {"box_radius": 1.0}},
                                None, "argument --samples: 1 is less than the minimum of 2"),
    "smooth-samples-one-config": ("smooth", [], {"smooth": {"samples": 1, "box_radius": 1.0}},
                                  None, "$.smooth.samples: 1 is less than the minimum of 2"),
    "sharpness-iters-zero-flag": ("sharpness", ["--iters", "0"], {}, None,
                                  "argument --iters: 0 is less than the minimum of 1"),
    "sweep-seeds-zero-config": ("sweep", [], {"sweep": dict(SWEEP_CFG["sweep"], seeds=0)}, None,
                                "$.sweep.seeds"),
    "curvature-wrong-length": ("run", [], {"problem": {"kind": "noisy-quadratic", "dim": 2,
                                                       "params": {"curvature": [1.0, 2.0, 3.0]}}},
                               None, "$.problem"),
    "smooth-point-wrong-dim": ("smooth", [], {"smooth": {"points": [[1.0, 2.0, 3.0]]}}, None,
                               "$.smooth.points"),
    "sharpness-point-wrong-dim": ("sharpness", [], {"sharpness": {"point": [1.0]}}, None,
                                  "$.sharpness.point"),
    "sharpness-scaling-wrong-length": ("sharpness", [], {"sharpness": {"c": [1.0, 2.0, 3.0]}},
                                       None, "$.sharpness.c"),
    "run-x0-wrong-dim": ("run", [], {"run": {"x0": [1.0, 2.0, 3.0]}}, None, "$.run.x0"),
    "run-reference-point-wrong-dim": ("run", [], {"run": {"reference_point": [1.0]}}, None,
                                      "$.run.reference_point"),
    "sweep-x0-wrong-dim": ("sweep", [], {"sweep": dict(SWEEP_CFG["sweep"], x0=[1.0])}, None,
                           "$.sweep.x0"),
    # the default stop rule never reads it, but critical.json's X would
    "sweep-reference-point-wrong-dim": (
        "sweep", [], {"sweep": dict(SWEEP_CFG["sweep"], reference_point=[5.0])}, None,
        "$.sweep.reference_point"),
    "sweep-inner-product-reference-point-wrong-dim": (
        "sweep", [], {"sweep": dict(SWEEP_CFG["sweep"], stop_kind="inner-product",
                                    reference_point=[5.0, 5.0, 5.0])}, None,
        "$.sweep.reference_point"),
    "noise-x0-wrong-dim": ("noise", [], {"noise": {"x0": [1.0, 2.0, 3.0]}}, None, "$.noise.x0"),
    "smooth-points-file-missing": ("smooth", ["--points-file", str(DATA / "no-such-points.json")],
                                   {}, None, "--points-file"),
    "smooth-points-file-not-json": ("smooth", ["--points-file", str(DATA / "table1_expected.txt")],
                                    {}, None, "--points-file"),
    # Python's json and float() read NaN, Infinity and 1e400, and JSON Schema passes them
    "sweep-epsilon-nan-flag": ("sweep", ["--epsilon", "nan"], {}, None, "--epsilon"),
    "sweep-epsilon-inf-flag": ("sweep", ["--epsilon", "inf"], {}, None, "--epsilon"),
    "sharpness-rho-nan-flag": ("sharpness", ["--rho", "nan"], {}, None, "--rho"),
    "smooth-delta-nan-flag": ("smooth", ["--delta", "nan"], {"smooth": {"box_radius": 3.0}},
                              None, "--delta"),
    "problem-variance-nan": ("run", [], {"problem": {"kind": "noisy-quadratic", "dim": 2,
                                                     "variance": float("nan")}},
                             None, "$.problem.variance"),
    "curvature-infinity": ("run", [], {"problem": {"kind": "noisy-quadratic", "dim": 2,
                                                   "params": {"curvature": [1.0, float("inf")]}}},
                           None, "$.problem.params.curvature[1]"),
    "smooth-points-file-overflow": ("smooth", ["--points-file", str(DATA / "points_overflow.json")],
                                    {"smooth": {"box_radius": 3.0}}, None, "$.smooth.points[0][0]"),
    "negative-env-seed-run": ("run", [], {}, "-1", "$.master_seed"),
    "negative-env-seed-sweep": ("sweep", [], {}, "-1", "$.master_seed"),
    "negative-env-seed-verify": ("verify", [], {}, "-1", "$.master_seed"),
    # verify alone runs at its default seed, unless NOISE_LAB_SEED is set, even to ""
    "empty-env-seed-verify-without-config": ("verify", [], NO_CONFIG, "",
                                             "$: NOISE_LAB_SEED must be an integer, got ''"),
    "empty-env-seed-run": ("run", [], {}, "", "$: NOISE_LAB_SEED must be an integer, got ''"),
    # a null param becomes NaN and a param of the wrong type fails float(): both name the block
    "curvature-null": ("run", [], {"problem": {"kind": "noisy-quadratic", "dim": 2,
                                               "params": {"curvature": [1, None]}}},
                       None, "$.problem: curvature diagonal has an entry that is null"),
    "problem-x0-null": ("run", [], {"problem": {"kind": "noisy-quadratic", "dim": 2,
                                                "params": {"x0": [1, None]}}},
                        None, "$.problem: x0 has an entry that is null"),
    "coefficient-null-sweep": ("sweep", [], {"problem": {"kind": "constant-gradient", "dim": 2,
                                                         "variance": 1.0,
                                                         "params": {"coefficient": [1, None]}}},
                               None, "$.problem: coefficient vector has an entry that is null"),
    "finite-sum-targets-null": ("run", [], {"problem": {
        "kind": "finite-sum-least-squares",
        "params": {"data": [[1.0, 0.0], [0.0, 1.0]], "targets": [1, None]}}},
        None, "$.problem: targets has an entry that is null"),
    "sine-amplitude-list": ("run", [], {"problem": {"kind": "nonconvex-sine-bowl", "dim": 2,
                                                    "params": {"amplitude": [1, 2]}}},
                            None, "$.problem"),
    "sine-frequency-null": ("run", [], {"problem": {"kind": "nonconvex-sine-bowl", "dim": 2,
                                                    "params": {"frequency": None}}},
                            None, "$.problem"),
    # a finite delta or rho can carry the perturbed points past the largest float
    "smooth-delta-overflow": ("smooth", [], {"smooth": {"delta": 1e200, "samples": 100,
                                                        "box_radius": 3.0}},
                              None, "$.smooth.delta"),
    # finite values whose squares overflow: the variance would be inf - inf, read as 0
    "smooth-second-moment-overflow": ("smooth", [], {"smooth": {"delta": 1e100, "samples": 1000,
                                                                "box_radius": 3.0}},
                                      None, "$.smooth.delta: the squared objective values"),
    "sharpness-rho-overflow": ("sharpness", [], {"sharpness": {"rho": 1e300, "p": 2,
                                                               "method": "random-search"}},
                               None, "$.sharpness.rho"),
    # sign ascent at p = 2: the squares in the 2-norm overflow, and the value is NaN
    "sharpness-rho-overflow-sign-ascent": ("sharpness", [], {"sharpness": {"rho": 1e200, "p": 2}},
                                           None, "$.sharpness.rho"),
    "sharpness-scaling-not-positive": (
        "sharpness", [], {"problem": {"kind": "nonconvex-sine-bowl", "dim": 2},
                          "sharpness": {"c": [1, 0]}},
        None, "$.sharpness.c: all scaling components must be positive"),
    # float() would read a boolean param as 0 or 1
    "curvature-boolean": ("run", [], {"problem": {"kind": "noisy-quadratic", "dim": 2,
                                                  "params": {"curvature": True}}},
                          None, "$.problem.params.curvature: True is not of type 'number'"),
    "amplitude-boolean": ("run", [], {"problem": {"kind": "nonconvex-sine-bowl", "dim": 2,
                                                  "params": {"amplitude": True}}},
                          None, "$.problem.params.amplitude: True is not of type 'number'"),
    "problem-x0-booleans": ("run", [], {"problem": {"kind": "noisy-quadratic", "dim": 2,
                                                    "params": {"x0": [True, False]}}},
                            None, "$.problem.params.x0[0]: True is not of type 'number'"),
    # ~1e170 gradients leave the iterate in range, but their squared norms overflow
    "noise-squared-norms-overflow": (
        "noise", [], {"master_seed": 1,
                      "problem": {"kind": "noisy-quadratic", "dim": 1, "variance": 1.0,
                                  "params": {"curvature": 1e160, "x0": [1e10]}},
                      "optimizer": {"algo": "nshb", "eta": 1e-160, "beta": 0.9},
                      "noise": {"steps": 300}},
        None, "$.optimizer: the squared noise norms overflow"),
    # the norm of the coefficient 5e159 sums squares that overflow: L_f would be infinite
    "smooth-lipschitz-overflow": (
        "smooth", [], {"master_seed": 361,
                       "problem": {"kind": "constant-gradient", "dim": 1, "variance": 1.0,
                                   "params": {"x0": [-5e-301], "coefficient": 5e159}},
                       "smooth": {"samples": 100, "delta": 5e-101, "box_radius": 3e10}},
        None, "$.smooth.lipschitz: the Lipschitz constant is inf"),
    # a recorded trace without a stop rule allocates its columns for the whole budget: at
    # 10^15 dim-2 steps a column is 14 PiB, past any 47-bit address space, so the
    # allocation fails at once
    "run-max-steps-past-memory": ("run", [], {"run": {"max_steps": 10 ** 15}}, None,
                                  "$.run.max_steps: the step budget does not fit in memory"),
    "noise-steps-past-memory": ("noise", [], {"noise": {"steps": 10 ** 15}}, None,
                                "$.noise.steps: the step budget does not fit in memory"),
    "verify-ensemble-steps-past-memory": (
        "verify", [], {"verify": dict(SMALL_VERIFY["verify"], ensemble_steps=10 ** 15)}, None,
        "$.verify: the step budget does not fit in memory"),
    # every b's (m,) samples are 8 PB: the helper thread's b = 64 draw fails as the main
    # thread's b = 1 does, and the error names the sample count, not a step budget
    "verify-variance-draws-past-memory": (
        "verify", [], {"verify": dict(SMALL_VERIFY["verify"], variance_draws=10 ** 15)}, None,
        "$.verify.variance_draws: the variance-scaling samples do not fit in memory"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_naming_its_path(tmp_path, capsys, monkeypatch, case):
    command, flags, overrides, env_seed, path = BAD_INPUTS[case]
    if overrides is None:
        config = ["--config", str(tmp_path / "missing.json")]
    elif overrides == NO_CONFIG:
        config = []
    else:
        base = SMALL_VERIFY if command == "verify" else SWEEP_CFG
        config = ["--config", write_cfg(tmp_path, {**base, **overrides})]
    if env_seed is not None:
        monkeypatch.setenv("NOISE_LAB_SEED", env_seed)
    out = tmp_path / "out"
    threads = threading.active_count()
    assert exit_status([command, *config, "--out", str(out), *flags]) == 2
    assert path in capsys.readouterr().err
    assert not out.exists()
    assert threading.active_count() == threads


def test_a_memory_error_on_the_helper_thread_exits_2(tmp_path, capsys, monkeypatch):
    """verify's b = 64 draw runs on a helper thread; its MemoryError is raised
    again on the main thread as exit 2 naming $.verify.variance_draws."""
    sampler = analysis.minibatch_deviation_sq_samples

    def fail_at_64(spec, x, b, m, rng):
        if b == 64:
            raise MemoryError("planted")
        return sampler(spec, x, b, m, rng)

    monkeypatch.setattr(analysis, "minibatch_deviation_sq_samples", fail_at_64)
    out = tmp_path / "out"
    threads = threading.active_count()
    assert exit_status(["verify", "--config", write_cfg(tmp_path, SMALL_VERIFY),
                        "--out", str(out)]) == 2
    assert ("$.verify.variance_draws: the variance-scaling samples do not fit in memory "
            "(planted)") in capsys.readouterr().err
    assert not out.exists()
    assert threading.active_count() == threads


def test_a_sweep_runs_at_a_step_budget_past_memory(tmp_path, capsys):
    """A recorded trace under a stop rule grows its columns as steps are
    taken: the critical report's reference trace at 10^10 dim-2 steps, 149
    GiB a column if allocated up front, runs, and every cell converges within
    a few hundred steps, so each file but the config echo is as at 3,000."""
    outs = {}
    for cap in (3000, 10 ** 10):
        cfg = write_cfg(tmp_path, {**SWEEP_CFG, "sweep": dict(SWEEP_CFG["sweep"], max_steps=cap)})
        outs[cap] = tmp_path / str(cap)
        assert main(["sweep", "--config", cfg, "--out", str(outs[cap])]) == 0
    for name in ("sweep.csv", "summary.csv"):
        assert (outs[3000] / name).read_bytes() == (outs[10 ** 10] / name).read_bytes()
    short, long = (json.loads((outs[c] / "critical.json").read_text()) for c in outs)
    assert short.pop("config") != long.pop("config") and short == long
    assert short["params"] is not None


# (subcommand, block key, flag text, the JSON value the text reads as): a value
# outside the key's schema node, one case at least for every flag of cli.BLOCK_FLAGS
BAD_FLAGS = [
    ("sweep", "batch_grid", "0,8", [0, 8]),
    ("sweep", "epsilon", "-1", -1.0),
    ("sweep", "epsilon", "0", 0.0),
    ("sweep", "seeds", "0", 0),
    ("sweep", "max_steps", "0", 0),
    ("smooth", "delta", "-0.5", -0.5),
    ("smooth", "dist", "cube", "cube"),
    ("smooth", "samples", "1", 1),
    ("sharpness", "rho", "-1", -1.0),
    ("sharpness", "p", "1", 1),
    ("sharpness", "iters", "0", 0),
    ("sharpness", "method", "newton", "newton"),
]


def test_bad_flags_cover_every_block_flag():
    assert {(c, k) for c, k, _, _ in BAD_FLAGS} == {
        (c, k) for c, keys in cli.BLOCK_FLAGS.items() for k in keys}


@pytest.mark.parametrize("command, key, text, value", BAD_FLAGS)
def test_flag_outside_its_node_names_the_flag(tmp_path, capsys, command, key, text, value):
    """The flag's error is the schema walk's message for the same value in a
    config file, under the flag's name, and nothing runs."""
    with pytest.raises(ConfigError) as schema_error:
        validate_config({command: {key: value}})
    message = str(schema_error.value).split(": ", 1)[1]
    out = tmp_path / "out"
    flag = "--" + key.replace("_", "-")
    assert exit_status([command, "--config", write_cfg(tmp_path, SWEEP_CFG), "--out", str(out),
                        flag, text]) == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_p_flag_reads_as_json(tmp_path, capsys):
    """--p 2.0 runs as the enum member 2, as "p": 2.0 does in a config."""
    flag_out, config_out = tmp_path / "flag", tmp_path / "config"
    cfg = dict(SWEEP_CFG, sharpness={"method": "random-search", "iters": 8})
    assert main(["sharpness", "--config", write_cfg(tmp_path, cfg), "--out", str(flag_out),
                 "--p", "2.0"]) == 0
    cfg["sharpness"] = dict(cfg["sharpness"], p=2.0)
    assert main(["sharpness", "--config", write_cfg(tmp_path, cfg, "p.json"),
                 "--out", str(config_out)]) == 0
    written = (flag_out / "sharpness.json").read_bytes()
    assert json.loads(written)["p"] == 2
    assert written == (config_out / "sharpness.json").read_bytes()


def test_sign_ascent_sharpness_past_squared_overflow(tmp_path, capsys):
    """At p = 2 and rho = 1e200 the squares of the 2-norm overflow; the linear
    objective's sharpness is still rho * ||coefficient||_2 = sqrt(2) * 1e200."""
    cfg = {"master_seed": 0, "problem": {"kind": "constant-gradient", "dim": 2},
           "sharpness": {"rho": 1e200, "p": 2}}
    out = tmp_path / "out"
    assert main(["sharpness", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    value = json.loads((out / "sharpness.json").read_text())["value"]
    assert value == pytest.approx(np.sqrt(2.0) * 1e200, rel=0.01)


def test_non_finite_minibatch_gradient_ends_cells_as_diverged(tmp_path, capsys):
    """curvature * x0 overflows, so every cell's first minibatch gradient is
    infinite: each cell ends as diverged at step 1 and the sweep exits 0."""
    cfg = {"master_seed": 1,
           "problem": {"kind": "noisy-quadratic", "dim": 1, "variance": 1.0,
                       "params": {"curvature": 1e300, "x0": [1e10]}},
           "optimizer": {"algo": "sgd", "eta": 1e-300, "batch_size": 1},
           "sweep": {"batch_grid": [1, 2], "epsilon": 1.0, "seeds": 1, "max_steps": 5}}
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert rows == ["1,0,1,1,diverged", "2,0,1,2,diverged"]


def _strict_json(text):
    def reject(name):
        raise AssertionError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


OVERFLOW = {"master_seed": 1,
            "problem": {"kind": "noisy-quadratic", "dim": 1, "variance": 1.0,
                        "params": {"curvature": 1e300, "x0": [1e10]}},
            "optimizer": {"algo": "sgd", "eta": 1e-300, "batch_size": 1},
            "run": {"max_steps": 5},
            "sweep": {"batch_grid": [1, 2], "epsilon": 1.0, "seeds": 1, "max_steps": 5}}
# f(x0) overflows at x0_3 = 1e300
HUGE_X0 = {"master_seed": 4,
           "problem": {"kind": "noisy-quadratic", "variance": 1e6, "dim": 3,
                       "params": {"x0": [0.001, 1e-12, 1e300]}},
           "optimizer": {"algo": "shb", "eta": 1e12, "batch_size": 1, "gamma": 1e150,
                         "beta_bar": 0.9},
           "run": {"max_steps": 1, "epsilon": 0.5}}
# Y = eta C^2 / 2 overflows
HUGE_Y = {"master_seed": 5, "problem": {"kind": "noisy-quadratic", "variance": 1e300, "dim": 1},
          "optimizer": {"algo": "nshb", "eta": 1e300, "batch_size": 2, "beta": 0.999999},
          "sweep": {"batch_grid": [1, 4], "epsilon": 1e-12, "seeds": 1, "max_steps": 1,
                    "stop_kind": "inner-product"}}


@pytest.mark.parametrize("command, cfg, nulls", [
    ("run", OVERFLOW, ["f_value", "grad", "minibatch_grad", "search_direction"]),
    ("sweep", OVERFLOW, ["X", "Z"]),
    ("run", HUGE_X0, ["f_value"]),
    ("sweep", HUGE_Y, ["Y"]),
], ids=["overflow-run", "overflow-sweep", "huge-x0-run", "huge-y-sweep"])
def test_overflowed_values_are_written_as_null(tmp_path, capsys, command, cfg, nulls):
    """JSON has no NaN or infinity: a run's record value or a sweep's
    coefficient that overflowed is null, and every artifact is JSON."""
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    if command == "run":
        record, = [_strict_json(line) for line in (out / "run.jsonl").read_text().splitlines()]
        assert [k for k, v in record.items()
                if v is None or isinstance(v, list) and None in v] == ["dist_to_ref", *nulls]
    else:
        critical = _strict_json((out / "critical.json").read_text())
        assert [k for k, v in critical["params"].items() if v is None] == nulls
        assert f"params not finite, written as null: {', '.join(nulls)}" in critical["notes"]


# every POINT field of the schema, or array of POINTs, as (block, key): the block's
# subcommand must check its length against the problem's dim
POINT_FIELDS = [(name, key) for name, block in SCHEMA["properties"].items()
                for key, field in block.get("properties", {}).items()
                if POINT in (field, field.get("items"))]


def test_point_fields_are_found():
    assert set(POINT_FIELDS) >= {("run", "x0"), ("run", "reference_point"), ("sweep", "x0"),
                                 ("sweep", "reference_point"), ("noise", "x0"),
                                 ("smooth", "points"), ("sharpness", "point"), ("sharpness", "c")}


@pytest.mark.parametrize("name,key", POINT_FIELDS)
def test_every_point_field_is_dim_checked(tmp_path, capsys, name, key):
    point = [1.0, 2.0, 3.0]                   # SWEEP_CFG's problem has dim 2
    field = SCHEMA["properties"][name]["properties"][key]
    cfg = json.loads(json.dumps(SWEEP_CFG))
    cfg.setdefault(name, {})[key] = point if field == POINT else [point]
    out = tmp_path / "out"
    assert exit_status([name, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"$.{name}.{key}: 3 coordinates do not match" in capsys.readouterr().err
    assert not out.exists()


# the call of each subcommand that does its work, which must not run when --out is unusable
WORK_CALLS = {"run": (cli, "run_optimizer"), "sweep": (sweep_mod, "run_sweep"),
              "noise": (cli, "run_optimizer"), "smooth": (smoothing, "smoothing_gap_check"),
              "sharpness": (smoothing, "adaptive_sharpness"),
              "verify": (analysis, "run_verify_suite")}


@pytest.mark.parametrize("command,where", [
    ("sweep", "--out"), ("sweep", "--out-parent"), ("sweep", "$.output_dir"),
    ("table1", "--out"), ("table1", "--out-parent"),
    *((command, where) for command in ("run", "noise", "smooth", "sharpness", "verify")
      for where in ("--out", "--out-parent", "$.output_dir"))])
def test_unusable_output_directory_exits_2_before_running(tmp_path, capsys, monkeypatch,
                                                          command, where):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output directory was checked")

    if command in WORK_CALLS:
        monkeypatch.setattr(*WORK_CALLS[command], no_work)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    out = str(blocker / "sub" if where == "--out-parent" else blocker)
    base = SMALL_VERIFY if command == "verify" else dict(SWEEP_CFG, smooth={"box_radius": 3.0})
    cfg = dict(base, output_dir=out) if where == "$.output_dir" else base
    argv = [command] if command == "table1" else [command, "--config", write_cfg(tmp_path, cfg)]
    if where != "$.output_dir":
        argv += ["--out", out]
    assert exit_status(argv) == 2
    captured = capsys.readouterr()
    assert where.replace("-parent", "") + ": " in captured.err
    assert captured.out == ""
    assert blocker.read_text() == "a file, not a directory\n"


# (subcommand, top-level overrides of SWEEP_CFG or SMALL_VERIFY, block, key, integral
# value): JSON Schema counts 2.0 as an integer and as the enum member 2, so the float
# form passes validation
INTEGRAL_FLOATS = {
    "sweep-seeds": ("sweep", {}, "sweep", "seeds", 2),
    "sweep-max-steps": ("sweep", {}, "sweep", "max_steps", 500),
    "run-max-steps": ("run", {"run": {}}, "run", "max_steps", 50),
    "noise-steps": ("noise", {"noise": {}}, "noise", "steps", 400),
    "noise-burn-in": ("noise", {"noise": {"steps": 400}}, "noise", "burn_in", 100),
    "smooth-samples": ("smooth", {"smooth": {"box_radius": 3.0}}, "smooth", "samples", 1000),
    "sharpness-iters": ("sharpness", {"sharpness": {}}, "sharpness", "iters", 10),
    "sharpness-p": ("sharpness", {"sharpness": {"method": "random-search"}}, "sharpness", "p", 2),
    "verify-ensemble-seeds": ("verify", {}, "verify", "ensemble_seeds", 30),
}


@pytest.mark.parametrize("case", sorted(INTEGRAL_FLOATS))
def test_integral_float_runs_as_its_int(tmp_path, capsys, case):
    command, overrides, block, key, value = INTEGRAL_FLOATS[case]
    base = {**(SMALL_VERIFY if command == "verify" else SWEEP_CFG), **overrides}
    statuses, outs = [], []
    for form in (value, float(value)):
        cfg = json.loads(json.dumps(base))
        cfg[block][key] = form
        out = tmp_path / type(form).__name__
        statuses.append(exit_status([command, "--config", write_cfg(tmp_path, cfg),
                                     "--out", str(out)]))
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert statuses[1] == statuses[0] == 0
    assert outs[1] == outs[0]


class TestConfigSchema:
    def test_integral_floats_become_ints(self):
        cfg = json.loads(json.dumps(SWEEP_CFG))
        cfg["master_seed"] = 11.0
        cfg["problem"]["dim"] = 2.0
        cfg["optimizer"]["batch_size"] = 8.0
        cfg["sweep"]["batch_grid"] = [4.0, 8, 16.0]
        out = validate_config(cfg)
        assert out == SWEEP_CFG | {"optimizer": dict(SWEEP_CFG["optimizer"], batch_size=8)}
        ints = [out["master_seed"], out["problem"]["dim"], out["optimizer"]["batch_size"],
                *out["sweep"]["batch_grid"]]
        assert all(type(v) is int for v in ints)
        assert type(out["problem"]["variance"]) is float     # number fields keep their type
        assert type(out["problem"]["params"]["x0"][0]) is float    # so does the free params block
        assert cfg["master_seed"] == 11.0 and type(cfg["master_seed"]) is float


    def test_valid_config_passes(self):
        validate_config(SWEEP_CFG)

    def test_nested_unknown_key(self):
        bad = json.loads(json.dumps(SWEEP_CFG))
        bad["sweep"]["threads"] = 4
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert "sweep" in str(err.value)

    @pytest.mark.parametrize("kind,key", [("noisy-quadratic", "curvature"),
                                          ("constant-gradient", "coefficient")])
    def test_vector_param_of_wrong_length_rejected(self, kind, key):
        problem = {"kind": kind, "dim": 3, "params": {key: [1.0, 2.0]}}
        with pytest.raises(ConfigError, match="does not match dim") as exc:
            build_objective({"problem": problem})
        assert exc.value.json_path == "$.problem"
        problem["params"][key] = 2.0          # a scalar still fills every coordinate
        np.testing.assert_array_equal(getattr(build_objective({"problem": problem}), key),
                                      [2.0, 2.0, 2.0])

    def test_schema_is_published(self):
        assert SCHEMA["properties"]["problem"]["properties"]["kind"]["enum"]


class TestEmitters:
    def test_header_only_csv(self, tmp_path):
        path = emit_csv([], tmp_path / "empty.csv", ["a", "b"])
        assert path.read_text() == "a,b\n"

    def test_column_order_and_17_digits(self, tmp_path):
        path = emit_csv([{"b": 8, "seed": 0, "steps": 3, "sfo": 24,
                          "exit_reason": "converged", "x": 0.1}],
                        tmp_path / "rows.csv",
                        ["b", "seed", "steps", "sfo", "exit_reason", "x"])
        lines = path.read_text().splitlines()
        assert lines[0] == "b,seed,steps,sfo,exit_reason,x"
        assert lines[1] == "8,0,3,24,converged,0.10000000000000001"

    def test_csv_byte_deterministic(self, tmp_path):
        rows = [{"v": 1.0 / 3.0, "n": k} for k in range(5)]
        a = emit_csv(rows, tmp_path / "a.csv", ["v", "n"]).read_bytes()
        b = emit_csv(rows, tmp_path / "b.csv", ["v", "n"]).read_bytes()
        assert a == b

    def test_jsonl_one_object_per_line(self, tmp_path):
        recs = [{"t": 0, "x": [1.0, 2.0]}, {"t": 1, "x": [3.0, 4.0]}]
        path = emit_jsonl(recs, tmp_path / "r.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == recs[0]

    def test_non_finite_numbers_become_none(self):
        assert [json_number(v) for v in (0.5, float("inf"), float("nan"))] == [0.5, None, None]
        assert json_numbers([1e308, 1e308]) == [1e308, 1e308]     # the sum alone overflows
        assert json_numbers([1.0, -float("inf"), float("nan")]) == [1.0, None, None]

    def test_json_sorted_and_numpy_safe(self, tmp_path):
        path = dump_json({"z": np.float64(0.5), "a": np.arange(3)}, tmp_path / "o.json")
        text = path.read_text()
        assert text.index('"a"') < text.index('"z"')
        assert json.loads(text) == {"a": [0, 1, 2], "z": 0.5}

    def test_numpy_dataclass_and_nan_bytes_pinned(self, tmp_path):
        @dataclass
        class Inner:
            v: np.ndarray
            w: tuple

        @dataclass
        class Outer:
            name: str
            inner: Inner

        obj = {"f32": np.float32(0.1), "i64": np.int64(-7), "flag": np.bool_(True),
               "off": np.bool_(False), "pair": (1, 2.5), "nan": float("nan"),
               "f64nan": np.float64("nan"),
               "nested": Outer("a", Inner(np.array([[1.5, 2.0]]), (np.int64(3),)))}
        compact = ('{"f32":0.10000000149011612,"f64nan":NaN,"flag":true,"i64":-7,"nan":NaN,'
                   '"nested":{"inner":{"v":[[1.5,2.0]],"w":[3]},"name":"a"},'
                   '"off":false,"pair":[1,2.5]}')
        path = emit_jsonl([obj, Inner(np.arange(2), ())], tmp_path / "o.jsonl")
        assert path.read_text() == compact + '\n{"v":[0,1],"w":[]}\n'
        text = dump_json(obj, tmp_path / "o.json").read_text()
        assert text == json.dumps(json.loads(compact), indent=2, sort_keys=True) + "\n"
        assert '"v": [\n        [\n          1.5,\n          2.0\n        ]\n      ]' in text

    @pytest.mark.parametrize("value", [object(), {1, 2}, np.float64])
    def test_unsupported_object_raises_type_error(self, tmp_path, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dump_json({"a": value}, tmp_path / "o.json")
        with pytest.raises(TypeError, match="not JSON serializable"):
            emit_jsonl([{"a": [value]}], tmp_path / "o.jsonl")


class TestRunSubcommand:
    def test_trace_record_field_names(self, tmp_path, capsys):
        cfg = dict(SWEEP_CFG)
        cfg["run"] = {"max_steps": 4}
        path = write_cfg(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        assert len(lines) == 4
        record = json.loads(lines[0])
        assert set(record) == {"t", "f_value", "grad", "search_direction",
                               "minibatch_grad", "x_snapshot", "dist_to_ref"}

    @pytest.mark.parametrize("problem", [
        {"kind": "noisy-quadratic", "dim": 8, "variance": 2.0,
         "params": {"curvature": [0.5, 1.0, 1.5, 2.0, 0.25, 3.0, 1.0, 0.75]}},
        {"kind": "constant-gradient", "dim": 8, "variance": 1.0,
         "params": {"coefficient": [1.0, -2.0, 0.5, 0.0, 3.0, -1.0, 0.25, 2.0]}},
        {"kind": "finite-sum-least-squares",
         "params": {"data": np.random.default_rng(5).standard_normal((1000, 8)).tolist(),
                    "targets": np.random.default_rng(6).standard_normal(1000).tolist()}},
        {"kind": "nonconvex-sine-bowl", "dim": 8, "variance": 1.5},
    ], ids=lambda problem: problem["kind"])
    def test_derived_columns_equal_each_point_alone(self, tmp_path, capsys, problem):
        """f_value and dist_to_ref, each derived from the whole trace in one
        stacked call, equal the value and the distance of each x_t alone, bit
        for bit. The finite sum's 60 steps span several blocks of its residuals."""
        ref = np.linspace(-1.0, 1.0, 8)
        cfg = {"master_seed": 3, "problem": problem,
               "optimizer": {"algo": "nshb", "eta": 0.01, "beta": 0.5, "batch_size": 2},
               "run": {"max_steps": 60, "reference_point": ref.tolist()}}
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0
        spec = build_objective(cfg)
        if problem["kind"] == "finite-sum-least-squares":
            assert 60 > 2 * (_CHUNK_SCALARS // (spec.n * spec.dim))
        records = [json.loads(line) for line in (tmp_path / "run.jsonl").read_text().splitlines()]
        assert len(records) == 60
        for record in records:
            x = np.array(record["x_snapshot"])
            assert record["f_value"] == spec.value(x)
            assert record["dist_to_ref"] == np.sqrt(rowdot(x - ref, x - ref))

    def test_epsilon_stop(self, tmp_path, capsys):
        cfg = dict(SWEEP_CFG)
        cfg["run"] = {"max_steps": 500, "epsilon": 0.5}
        path = write_cfg(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "exit converged" in out

    def test_epsilon_stop_at_a_step_budget_past_memory(self, tmp_path, capsys):
        """With an epsilon the recorded columns grow as steps are taken, so a
        10^10-step budget (149 GiB a column up front) runs as 500 does."""
        runs = {}
        for cap in (500, 10 ** 10):
            cfg = write_cfg(tmp_path, {**SWEEP_CFG, "run": {"max_steps": cap, "epsilon": 0.5}})
            assert main(["run", "--config", cfg, "--out", str(tmp_path / str(cap))]) == 0
            runs[cap] = (tmp_path / str(cap) / "run.jsonl").read_bytes()
        assert "exit converged" in capsys.readouterr().out
        assert runs[500] == runs[10 ** 10]


class TestInnerProductSweep:
    def test_sweep_with_inner_product_rule(self, tmp_path, capsys):
        """stop_kind inner-product with no explicit reference falls back to
        the objective minimizer (known for the quadratic)."""
        cfg = json.loads(json.dumps(SWEEP_CFG))
        cfg["sweep"].update({"stop_kind": "inner-product", "epsilon": 0.6,
                             "batch_grid": [4, 16], "max_steps": 5000})
        path = write_cfg(tmp_path, cfg)
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert all(r.endswith("converged") for r in rows)

    def test_inner_product_without_reference_rejected(self, tmp_path, capsys):
        cfg = {
            "master_seed": 1,
            "problem": {"kind": "constant-gradient", "dim": 2, "variance": 1.0},
            "optimizer": {"algo": "sgd", "eta": 0.1, "batch_size": 1},
            "sweep": {"batch_grid": [2], "epsilon": 0.5, "seeds": 1,
                      "max_steps": 100, "stop_kind": "inner-product"},
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 2


class TestNoiseSubcommand:
    def test_outputs(self, tmp_path, capsys):
        cfg = dict(SWEEP_CFG)
        cfg["optimizer"] = {"algo": "nshb", "eta": 0.05, "beta": 0.9, "batch_size": 1}
        cfg["noise"] = {"steps": 400}
        path = write_cfg(tmp_path, cfg)
        assert main(["noise", "--config", path, "--out", str(tmp_path)]) == 0
        header = (tmp_path / "noise.csv").read_text().splitlines()[0]
        assert header == "t,grad_noise_sq,omega_sq"
        summary = json.loads((tmp_path / "noise.json").read_text())["summary"]
        for key in ("mean_omega_sq", "bound_c2_over_b", "direction_noise_bound_holds",
                    "buffer_lag_lhs", "buffer_lag_rhs", "buffer_lag_bound_holds"):
            assert key in summary
        assert json.loads((tmp_path / "noise.json").read_text())["rng_contract"] == 3


class TestSmoothSubcommand:
    def test_gap_report(self, tmp_path, capsys):
        cfg = {
            "master_seed": 3,
            "problem": {"kind": "constant-gradient", "dim": 2, "variance": 0.0,
                        "params": {"coefficient": [1.0, 1.0]}},
            "smooth": {"delta": 0.3, "samples": 4000, "points": [[0.0, 0.0], [1.0, 2.0]]},
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["smooth", "--config", path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "smooth.json").read_text())
        assert report["all_pass"] is True
        assert len(report["points"]) == 2
        assert set(report["points"][0]) == {"point", "f", "f_hat", "std_error",
                                            "gap", "bound", "pass"}
        assert report["config"]["smooth"]["delta"] == 0.3
        assert report["rng_contract"] == 3


class TestSharpnessSubcommand:
    def test_quadratic_reference(self, tmp_path, capsys):
        cfg = {
            "master_seed": 5,
            "problem": {"kind": "noisy-quadratic", "dim": 1, "variance": 0.0,
                        "params": {"x0": [0.0]}},
            "sharpness": {"rho": 1.0, "p": "inf", "iters": 50,
                          "method": "sign-ascent", "point": [0.0]},
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["sharpness", "--config", path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "sharpness.json").read_text())
        assert report["value"] == pytest.approx(0.5, rel=0.02)
        assert report["rng_contract"] == 3


class TestDeterminism:
    def artifacts(self, d):
        return sorted(p.name for p in Path(d).iterdir())

    def test_sweep_jobs_and_reruns_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        outs = [tmp_path / f"out{i}" for i in range(3)]
        assert main(["sweep", "--config", cfg, "--out", str(outs[0]), "--jobs", "1"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(outs[1]), "--jobs", "8"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(outs[2]), "--jobs", "1"]) == 0
        for name in ("sweep.csv", "summary.csv", "critical.json"):
            ref = (outs[0] / name).read_bytes()
            assert (outs[1] / name).read_bytes() == ref
            assert (outs[2] / name).read_bytes() == ref

    def test_verify_jobs_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_VERIFY)
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        assert main(["verify", "--config", cfg, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out2), "--jobs", "8"]) == 0
        assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()

    def test_seed_env_override_changes_rows(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        monkeypatch.setenv("NOISE_LAB_SEED", "99")
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() != (out2 / "sweep.csv").read_bytes()
        critical = json.loads((out2 / "critical.json").read_text())
        assert critical["config"]["master_seed"] == 99
        assert critical["rng_contract"] == 3

    def test_single_run_subcommands_byte_identical(self, tmp_path, capsys):
        cfg = dict(SWEEP_CFG)
        cfg["optimizer"] = {"algo": "nshb", "eta": 0.05, "beta": 0.9, "batch_size": 1}
        cfg["run"] = {"max_steps": 50}
        cfg["noise"] = {"steps": 300}
        path = write_cfg(tmp_path, cfg)
        for cmd, name in (("run", "run.jsonl"), ("noise", "noise.csv"),
                          ("noise", "noise.json")):
            out1, out2 = tmp_path / f"{cmd}{name}1", tmp_path / f"{cmd}{name}2"
            assert main([cmd, "--config", path, "--out", str(out1)]) == 0
            assert main([cmd, "--config", path, "--out", str(out2)]) == 0
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("command", ["sweep", "noise", "smooth", "sharpness", "verify"])
    def test_config_round_trip_reproduces_report(self, tmp_path, capsys, monkeypatch, command):
        """Re-running from the config embedded in the report, with no flags and
        no NOISE_LAB_SEED, reproduces every artifact byte for byte."""
        points = write_cfg(tmp_path, [[0.5, -0.5], [1.0, 2.0]], name="points.json")
        flags = {"smooth": ["--points-file", points, "--delta", "0.2", "--samples", "2000"],
                 "sharpness": ["--rho", "0.3", "--p", "2", "--iters", "20"]}.get(command, [])
        base = dict(SWEEP_CFG, noise={"steps": 300}, smooth={"box_radius": 3.0})
        if command == "verify":
            base = SMALL_VERIFY
            monkeypatch.setenv("NOISE_LAB_SEED", "7")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main([command, "--config", write_cfg(tmp_path, base), "--out", str(out1),
                     *flags]) == 0
        report = next(p for p in out1.iterdir() if p.suffix == ".json")
        embedded = json.loads(report.read_text())["config"]
        monkeypatch.delenv("NOISE_LAB_SEED", raising=False)
        cfg2 = write_cfg(tmp_path, embedded, name="embedded.json")
        assert main([command, "--config", cfg2, "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sign_ascent_with_a_scaling_whose_square_overflows(tmp_path):
    """c * c overflows while c * g does not: the ascent step scales by c
    after the norm, so the sharpness is rho * ||c * g||_2 = 1e200, not NaN."""
    cfg = {"problem": {"kind": "constant-gradient", "dim": 2},
           "sharpness": {"rho": 1, "p": 2, "c": [1e200, 1]}}
    out = tmp_path / "out"
    assert main(["sharpness", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    value = json.loads((out / "sharpness.json").read_text())["value"]
    assert value == pytest.approx(1e200, rel=0.01)


# every name `import noise_lab` bound before its exports loaded on first use
PACKAGE_NAMES = [
    "AnalyticCurveParams", "BatchStats", "BoundComponents", "BoundReport", "CheckResult",
    "ConstantGradient", "DomainError", "FiniteSumLeastSquares", "GapReport", "KnownConstants",
    "MeanUpdateReport", "NoiseReport", "NoiseSummary", "NoisyQuadratic", "Objective",
    "OptimizerConfig", "OptimizerState", "RngStream", "SharpnessSpec", "SineBowl",
    "SmoothedValue", "SmoothingSpec", "StopRule", "SweepRow", "SweepSummary", "TailStats",
    "Trace", "TraceRecord", "VerifySettings", "adaptive_sharpness", "analysis",
    "analytic_T", "analytic_critical_batch", "analytic_sfo", "convergence_bound_report",
    "default_burn_in", "degree_of_smoothing", "draw_directions", "empirical_critical_batch",
    "ensemble", "gd_vs_nshb_expectation", "gradient_noise_samples", "lhs_inner_product",
    "make_objective", "map_shb_to_nshb", "mean_direction_norm",
    "minibatch_deviation_sq_samples", "noise", "nshb_step", "optimizers", "problems",
    "reporting", "run", "run_sweep", "run_verify_suite", "search_direction_noise", "sgd_step",
    "shb_step", "simulate", "smoothed_value", "smoothing", "smoothing_gap_check",
    "stationarity_check", "steps_to_epsilon", "sweep", "tail_stats", "thm_rhs",
    "variance_upper_bound", "weighted_norm_identity", "xyz_from_setup",
]

IMPORT_CHECK = """
import sys
import noise_lab.cli as cli
loaded = sorted(m for m in ("analysis", "noise", "smoothing") if "noise_lab." + m in sys.modules)
assert not loaded, f"import noise_lab.cli loaded {loaded}"
assert cli.analysis.run_verify_suite and cli.noise_mod.search_direction_noise
assert cli.smoothing.adaptive_sharpness

import noise_lab
names = sys.argv[1:]
assert all(getattr(noise_lab, name) is not None for name in names)
assert sorted(noise_lab.__all__) == sorted(names), sorted(set(noise_lab.__all__) ^ set(names))
star = {}
exec("from noise_lab import *", star)
assert all(name in star for name in names), [n for n in names if n not in star]
assert star["run"] is sys.modules["noise_lab.optimizers"].run
"""


def child_env() -> dict:
    """The environment of a fresh interpreter that imports this tree's package."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))


def test_the_cli_loads_only_what_its_subcommands_run():
    """In a fresh interpreter, importing the CLI loads none of analysis, noise
    and smoothing; they still resolve as cli attributes, and every name the
    package exports resolves and is bound by a star import."""
    subprocess.run([sys.executable, "-c", IMPORT_CHECK, *PACKAGE_NAMES], env=child_env(),
                   check=True, timeout=60)


FREEZE_CHECK = """
import gc, sys
from noise_lab.cli import main
sys.argv[1:] = ["table1", "--out", sys.argv[1]]
status = main()
print(status, gc.get_freeze_count())
"""


def test_only_the_program_freezes_the_collector(tmp_path):
    """main(argv) called in-process leaves the collector alone; main() run as
    the program ends with the objects still alive frozen, so the collections
    at interpreter exit skip them."""
    before = gc.get_freeze_count()
    assert main(["table1", "--out", str(tmp_path / "in-process")]) == 0
    assert gc.get_freeze_count() == before
    done = subprocess.run([sys.executable, "-c", FREEZE_CHECK, str(tmp_path / "program")],
                          env=child_env(), capture_output=True, text=True, check=True,
                          timeout=60)
    status, frozen = map(int, done.stdout.split()[-2:])
    assert status == 0 and frozen > 0
