"""Self-tests of the benchmark: cross-layer invariants of the tracer on tiny
configs, the output checks, and agreement with BENCHMARK.json.

    python3 -m pytest bench -q

They are not part of the repository's test suite (pytest's testpaths is
`tests`), and they assert no timings.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import (CRIT13_OPTIMIZER, CRIT13_PROBLEM, WORKLOADS, check_run,  # noqa: E402
                       check_sweep, sweep_sfo, verify_sfo)

TINY_SWEEP = {"master_seed": 11, "problem": CRIT13_PROBLEM, "optimizer": CRIT13_OPTIMIZER,
              "sweep": {"batch_grid": [16, 32, 64], "epsilon": 1.0, "seeds": 2,
                        "max_steps": 3000}}
TINY_VERIFY = {"master_seed": 3, "verify": {"ensemble_seeds": 30, "ensemble_steps": 10,
                                            "noise_steps": 200, "variance_draws": 1000,
                                            "identity_triples": 100, "replicas": 100}}


def traced(tmp_path: Path, command: str, cfg: dict) -> tuple:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc, tracer, wall = tr.traced_main([command, "--config", str(config), "--out", str(out)])
    return rc, tracer, wall, out


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    rc, tracer, wall, out = traced(tmp_path_factory.mktemp("sweep"), "sweep", TINY_SWEEP)
    assert rc == 0
    return tracer, wall, out


def test_sweep_oracle_sfo_equals_csv(tiny_sweep):
    tracer, _, out = tiny_sweep
    s = tr.Spans(tracer)
    in_sweep = s.under("sweep.run_sweep")
    assert int(s.work[s.of(*tr.DRAWS) & in_sweep].sum()) == sweep_sfo(out, TINY_SWEEP)


def test_sweep_steps_equal_csv(tiny_sweep):
    tracer, _, out = tiny_sweep
    s = tr.Spans(tracer)
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    csv_steps = sum(int(r.split(",")[2]) for r in rows)
    assert int(s.work[s.of(tr.RUN) & s.under("sweep.run_sweep")].sum()) == csv_steps
    # the whole command adds the recorded reference trace of the critical-batch report
    reference = s.of(tr.RUN) & s.with_parent("cli._critical_report")
    assert reference.sum() == 1
    assert tr.layer_metrics(tracer)["optimizers.steps"] == csv_steps + s.work[reference].sum()


def test_one_generator_per_step(tiny_sweep):
    metrics = tr.layer_metrics(tiny_sweep[0])
    assert metrics["problems.generators_per_step"] == 1.0
    assert metrics["sweep.cells"] == 6


def test_self_times_sum_to_traced_wall(tiny_sweep):
    tracer, wall, _ = tiny_sweep
    s = tr.Spans(tracer)
    assert (s.self_time >= 0).all()
    assert (s.parent >= 0).sum() == len(s.parent) - 1     # one root: cli.main
    total = float(s.self_time.sum())
    assert total == pytest.approx(float(s.dur[s.of("cli.main")][0]), abs=1e-9)
    assert 0.0 <= wall - total < 1e-3


def test_sweep_check_accepts_and_rejects(tiny_sweep, tmp_path):
    out = tiny_sweep[2]
    assert check_sweep(out, TINY_SWEEP) == []
    for name in ("sweep.csv", "summary.csv", "critical.json"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    b, seed, steps, sfo, reason = lines[1].split(",")
    lines[1] = ",".join([b, seed, steps, str(int(sfo) + 1), reason])
    (tmp_path / "sweep.csv").write_text("\n".join(lines) + "\n")
    problems = check_sweep(tmp_path, TINY_SWEEP)
    assert any("sfo" in p for p in problems)


def test_verify_sfo_formula_matches_oracle(tmp_path):
    rc, tracer, _, out = traced(tmp_path, "verify", TINY_VERIFY)
    assert rc in (0, 1)          # small budgets may fail an asserted check
    metrics = tr.layer_metrics(tracer)
    assert metrics["problems.sfo"] == verify_sfo(**TINY_VERIFY["verify"])
    assert metrics["problems.generators_per_step"] == 1.0
    assert metrics["smoothing.samples_drawn"] == 5 * 20_000
    for name in ("analysis.ensemble_s", "analysis.bound_report_s",
                 "noise.search_direction_noise_s", "smoothing.gap_check_s",
                 "smoothing.mean_update_s", "reporting.dump_json_s", "config.build_s"):
        assert metrics[name] > 0, name


def test_run_records_and_bytes(tmp_path):
    cfg = {"master_seed": 4, "problem": CRIT13_PROBLEM, "optimizer": CRIT13_OPTIMIZER,
           "run": {"max_steps": 50, "record_x": True}}
    rc, tracer, _, out = traced(tmp_path, "run", cfg)
    assert rc == 0
    assert check_run(out, cfg) == []
    metrics = tr.layer_metrics(tracer)
    assert metrics["optimizers.records"] == metrics["optimizers.steps"] == 50
    assert metrics["problems.sfo"] == WORKLOADS["run-trace-20k"].sfo(out, cfg) == 400
    assert metrics["reporting.bytes_written"] == (out / "run.jsonl").stat().st_size
    s = tr.Spans(tracer)
    assert s.of("optimizers.TraceRecord.as_dict").sum() == 50


def test_names_restored_after_tracing():
    tracer = tr.Tracer()
    before = [vars(owner)[attr] for owner, attr, _, _ in tr._patch_table(tracer)]
    with tr.installed(tracer):
        during = [vars(owner)[attr] for owner, attr, _, _ in tr._patch_table(tracer)]
        assert all(a is not b for a, b in zip(before, during))
    after = [vars(owner)[attr] for owner, attr, _, _ in tr._patch_table(tracer)]
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_declares_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # run-trace-20k is run by hand only: its wall time spreads too far on a
    # shared 2-vCPU machine for the bound within the benchmark's time budget
    assert [w["name"] for w in spec["workloads"]] == [n for n in WORKLOADS
                                                      if n != "run-trace-20k"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tr.LAYER_UNITS
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_spans_round_trip(tiny_sweep, tmp_path):
    tracer = tiny_sweep[0]
    tracer.save(tmp_path / "spans.npz")
    saved = np.load(tmp_path / "spans.npz")
    assert list(saved["names"]) == tracer.names
    assert len(saved["start"]) == len(tracer.name)
