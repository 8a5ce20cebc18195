"""The benchmark workloads: generated configs, CLI arguments, output checks
and the gradient-evaluation (SFO) count of each run.

BENCHMARK.json declares `sweep-crit13` and `verify-default`. `run-trace-20k`
is run by hand (`--workload run-trace-20k`): the same checks apply, but its
wall time spreads too far on a shared 2-vCPU machine to hold the bound.

Every workload is one `noise-lab` subcommand on a pinned config whose
`master_seed` is the benchmark seed. A check returns a list of problems;
an empty list means the run's artifacts are correct.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BATCH_GRID = [2 ** k for k in range(3, 14)]

# the criterion-13 problem and optimizer, shared by sweep-crit13 and run-trace-20k
CRIT13_PROBLEM = {"kind": "noisy-quadratic", "dim": 16, "variance": 450.0,
                  "params": {"x0": [2.0] * 16}}
CRIT13_OPTIMIZER = {"algo": "sgd", "eta": 0.02, "batch_size": 8}
CRIT13_SWEEP = {"batch_grid": BATCH_GRID, "epsilon": 1.0, "seeds": 3, "max_steps": 30_000}
RUN_STEPS = 20_000

TRACE_KEYS = {"t", "f_value", "grad", "search_direction", "minibatch_grad",
              "x_snapshot", "dist_to_ref"}
TRACE_VECTORS = ("grad", "search_direction", "minibatch_grad", "x_snapshot")

VERIFY_DIAGNOSTICS = {"direction-noise-second-moment-bound", "buffer-lag-noise-bound",
                      "nshb-inner-product-bound"}
VERIFY_ASSERTED = {
    "weighted-norm-identity", "minibatch-variance-scaling",
    "minibatch-second-moment-bound", "momentum-buffer-second-moment-bound",
    "sgd-inner-product-bound", "momentum-vs-gd-mean-update",
    "shb-nshb-reparameterization", "zero-momentum-reduces-to-sgd",
    "stationarity-variational-consistency", "smoothing-gap-bound",
    "steps-curve-shape", "sfo-curve-minimizer", "critical-batch-lower-bound",
    "variance-backestimate-roundtrip",
}


def verify_sfo(ensemble_seeds: int = 100, ensemble_steps: int = 300,
               noise_steps: int = 1500, variance_draws: int = 100_000,
               replicas: int = 4_000, **_ignored) -> int:
    """Gradient evaluations of `noise-lab verify`, from its settings.

    The suite does a fixed amount of oracle work whatever the seed:
    variance scaling draws b * variance_draws at b in (1, 4, 16, 64); one
    b = 1 noise trace; two ensembles at b = 8; the mean-update identity
    advances `replicas` b = 1 replicas for 200 burn-in steps plus one; the
    two shared-noise equivalence pairs run 4 traces of 1000 steps at b = 4.
    The traced run counts the same quantity at the oracle and checks it
    against this formula.
    """
    return (sum((1, 4, 16, 64)) * variance_draws
            + noise_steps
            + 2 * ensemble_seeds * ensemble_steps * 8
            + replicas * 201
            + 4 * 1000 * 4)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    artifacts: tuple
    make_config: Callable[[int], dict]
    check: Callable[[Path, dict], list]
    sfo: Callable[[Path, dict], int]
    # the span whose oracle calls the SFO count covers
    sfo_scope: str = "cli.main"

    def cli_args(self, config_path: Path, out_dir: Path) -> list:
        args = [self.command, "--config", str(config_path), "--out", str(out_dir)]
        if self.command in ("sweep", "verify"):
            args += ["--jobs", "1"]
        return args


def _read_csv(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def check_sweep(out: Path, cfg: dict) -> list:
    block = cfg["sweep"]
    grid, seeds = block["batch_grid"], block["seeds"]
    rows = _read_csv(out / "sweep.csv")
    problems = []
    if len(rows) != len(grid) * seeds:
        problems.append(f"sweep.csv has {len(rows)} rows, expected {len(grid) * seeds}")
    by_b = {}
    for row in rows:
        b, steps, sfo = int(row["b"]), int(row["steps"]), int(row["sfo"])
        if sfo != b * steps:
            problems.append(f"sweep.csv row b={b} seed={row['seed']}: sfo {sfo} != b*steps")
        by_b.setdefault(b, []).append(row)
    if sorted(by_b) != sorted(grid):
        problems.append(f"sweep.csv batch sizes {sorted(by_b)} != grid {grid}")
    summary = _read_csv(out / "summary.csv")
    for s in summary:
        b = int(s["b"])
        group = by_b.get(b, [])
        if not group:
            problems.append(f"summary.csv b={b} has no sweep rows")
            continue
        expect = {
            "mean_steps": sum(int(r["steps"]) for r in group) / len(group),
            "mean_sfo": sum(int(r["sfo"]) for r in group) / len(group),
            "converged_fraction": sum(r["exit_reason"] == "converged" for r in group) / len(group),
        }
        for key, value in expect.items():
            if not _close(float(s[key]), value):
                problems.append(f"summary.csv b={b} {key} {s[key]} != {value!r} from sweep.csv")
    if len(summary) != len(grid):
        problems.append(f"summary.csv has {len(summary)} rows, expected {len(grid)}")
    b_star = json.loads((out / "critical.json").read_text(encoding="utf-8"))["analytic_b_star"]
    if b_star is None or not grid[0] <= b_star <= grid[-1]:
        problems.append(f"analytic_b_star {b_star} outside the grid [{grid[0]}, {grid[-1]}]")
    return problems


def sweep_sfo(out: Path, cfg: dict) -> int:
    return sum(int(r["sfo"]) for r in _read_csv(out / "sweep.csv"))


def check_verify(out: Path, cfg: dict) -> list:
    payload = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    checks = {c["check"]: c for c in payload["checks"]}
    problems = []
    if len(payload["checks"]) != len(VERIFY_ASSERTED | VERIFY_DIAGNOSTICS):
        problems.append(f"verify.json has {len(payload['checks'])} checks, expected 17")
    missing = (VERIFY_ASSERTED | VERIFY_DIAGNOSTICS) - set(checks)
    if missing:
        problems.append(f"verify.json lacks checks {sorted(missing)}")
    for name in VERIFY_ASSERTED & set(checks):
        if not checks[name]["asserted"]:
            problems.append(f"check {name} is no longer asserted")
    # diagnostics are reported with both sides and never gated on
    for name in VERIFY_DIAGNOSTICS & set(checks):
        c = checks[name]
        if c["asserted"]:
            problems.append(f"diagnostic {name} is asserted")
        if not all(isinstance(c[k], (int, float)) for k in ("lhs", "rhs")):
            problems.append(f"diagnostic {name} lacks a numeric side")
    if payload["all_asserted_hold"] is not True:
        failed = [n for n, c in checks.items() if c["asserted"] and not c["holds"]]
        problems.append(f"asserted checks fail: {failed}")
    return problems


def verify_run_sfo(out: Path, cfg: dict) -> int:
    return verify_sfo(**cfg.get("verify", {}))


def check_run(out: Path, cfg: dict) -> list:
    steps = cfg["run"]["max_steps"]
    dim = cfg["problem"]["dim"]
    problems = []
    with (out / "run.jsonl").open(encoding="utf-8") as fh:
        n = 0
        for n, line in enumerate(fh, start=1):
            rec = json.loads(line)
            if set(rec) != TRACE_KEYS:
                problems.append(f"line {n} keys {sorted(rec)}")
            elif rec["t"] != n - 1:
                problems.append(f"line {n} has t={rec['t']}, expected {n - 1}")
            elif any(len(rec[k]) != dim for k in TRACE_VECTORS):
                problems.append(f"line {n} has a vector whose length is not {dim}")
            if len(problems) >= 5:
                break
    if n != steps:
        problems.append(f"run.jsonl has {n} lines, expected {steps}")
    return problems


def run_sfo(out: Path, cfg: dict) -> int:
    return cfg["run"]["max_steps"] * cfg["optimizer"]["batch_size"]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sweep-crit13",
            command="sweep",
            artifacts=("sweep.csv", "summary.csv", "critical.json"),
            make_config=lambda seed: {"master_seed": seed, "problem": CRIT13_PROBLEM,
                                      "optimizer": CRIT13_OPTIMIZER, "sweep": CRIT13_SWEEP},
            check=check_sweep,
            sfo=sweep_sfo,
            sfo_scope="sweep.run_sweep",
        ),
        Workload(
            name="verify-default",
            command="verify",
            artifacts=("verify.json",),
            make_config=lambda seed: {"master_seed": seed},
            check=check_verify,
            sfo=verify_run_sfo,
        ),
        Workload(
            name="run-trace-20k",
            command="run",
            artifacts=("run.jsonl",),
            make_config=lambda seed: {"master_seed": seed, "problem": CRIT13_PROBLEM,
                                      "optimizer": CRIT13_OPTIMIZER,
                                      "run": {"max_steps": RUN_STEPS, "record_x": True}},
            check=check_run,
            sfo=run_sfo,
        ),
    )
}
