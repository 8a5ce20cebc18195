"""Per-module spans for one traced `noise-lab` run.

The tracer wraps the public functions of each `noise_lab` module from
outside the package: every name is replaced where it is looked up at call
time (`cli` binds `run_optimizer` and the emitters at import, `sweep` and
`analysis` import `run`, and so on), so no call slips past a wrapper that
sits in the wrong namespace. Spans are kept in memory as parallel arrays of
name, parent, start, end and one work count, and are written out once the
run has ended. A span's self time is its duration minus that of its child
spans.

Run as a script, it executes one workload traced, in-process:

    PYTHONPATH=src python3 bench/tracer.py WORKLOAD CONFIG OUT RESULT_JSON

and writes the per-layer metrics to RESULT_JSON and the spans next to it
(`.npz`). Its exit status is that of `noise_lab.cli.main`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

RUN = "optimizers.run"
UPDATES = ("optimizers.sgd_step", "optimizers.nshb_step", "optimizers.shb_step")
DRAWS = ("problems.minibatch_grad_means", "problems.minibatch_grad_ensemble")
EMITTERS = {"reporting.emit_jsonl": "emit_jsonl", "reporting.emit_csv": "emit_csv",
            "reporting.dump_json": "dump_json"}
HANDLERS = ("cmd_run", "cmd_sweep", "cmd_noise", "cmd_smooth", "cmd_sharpness",
            "cmd_verify", "cmd_table1")


# every per-layer metric and its unit; trace.overhead_s is measured by bench/run.py
LAYER_UNITS = {
    "config.load_s": "s", "config.build_s": "s",
    "problems.minibatch_calls": "count", "problems.sfo": "count",
    "problems.scalars_drawn": "count", "problems.minibatch_self_s": "s",
    "problems.scalars_per_s": "1/s", "problems.generators_built": "count",
    "problems.generator_us": "us", "problems.generators_per_step": "1/step",
    "problems.grad_calls": "count", "problems.grad_us": "us",
    "optimizers.run_calls": "count", "optimizers.steps": "count",
    "optimizers.step_self_us": "us", "optimizers.update_us": "us",
    "optimizers.records": "count", "optimizers.as_dict_s": "s",
    "sweep.cells": "count", "sweep.converged_fraction": "1",
    "sweep.cell_s_median": "s", "sweep.cell_s_max": "s", "sweep.observe_us": "us",
    "sweep.reference_run_s": "s",
    "analysis.ensemble_s": "s", "analysis.bound_report_s": "s",
    "analysis.verify_self_s": "s", "noise.search_direction_noise_s": "s",
    "smoothing.gap_check_s": "s", "smoothing.mean_update_s": "s",
    "smoothing.samples_drawn": "count",
    "reporting.emit_jsonl_s": "s", "reporting.emit_csv_s": "s",
    "reporting.dump_json_s": "s", "reporting.bytes_written": "bytes",
    "reporting.emit_mb_per_s": "MB/s",
    "cli.handler_self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span recorder for a single thread of calls."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.counters: dict = {"scalars": 0, "records": 0}
        self._stack: list = []

    def wrap(self, name: str, fn, work=None):
        """`fn` recorded as a span called `name`; `work(args, kwargs, result)`
        gives the span's work count (SFO, steps, bytes ...)."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            self.work.append(0.0)
            stack.append(idx)
            start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = time.perf_counter()
                stack.pop()
            if work is not None:
                self.work[idx] = work(args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays."""
        return {"name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start), "end": np.array(self.end),
                "work": np.array(self.work)}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _patch_table(tracer: Tracer) -> list:
    """(owner, attribute, span name, work) for every wrapped name."""
    from noise_lab import analysis, cli, noise, optimizers, problems, smoothing, sweep

    def draws(args, kwargs, result):
        # one draw is b gradients; an additive-noise draw costs b * dim Gaussians
        spec, b = args[0], _arg(args, kwargs, 2, "b")
        per_gradient = (1 if isinstance(spec, problems.FiniteSumLeastSquares)
                        else spec.dim * (spec.variance > 0))
        tracer.counters["scalars"] += b * result.shape[0] * per_gradient
        return b * result.shape[0]

    def steps(args, kwargs, result):
        tracer.counters["records"] += len(result.records)
        return result.steps

    def converged(args, kwargs, result):
        return float(result.exit_reason == "converged")

    def size(args, kwargs, result):
        return Path(result).stat().st_size

    def samples(args, kwargs, result):
        return len(result)

    table = [(cli, h, f"cli.{h}", None) for h in HANDLERS]
    table += [
        (cli, "_critical_report", "cli._critical_report", None),
        (cli, "load_config", "config.load_config", None),
        (cli, "validate_config", "config.validate_config", None),
        (cli, "build_objective", "config.build_objective", None),
        (cli, "build_optimizer", "config.build_optimizer", None),
        (analysis, "VerifySettings", "config.VerifySettings", None),
        (problems.Objective, "minibatch_grad_means", DRAWS[0], draws),
        (problems.Objective, "minibatch_grad_ensemble", DRAWS[1], draws),
        (problems.RngStream, "generator", "problems.RngStream.generator", None),
    ]
    table += [(cls, "grad", "problems.grad", None)
              for cls in (problems.NoisyQuadratic, problems.ConstantGradient,
                          problems.FiniteSumLeastSquares, problems.SineBowl)]
    table += [(owner, attr, RUN, steps)
              for owner, attr in ((cli, "run_optimizer"), (sweep, "run"),
                                  (analysis, "run"), (optimizers, "run"))]
    table += [(optimizers, u.split(".")[1], u, None) for u in UPDATES]
    table += [
        (optimizers.TraceRecord, "as_dict", "optimizers.TraceRecord.as_dict", None),
        (sweep, "run_sweep", "sweep.run_sweep", None),
        (sweep, "steps_to_epsilon", "sweep.steps_to_epsilon", converged),
        (sweep._CumulativeNormStop, "observe", "sweep.observe", None),
        (sweep._InnerProductStop, "observe", "sweep.observe", None),
        (analysis, "run_verify_suite", "analysis.run_verify_suite", None),
        (analysis, "ensemble", "analysis.ensemble", None),
        (analysis, "convergence_bound_report", "analysis.convergence_bound_report", None),
        (analysis, "search_direction_noise", "noise.search_direction_noise", None),
        (noise, "search_direction_noise", "noise.search_direction_noise", None),
        (analysis, "minibatch_deviation_sq_samples",
         "noise.minibatch_deviation_sq_samples", None),
        (smoothing, "smoothing_gap_check", "smoothing.smoothing_gap_check", None),
        (smoothing, "gd_vs_nshb_expectation", "smoothing.gd_vs_nshb_expectation", None),
        (smoothing, "draw_directions", "smoothing.draw_directions", samples),
    ]
    table += [(cli, attr, span, size) for span, attr in EMITTERS.items()]
    return table


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every name of the patch table for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, work in _patch_table(tracer):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, work))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_main(argv: list) -> tuple:
    """Run `noise_lab.cli.main(argv)` under a fresh tracer; returns
    (exit status, tracer, wall seconds around main)."""
    from noise_lab import cli

    tracer = Tracer()
    with installed(tracer):
        t0 = time.perf_counter()
        rc = tracer.wrap("cli.main", cli.main)(argv)
        wall = time.perf_counter() - t0
    return rc, tracer, wall


class Spans:
    """Queries over a finished tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = {n: i for i, n in enumerate(tracer.names)}
        self.name, self.parent, self.start = a["name"], a["parent"], a["start"]
        self.dur = a["end"] - a["start"]
        self.work = a["work"]
        has_parent = self.parent >= 0
        child = np.zeros_like(self.dur)
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def of(self, *names) -> np.ndarray:
        ids = [self.names[n] for n in names if n in self.names]
        return np.isin(self.name, ids)

    def under(self, ancestor: str) -> np.ndarray:
        """Spans that descend from a span called `ancestor`. Spans are
        appended in call order, so a span's descendants are the block of
        later spans that start before it ends."""
        mask = np.zeros(self.name.shape, dtype=bool)
        for i in np.flatnonzero(self.of(ancestor)):
            stop = np.searchsorted(self.start, self.start[i] + self.dur[i], side="right")
            mask[i + 1:stop] = True
        return mask

    def with_parent(self, parent: str) -> np.ndarray:
        mask = np.zeros(self.name.shape, dtype=bool)
        has_parent = self.parent >= 0
        mask[has_parent] = self.of(parent)[self.parent[has_parent]]
        return mask


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric of the benchmark except trace.overhead_s, which
    needs the untraced wall time."""
    s = Spans(tracer)
    run, draw = s.of(RUN), s.of(*DRAWS)
    steps = float(s.work[run].sum())
    emits = {name: s.of(span) for span, name in EMITTERS.items()}
    emit_s = float(sum(s.dur[m].sum() for m in emits.values()))
    bytes_written = float(s.work[s.of(*EMITTERS)].sum())
    cells = s.of("sweep.steps_to_epsilon")
    minibatch_self = float(s.self_time[draw].sum())
    gen = s.of("problems.RngStream.generator")
    return {
        "config.load_s": float(s.dur[s.of("config.load_config")].sum()),
        "config.build_s": float(s.dur[s.of("config.build_objective", "config.build_optimizer",
                                           "config.validate_config",
                                           "config.VerifySettings")].sum()),
        "problems.minibatch_calls": int(draw.sum()),
        "problems.sfo": int(s.work[draw].sum()),
        "problems.scalars_drawn": int(tracer.counters["scalars"]),
        "problems.minibatch_self_s": minibatch_self,
        "problems.scalars_per_s": _ratio(tracer.counters["scalars"], minibatch_self),
        "problems.generators_built": int(gen.sum()),
        "problems.generator_us": 1e6 * _mean(s.dur[gen]),
        "problems.generators_per_step": _ratio(float((gen & s.under(RUN)).sum()), steps),
        "problems.grad_calls": int(s.of("problems.grad").sum()),
        "problems.grad_us": 1e6 * _mean(s.dur[s.of("problems.grad")]),
        "optimizers.run_calls": int(run.sum()),
        "optimizers.steps": int(steps),
        "optimizers.step_self_us": 1e6 * _ratio(float(s.self_time[run].sum()), steps),
        "optimizers.update_us": 1e6 * _mean(s.dur[s.of(*UPDATES)]),
        "optimizers.records": int(tracer.counters["records"]),
        "optimizers.as_dict_s": float(s.dur[s.of("optimizers.TraceRecord.as_dict")].sum()),
        "sweep.cells": int(cells.sum()),
        "sweep.converged_fraction": _mean(s.work[cells]),
        "sweep.cell_s_median": float(np.median(s.dur[cells])) if cells.any() else 0.0,
        "sweep.cell_s_max": float(s.dur[cells].max()) if cells.any() else 0.0,
        "sweep.observe_us": 1e6 * _mean(s.dur[s.of("sweep.observe")]),
        "sweep.reference_run_s": float(s.dur[run & s.with_parent("cli._critical_report")].sum()),
        "analysis.ensemble_s": float(s.dur[s.of("analysis.ensemble")].sum()),
        "analysis.bound_report_s": float(
            s.dur[s.of("analysis.convergence_bound_report")].sum()),
        "analysis.verify_self_s": float(s.self_time[s.of("analysis.run_verify_suite")].sum()),
        "noise.search_direction_noise_s": float(
            s.dur[s.of("noise.search_direction_noise")].sum()),
        "smoothing.gap_check_s": float(s.dur[s.of("smoothing.smoothing_gap_check")].sum()),
        "smoothing.mean_update_s": float(
            s.dur[s.of("smoothing.gd_vs_nshb_expectation")].sum()),
        "smoothing.samples_drawn": int(s.work[s.of("smoothing.draw_directions")].sum()),
        "reporting.emit_jsonl_s": float(s.dur[emits["emit_jsonl"]].sum()),
        "reporting.emit_csv_s": float(s.dur[emits["emit_csv"]].sum()),
        "reporting.dump_json_s": float(s.dur[emits["dump_json"]].sum()),
        "reporting.bytes_written": int(bytes_written),
        "reporting.emit_mb_per_s": _ratio(bytes_written / 1e6, emit_s),
        "cli.handler_self_s": float(s.self_time[s.of(*(f"cli.{h}" for h in HANDLERS))].sum()),
    }


def main(argv: list) -> int:
    from workloads import WORKLOADS

    workload, config, out, result = WORKLOADS[argv[0]], Path(argv[1]), Path(argv[2]), Path(argv[3])
    cfg = json.loads(config.read_text(encoding="utf-8"))
    rc, tracer, wall = traced_main(workload.cli_args(config, out))
    s = Spans(tracer)
    payload = {"exit_status": rc, "wall_s": wall, "spans": len(tracer.name),
               "self_sum_s": float(s.self_time.sum()),
               "root_s": float(s.dur[s.of("cli.main")].sum()),
               "oracle_sfo": int(s.work[s.of(*DRAWS) & s.under(workload.sfo_scope)].sum()),
               "metrics": layer_metrics(tracer)}
    result.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    tracer.save(result.with_suffix(".npz"))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
