"""Command-line entry point.

Subcommands: run, sweep, noise, smooth, sharpness, verify, table1.
Configuration comes from a single JSON file (--config; verify runs
without one); a few flags override their config-block counterparts.
Every subcommand but table1 takes its inputs from _inputs, which checks
the config, the flags, the point dims, the seed and --out before anything
runs. Exit status: 0 on success, 1 when an asserted verification check
fails, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import analysis, noise as noise_mod, smoothing, sweep as sweep_mod
from .config import (POINT, SCHEMA, ConfigError, build_objective, build_optimizer,
                     load_config, read_json, resolve_seed, validate_config)
from .optimizers import TraceOptions, run as run_optimizer
from .problems import RNG_CONTRACT, RngStream
from .reporting import dump_json, emit_csv, emit_jsonl, json_number

DEFAULT_BATCH_GRID = [2 ** k for k in range(3, 14)]

# rows of the built-in arithmetic fixture: (group, eta, eps, b*)
_FIXTURE_ROWS = [
    ("A1", 0.01, 1.0, 2 ** 7),
    ("A2", 0.05, 0.5, 2 ** 8),
    ("A3", 0.10, 0.5, 2 ** 9),
    ("A4", 0.50, 0.5, 2 ** 9),
    ("A5", 1.00, 0.5, 2 ** 9),
    ("B1", 0.10, 0.5, 2 ** 2),
    ("B2", 0.10, 0.5, 2 ** 3),
    ("B3", 0.10, 0.5, 2 ** 3),
]


def fixture_table_text() -> str:
    """The variance back-estimation fixture: bound = b* eps^2 / eta."""
    lines = [
        "variance upper bounds back-estimated from critical batch sizes",
        "bound = b_star * eps^2 / eta",
        "",
        "group    eta    eps   b_star    bound",
    ]
    for group, eta, eps, b_star in _FIXTURE_ROWS:
        bound = sweep_mod.variance_upper_bound(b_star, eps, eta)
        lines.append(f"{group:<5} {eta:>6.2f} {eps:>6.1f} {b_star:>8d} {bound:>8g}")
    return "\n".join(lines) + "\n"


def _out_dir(args, cfg) -> Path:
    """The output directory, checked before anything runs; the emitters make
    it when they write the first artifact."""
    path = Path(args.out or cfg.get("output_dir") or ".")
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{str(existing)!r} exists and is not a directory",
                          "--out" if args.out else "$.output_dir")
    return path


def _inputs(args, name: str, **defaults):
    """The objective (None for verify), the subcommand's block, the seed, the
    resolved config and the output directory, each checked before anything runs.
    The block is the defaults (a callable one is a function of the objective),
    then the config's block, then every flag given that the block's schema names."""
    verify = name == "verify"
    if not (args.config or verify):
        raise ConfigError("this subcommand needs --config")
    cfg = load_config(args.config) if args.config else {}
    spec = None if verify else build_objective(cfg)
    fields = SCHEMA["properties"][name]["properties"]
    block = {k: v(spec) if callable(v) else v for k, v in defaults.items()}
    block.update(cfg.get(name, {}))
    block.update((k, v) for k, v in vars(args).items() if k in fields)
    # verify runs at its own default seed unless the config or NOISE_LAB_SEED sets one
    seed = resolve_seed({"master_seed": analysis.VerifySettings().master_seed, **cfg}
                        if verify else cfg)
    rest = {k: v for k, v in cfg.items() if k != "output_dir"}
    resolved = validate_config({**rest, "master_seed": seed, name: block})
    # every point, a POINT field or one of an array of them, has the problem's dim coordinates
    for key, schema in fields.items():
        value = block.get(key)
        if value is None or POINT not in (schema, schema.get("items")):
            continue
        for point in ([value] if schema == POINT else value):
            if len(point) != spec.dim:
                raise ConfigError(f"{len(point)} coordinates do not match the problem's "
                                  f"dim {spec.dim}", f"$.{name}.{key}")
    return spec, block, seed, resolved, _out_dir(args, cfg)


def _dump_report(payload: dict, path: Path, resolved: dict) -> Path:
    """Write a JSON report stamped with its resolved config and the stream
    contract its draws follow."""
    return dump_json(dict(payload, config=resolved, rng_contract=RNG_CONTRACT), path)


def cmd_run(args) -> int:
    spec, block, seed, resolved, out = _inputs(args, "run", max_steps=1000, record_x=True)
    opt = build_optimizer(resolved)
    stop = sweep_mod.StopRule(epsilon=block["epsilon"]) if "epsilon" in block else None
    trace = run_optimizer(
        spec, opt, x0=block.get("x0"), stop=stop, max_steps=block["max_steps"],
        rng=RngStream(seed),
        trace_options=TraceOptions(record=True, record_x=block["record_x"],
                                   reference_point=block.get("reference_point")),
    )
    path = emit_jsonl((r.as_dict() for r in trace.records), out / "run.jsonl")
    print(f"wrote {path} ({trace.steps} records, exit {trace.exit_reason})")
    return 0


def _stop_rule_from(block: dict, spec) -> sweep_mod.StopRule:
    kind = block.get("stop_kind", "cumulative-grad-norm")
    ref = block.get("reference_point")
    if kind == "inner-product" and ref is None:
        ref = spec.minimizer()
        if ref is None:
            raise ConfigError("inner-product stop rule needs a reference_point",
                              "$.sweep.reference_point")
        ref = [float(v) for v in ref]
    try:
        return sweep_mod.StopRule(
            epsilon=block["epsilon"], kind=kind, reference_point=ref,
            use_minibatch_norm=block.get("use_minibatch_norm", False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "$.sweep") from exc


def cmd_sweep(args) -> int:
    spec, block, seed, resolved, out = _inputs(
        args, "sweep", batch_grid=list(DEFAULT_BATCH_GRID), seeds=3, max_steps=30_000)
    if "epsilon" not in block:
        raise ConfigError("sweep needs an epsilon (flag or config)", "$.sweep.epsilon")
    if block["batch_grid"] != sorted(set(block["batch_grid"])):
        raise ConfigError(f"batch sizes must be strictly ascending, got {block['batch_grid']}",
                          "--batch-grid" if hasattr(args, "batch_grid") else "$.sweep.batch_grid")
    opt = build_optimizer(resolved)
    stop = _stop_rule_from(block, spec)
    summary = sweep_mod.run_sweep(
        spec, opt, block["batch_grid"], block["seeds"], stop, block["max_steps"],
        x0=block.get("x0"), master_seed=seed,
    )

    p1 = emit_csv([dict(asdict(r), steps=r.steps_T) for r in summary.rows], out / "sweep.csv",
                  ["b", "seed", "steps", "sfo", "exit_reason"])
    print(f"wrote {p1} ({len(summary.rows)} rows)")
    p2 = emit_csv([asdict(s) for s in summary.per_batch], out / "summary.csv",
                  ["b", "mean_steps", "mean_sfo", "converged_fraction"])
    print(f"wrote {p2} ({len(summary.per_batch)} batch sizes)")

    critical = _critical_report(spec, opt, stop, block, summary, seed)
    p3 = _dump_report(critical, out / "critical.json", resolved)
    print(f"wrote {p3} (empirical b* = {critical['empirical_b_star']})")
    return 0


def _critical_report(spec, opt, stop, block, summary, seed) -> dict:
    eta, _ = opt.effective_eta_beta()
    notes = []
    try:
        b_star = sweep_mod.empirical_critical_batch(summary)
    except ValueError as exc:
        b_star = None
        notes.append(str(exc))
    bound = None if b_star is None else json_number(sweep_mod.variance_upper_bound(
        b_star, stop.epsilon, eta))

    unconverged = [s.b for s in summary.per_batch if s.converged_fraction < 1.0]
    if unconverged:
        notes.append(f"excluded from argmin (not fully converged): {unconverged}")
    notes.append("stop rule gradient norms: "
                 + ("minibatch" if stop.use_minibatch_norm else "exact full gradient"))

    report = {
        "empirical_b_star": b_star,
        "variance_upper_bound": bound,
        "epsilon": stop.epsilon,
        "analytic_b_star": None,
        "params": None,
        "notes": notes,
    }

    x_ref = block.get("reference_point")
    if x_ref is None and spec.minimizer() is not None:
        x_ref = spec.minimizer()
        notes.append("analytic reference point: objective minimizer")
    if x_ref is None:
        notes.append("analytic curve skipped: no reference point available")
        return report

    ref_config = replace(opt, batch_size=int(block["batch_grid"][0]))
    ref_trace = run_optimizer(
        spec, ref_config, x0=block.get("x0"), stop=stop,
        max_steps=int(block["max_steps"]),
        rng=RngStream(seed).child("reference"),
        trace_options=TraceOptions(record=True, record_x=True, record_f=False),
    )
    try:
        params = sweep_mod.xyz_from_setup(spec, opt, x_ref, trace=ref_trace,
                                          epsilon=stop.epsilon,
                                          x0=block.get("x0"))
        # JSON has no NaN or infinity: a coefficient that overflowed is null
        report["params"] = {k: json_number(v) if isinstance(v, float) else v
                            for k, v in asdict(params).items()}
        overflowed = [k for k, v in report["params"].items() if v is None]
        if overflowed:
            notes.append(f"params not finite, written as null: {', '.join(overflowed)}")
        report["analytic_b_star"] = json_number(sweep_mod.analytic_critical_batch(params))
    except (sweep_mod.DomainError, ValueError) as exc:
        notes.append(f"analytic curve unavailable: {exc}")
    return report


def cmd_noise(args) -> int:
    spec, block, seed, resolved, out = _inputs(args, "noise", steps=1500)
    opt = build_optimizer(resolved)
    burn_in = block.get("burn_in", noise_mod.default_burn_in(opt.effective_eta_beta()[1]))
    if block["steps"] <= burn_in:
        raise ConfigError(f"{block['steps']} steps leave nothing after a burn-in of {burn_in}",
                          "$.noise.steps")

    trace = run_optimizer(
        spec, opt, x0=block.get("x0"), max_steps=block["steps"],
        rng=RngStream(seed),
        trace_options=TraceOptions(record=True, record_x=False, record_f=False),
    )
    if trace.exit_reason == "diverged":     # its noise would cancel against huge gradients
        early = f", before its burn-in of {burn_in} steps ended" if trace.steps <= burn_in else ""
        raise ConfigError(f"the run diverged at step {trace.steps}{early}", "$.optimizer")
    report = noise_mod.search_direction_noise(trace, spec, burn_in=burn_in)
    # huge but finite gradients can leave the iterate in range while their squares overflow
    floats = [v for v in asdict(report.summary).values() if isinstance(v, float)]
    if not all(np.isfinite(v).all() for v in (report.grad_noise_sq, report.omega_sq, floats)):
        raise ConfigError("the squared noise norms overflow", "$.optimizer")
    p1 = emit_csv(list(report.rows()), out / "noise.csv",
                  ["t", "grad_noise_sq", "omega_sq"])
    print(f"wrote {p1} ({trace.steps} steps)")
    p2 = _dump_report({"summary": report.summary}, out / "noise.json", resolved)
    print(f"wrote {p2} (mean omega^2 = {report.summary.mean_omega_sq:.6g})")
    return 0


def cmd_smooth(args) -> int:
    if args.points_file:
        args.points = read_json(args.points_file, "--points-file")
    spec, block, seed, resolved, out = _inputs(
        args, "smooth", delta=0.1, dist="unit-sphere-uniform", samples=100_000,
        points=lambda spec: [[float(v) for v in spec.default_start()]])
    lipschitz = block.get("lipschitz")
    if lipschitz is None and "box_radius" in block:
        lipschitz = spec.lipschitz_on_box(block["box_radius"])
    if lipschitz is None:
        lipschitz = spec.constants().lipschitz
    if lipschitz is None:
        raise ConfigError(
            "objective has no known Lipschitz constant; set smooth.lipschitz "
            "or smooth.box_radius", "$.smooth.lipschitz")
    if not math.isfinite(lipschitz):     # the objective's constant overflowed
        raise ConfigError(f"the Lipschitz constant is {lipschitz}, not a finite number",
                          "$.smooth.lipschitz")

    try:
        report = smoothing.smoothing_gap_check(
            spec, block["points"], block["delta"], lipschitz=lipschitz,
            samples=block["samples"], dist=block["dist"], rng=RngStream(seed),
        )
    except FloatingPointError as exc:    # delta carried the perturbed points out of range
        raise ConfigError(str(exc), "$.smooth.delta") from exc
    payload = {
        "delta": report.delta,
        "lipschitz": report.lipschitz,
        "dist": block["dist"],
        "samples": block["samples"],
        "points": [{"pass" if k == "passed" else k: v for k, v in asdict(p).items()}
                   for p in report.points],
        "all_pass": report.all_passed,
    }
    path = _dump_report(payload, out / "smooth.json", resolved)
    print(f"wrote {path} ({len(report.points)} points, all_pass={report.all_passed})")
    return 0


def cmd_sharpness(args) -> int:
    spec, block, seed, resolved, out = _inputs(
        args, "sharpness", rho=0.5, p="inf", iters=50, method="sign-ascent")
    point = block.get("point", [float(v) for v in spec.default_start()])
    try:
        spec_sharp = smoothing.SharpnessSpec(
            rho=block["rho"], c=block.get("c"), p=block["p"],
            method=block["method"], iters=block["iters"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "$.sharpness") from exc
    value = smoothing.adaptive_sharpness(spec, np.asarray(point, dtype=float),
                                         spec_sharp, rng=RngStream(seed))
    if not math.isfinite(value):         # rho carried the perturbed points out of range
        raise ConfigError(f"the sharpness is {value}, not a finite number", "$.sharpness.rho")
    payload = {
        "value": value,
        "rho": block["rho"],
        "p": block["p"],
        "iters": block["iters"],
        "method": block["method"],
        "point": [float(v) for v in point],
    }
    path = _dump_report(payload, out / "sharpness.json", resolved)
    print(f"wrote {path} (sharpness = {value:.6g})")
    return 0


def cmd_verify(args) -> int:
    _, block, seed, resolved, out = _inputs(args, "verify")
    settings = analysis.VerifySettings(master_seed=seed, **block)
    results = analysis.run_verify_suite(settings)
    all_asserted = all(r.holds for r in results if r.asserted)
    for r in results:
        status = "pass" if r.holds else ("FAIL" if r.asserted else "reported-false")
        kind = "asserted" if r.asserted else "diagnostic"
        print(f"  [{status}] {r.check} ({kind}): lhs={r.lhs:.6g} rhs={r.rhs:.6g}")
    payload = {
        "checks": [dict(asdict(r), margin=r.margin) for r in results],
        "all_asserted_hold": all_asserted,
    }
    path = _dump_report(payload, out / "verify.json", resolved)
    print(f"wrote {path} ({len(results)} checks, all asserted hold: {all_asserted})")
    return 0 if all_asserted else 1


def cmd_table1(args) -> int:
    out = _out_dir(args, {}) if args.out else None
    text = fixture_table_text()
    sys.stdout.write(text)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        path = out / "table1.txt"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    return 0


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _int_at_least(low: int):
    # argparse names the type function in its message for a non-integer: one name for all
    def _positive_int(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return _positive_int


def _int_list(text: str) -> list:
    try:
        return [_int_at_least(1)(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noise-lab",
        description="Measure stochastic-gradient noise, sweep batch sizes, "
                    "and audit the analytic bounds on synthetic objectives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    jobs_help = "accepted and ignored (kept for scripts); cells run in one ordered loop"

    def command(name, handler, help):
        # a block flag not given stays unset, so _inputs keeps the config's value
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--out", default=None,
                       help="output directory (default: config output_dir or .)")
        p.set_defaults(handler=handler)
        return p

    command("run", cmd_run, "run one optimizer trace, export JSONL")

    p = command("sweep", cmd_sweep, "batch-size sweep with critical-batch report")
    p.add_argument("--batch-grid", type=_int_list, help="comma separated batch sizes")
    p.add_argument("--epsilon", type=_finite_float)
    p.add_argument("--seeds", type=_int_at_least(1))
    p.add_argument("--max-steps", type=_int_at_least(1))
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help=jobs_help)

    command("noise", cmd_noise, "per-step noise norms and summary")

    p = command("smooth", cmd_smooth, "smoothed-value gap check")
    p.add_argument("--delta", type=_finite_float)
    p.add_argument("--dist", choices=list(smoothing.DISTRIBUTIONS))
    # one sample leaves the standard error, and so the gap allowance, undefined
    p.add_argument("--samples", type=_int_at_least(2))
    p.add_argument("--points-file", default=None, help="JSON array of points")

    p = command("sharpness", cmd_sharpness, "worst-case adaptive sharpness lower bound")
    p.add_argument("--rho", type=_finite_float)
    # the config's p is the int 2 or the string "inf"
    p.add_argument("--p", type=lambda s: 2 if s == "2" else s, choices=[2, "inf"])
    p.add_argument("--iters", type=_int_at_least(1))
    p.add_argument("--method", choices=list(smoothing.SHARPNESS_METHODS))

    p = command("verify", cmd_verify, "run the identity/bound suite")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help=jobs_help)

    p = sub.add_parser("table1", help="print the built-in variance back-estimation fixture")
    p.add_argument("--out", help="also write table1.txt here")
    p.set_defaults(handler=cmd_table1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every subcommand turns an overflow into what it checks (the divergence test,
        # a null value, exit 2), so numpy's warning would only repeat it on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
