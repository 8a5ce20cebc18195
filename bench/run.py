"""noise-lab benchmark: one workload, measured end to end or traced per module.

    python3 bench/run.py --workload sweep-crit13 --seed 5 --seconds 55 --trace 0

Each run of the workload is the `noise-lab` CLI in a fresh child process
(closed loop, one client: the next run starts when the previous one has
exited) on a config generated from --seed. Every run's artifacts are
checked, and their sha256 must match every earlier run of the same code,
workload and seed. With --trace 0 the benchmark reports the end-to-end
metrics, each run's wall time averaged over the invocation; with --trace 1
it alternates untraced runs with traced ones (bench/tracer.py) and reports
the per-module metrics. The last line of standard output is one JSON
object: correct, attempted, failed, metrics. Results, with the machine they
ran on, are also written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

RUN_LIMIT_S = 170.0     # a child still running this long after the start is killed

CLI_CODE = "import sys; from noise_lab.cli import main; sys.exit(main())"
# what a user pays before the first step: interpreter, import, config load,
# validation and the objects built from the config
SETUP_CODE = """import sys
from noise_lab import cli
cfg = cli.load_config(sys.argv[1])
if "problem" in cfg:
    cli.build_objective(cfg)
    cli.build_optimizer(cfg)
else:
    cli.analysis.VerifySettings(master_seed=cli.resolve_seed(cfg), **cfg.get("verify", {}))
"""

END_TO_END = {"setup_s": "s", "wall_s": "s", "sfo_per_s": "1/s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NOISE_LAB_SEED", None)      # the seed comes from the generated config only
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Child:
    """One child process: exit status, wall seconds and peak RSS in MB."""

    def __init__(self, argv: list, log: Path, deadline: float):
        t0 = time.perf_counter()
        with log.open("wb") as err:
            proc = subprocess.Popen([sys.executable, *argv], env=child_env(), cwd=ROOT,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
        self.wall = time.perf_counter() - t0
        proc.returncode = self.status = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6     # ru_maxrss is in KiB
        self.log = log


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def code_digest() -> str:
    """Identity of the program under test, without needing git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "noise_lab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_info(seed: int, workload: str) -> dict:
    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    versions = {}
    for dist in ("numpy", "jsonschema"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "cgroup_cpu_max": read("/sys/fs/cgroup/cpu.max"),
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "code_digest": code_digest(),
        "workload": workload,
        "seed": seed,
    }


class Bench:
    """Runs one workload repeatedly and collects every run's outcome."""

    def __init__(self, workload, seed: int, run_dir: Path, digest_key: str):
        self.workload = workload
        self.cfg = workload.make_config(seed)
        self.run_dir = run_dir
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=1), encoding="utf-8")
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.digest_file = WORK / "digests.json"
        self.digest_key = digest_key
        self.digests = self._load_digests().get(digest_key)
        self.attempted = 0
        self.sfo = 0
        self.problems: list = []
        self.runs: list = []

    def _load_digests(self) -> dict:
        try:
            return json.loads(self.digest_file.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}

    def save_digests(self) -> None:
        known = self._load_digests()
        if self.digests is not None and self.digest_key not in known:
            known[self.digest_key] = self.digests
            self.digest_file.write_text(json.dumps(known, indent=1, sort_keys=True),
                                        encoding="utf-8")

    def setup_time(self) -> float:
        """Wall seconds of one fresh set-up."""
        child = Child(["-c", SETUP_CODE, str(self.config_path)], self.run_dir / "setup.log",
                      self.deadline)
        if child.status != 0:
            self.problems.append(f"setup exited {child.status}: {child.log.read_text()[-500:]}")
        return child.wall

    def run_once(self, traced: bool) -> None:
        """One CLI run; its measurements are kept if its outputs pass every check."""
        out = self.run_dir / ("traced" if traced else "out")
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        result = self.run_dir / "trace.json"
        if traced:
            argv = [str(TRACER), self.workload.name, str(self.config_path), str(out), str(result)]
        else:
            argv = ["-c", CLI_CODE, *self.workload.cli_args(self.config_path, out)]
        self.attempted += 1
        child = Child(argv, self.run_dir / "child.log", self.deadline)
        problems = self._check(child, out)
        if traced and not problems:
            trace = json.loads(result.read_text(encoding="utf-8"))
            problems += self._check_trace(trace, out)
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.problems += [f"run {self.attempted} ({'traced' if traced else 'untraced'}): {p}"
                              for p in problems]
            return
        run = {"wall_s": child.wall, "peak_rss_mb": child.peak_rss_mb, "sfo": self.sfo}
        if traced:
            run["metrics"] = trace["metrics"]
        self.runs.append(run)

    def _check(self, child: Child, out: Path) -> list:
        if child.status != 0:
            return [f"exit status {child.status}: {child.log.read_text(errors='replace')[-500:]}"]
        try:
            problems = self.workload.check(out, self.cfg)
            self.sfo = self.workload.sfo(out, self.cfg)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable artifacts: {exc!r}"]
        digests = {name: sha256(out / name) for name in self.workload.artifacts}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(n for n in digests if digests[n] != self.digests.get(n))
            problems.append(f"artifacts differ from an earlier run of this code and seed: {changed}")
        return problems

    def _check_trace(self, trace: dict, out: Path) -> list:
        problems = []
        if trace["oracle_sfo"] != self.sfo:
            problems.append(f"oracle counted {trace['oracle_sfo']} gradient evaluations, "
                            f"the workload's artifacts {self.sfo}")
        # spans form one tree only if every call stayed on one thread
        if abs(trace["self_sum_s"] - trace["root_s"]) > 1e-6 * max(1.0, trace["root_s"]):
            problems.append("self times do not sum to the root span")
        return problems


def measure(bench: Bench, deadline: float, traced: bool) -> list:
    """Untraced runs, each after one timed set-up, or untraced/traced pairs,
    until the next would end after `deadline`, a time.monotonic() value. At
    least one is made. Returns the set-up times: spread over the whole
    invocation, they see the same spells of machine speed as the runs."""
    setups = []
    while True:
        t0 = time.monotonic()
        if not traced:
            setups.append(bench.setup_time())
        bench.run_once(traced=False)
        if traced:
            bench.run_once(traced=True)
        now = time.monotonic()
        if now + (now - t0) > deadline:
            return setups


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not (SRC / "noise_lab" / "cli.py").is_file():
        print(f"no noise_lab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    code = code_digest()
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Bench(workload, args.seed, run_dir, f"{code}/{workload.name}/{args.seed}")

    bench.setup_time()          # untimed: fills the .pyc and file caches
    # set-up counts against --seconds, so an invocation lasts about that long
    setup = measure(bench, start + args.seconds, traced=bool(args.trace))
    bench.save_digests()

    plain = [r for r in bench.runs if "metrics" not in r]
    traced = [r for r in bench.runs if "metrics" in r]
    failed = bench.attempted - len(bench.runs)
    lines = [f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
             f"code {code}"]
    if args.trace:
        values = {name: median([r["metrics"][name] for r in traced])
                  for name in LAYER_UNITS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (mean([r["wall_s"] for r in traced])
                                      - mean([r["wall_s"] for r in plain]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        lines += [f"  {name:<32} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
        lines.append(f"  (medians of {len(traced)} traced runs; overhead against "
                     f"{len(plain)} untraced runs)")
    else:
        # means, not medians: the machine's speed changes in spells of seconds
        # to a minute, and the mean weighs every spell of the run by its length
        walls = [r["wall_s"] for r in plain]
        values = {"setup_s": median(setup),
                  "wall_s": mean(walls),
                  "sfo_per_s": sum(r["sfo"] for r in plain) / sum(walls) if plain else 0.0,
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in plain])}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        counts = {"setup_s": f"median of {len(setup)} set-ups, one before each run",
                  "wall_s": f"mean of {len(plain)} runs",
                  "sfo_per_s": f"{bench.sfo if plain else 0} SFO per run, over the total wall",
                  "peak_rss_mb": "median peak RSS of the CLI process"}
        lines += [f"  {name:<12} {m['value']:>14.6g} {m['unit']:<4} ({counts[name]})"
                  for name, m in metrics.items()]
    error_rate = failed / bench.attempted
    lines.append(f"  {'error_rate':<12} {error_rate:>14.6g} 1    "
                 f"({failed} of {bench.attempted} runs failed)")
    lines += [f"  problem: {p}" for p in bench.problems]
    machine = machine_info(args.seed, workload.name)
    lines.append("machine " + json.dumps(machine, sort_keys=True))
    print("\n".join(lines))

    result = {"correct": not bench.problems and failed == 0 and bench.attempted > 0,
              "attempted": bench.attempted, "failed": failed, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{run_dir.name}.json").write_text(json.dumps(
        {**result, "error_rate": error_rate, "problems": bench.problems, "machine": machine,
         "runs": bench.runs}, indent=1), encoding="utf-8")
    spans = run_dir / "trace.npz"
    if spans.exists():
        spans.replace(results / f"{run_dir.name}.spans.npz")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
