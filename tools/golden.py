"""Byte-identity harness: one table of canonical CLI invocations and the
sha256 of everything each one leaves behind.

Each entry runs `python -m noise_lab.cli` in a child process, all entries
at once, each in a fresh directory of its own that holds its config, with
`--out out` given relative to that directory, so that stdout names the
same paths in every run. An entry's digests cover each file under `out`, its stdout and its
exit status, keyed `<entry>/<artifact>`.

    python3 tools/golden.py                  # print {entry/artifact: sha256} as JSON
    python3 tools/golden.py --against REV    # compare with `git archive REV`'s tree
    python3 tools/golden.py --write FILE     # pin the digests, with the versions they need

`--against` runs the same table on the tree of REV, unpacked into a
temporary directory, prints each artifact whose digest differs or that
only one side wrote, and exits 1 on any difference (0 when none).
`--write` records the digests in FILE together with the numpy and Python
versions that made them: numpy promises no Generator stream across its
versions, so the pin holds under the recorded numpy only
(tests/data/golden.json is checked by tests/test_golden.py).
Only the standard library and noise_lab's own CLI are used.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CRIT13 = {"problem": {"kind": "noisy-quadratic", "dim": 16, "variance": 450.0,
                       "params": {"x0": [2.0] * 16}},
           "optimizer": {"algo": "sgd", "eta": 0.02, "batch_size": 8}}


def _finite_sum(n: int = 40, dim: int = 7) -> dict:
    """A fixed least-squares problem, its data a deterministic function of (i, j)."""
    data = [[((7 * i + 3 * j) % 11 - 5) / 4.0 for j in range(dim)] for i in range(n)]
    weights = [-1.0 + 2.0 * j / (dim - 1) for j in range(dim)]
    targets = [sum(a * w for a, w in zip(row, weights)) + 0.1 * ((i % 5) - 2)
               for i, row in enumerate(data)]
    return {"kind": "finite-sum-least-squares", "params": {"data": data, "targets": targets}}


_FS = {"problem": _finite_sum(), "optimizer": {"algo": "nshb", "eta": 0.02, "beta": 0.9}}
_FS_REF = [0.0] * 7
_BOWL = {"problem": {"kind": "nonconvex-sine-bowl", "dim": 5, "variance": 1.0},
         "optimizer": {"algo": "nshb", "eta": 0.05, "beta": 0.9}}
_BOWL_POINT = [0.1, -0.2, 0.3, 0.0, 0.5]
# a minibatch gradient that overflows at its first step: f_value is null
_OVERFLOW = {"problem": {"kind": "noisy-quadratic", "dim": 1, "variance": 1.0,
                         "params": {"curvature": 1e300, "x0": [1e10]}},
             "optimizer": {"algo": "sgd", "eta": 1e-300, "batch_size": 1}}
_CRIT13_SWEEP = {"batch_grid": [2 ** k for k in range(3, 14)], "epsilon": 1.0, "seeds": 3,
                 "max_steps": 30_000}

# name: (argv after `noise_lab.cli`, config or None); `--config` and `--out` are added
TABLE = {
    "crit13-sweep": (["sweep"], {**_CRIT13, "master_seed": 5, "sweep": _CRIT13_SWEEP}),
    "crit13-sweep-901": (["sweep"], {**_CRIT13, "master_seed": 901, "sweep": _CRIT13_SWEEP}),
    # CI's console-script sweep: an integral float seed count, no master_seed
    "dim2-sweep": (["sweep"], {
        "problem": {"kind": "noisy-quadratic", "dim": 2, "variance": 4.0},
        "optimizer": {"algo": "sgd", "eta": 0.1},
        "sweep": {"batch_grid": [4, 8], "epsilon": 0.4, "seeds": 2.0, "max_steps": 3000}}),
    "crit13-run": (["run"], {**_CRIT13, "master_seed": 5,
                             "run": {"max_steps": 2000, "record_x": True}}),
    "crit13-run-no-x": (["run"], {**_CRIT13, "master_seed": 6, "run": {
        "max_steps": 2000, "epsilon": 1.0, "record_x": False, "reference_point": [0.5] * 16}}),
    "finite-sum-sweep": (["sweep"], {**_FS, "master_seed": 9, "sweep": {
        "batch_grid": [1, 4, 16], "epsilon": 0.5, "seeds": 2, "max_steps": 2000,
        "stop_kind": "inner-product", "reference_point": _FS_REF}}),
    "finite-sum-run": (["run"], {**_FS, "master_seed": 8, "run": {
        "max_steps": 600, "epsilon": 0.3, "reference_point": _FS_REF}}),
    "finite-sum-noise": (["noise"], {**_FS, "master_seed": 8, "noise": {"steps": 300}}),
    "finite-sum-smooth": (["smooth"], {**_FS, "master_seed": 11, "smooth": {
        "delta": 0.2, "samples": 2000, "lipschitz": 10.0, "points": [_FS_REF, [0.5] * 7]}}),
    "finite-sum-sharpness": (["sharpness"], {**_FS, "master_seed": 12, "sharpness": {
        "rho": 0.5, "iters": 64, "method": "random-search", "point": [0.2] * 7}}),
    "sine-bowl-run": (["run"], {**_BOWL, "master_seed": 7, "run": {
        "max_steps": 1500, "reference_point": _BOWL_POINT}}),
    "sine-bowl-smooth": (["smooth"], {**_BOWL, "master_seed": 11, "smooth": {
        "delta": 0.3, "samples": 4000, "box_radius": 2.0, "points": [_BOWL_POINT]}}),
    "sine-bowl-sharpness": (["sharpness"], {**_BOWL, "master_seed": 12, "sharpness": {
        "rho": 0.5, "p": 2, "iters": 40, "point": _BOWL_POINT}}),
    "overflow-run": (["run"], {**_OVERFLOW, "master_seed": 1, "run": {"max_steps": 5}}),
    # CI's overflow sweep: both rows, one stack, diverge at their first step
    "overflow-sweep": (["sweep"], {**_OVERFLOW, "master_seed": 1, "sweep": {
        "batch_grid": [1, 2], "epsilon": 1.0, "seeds": 1, "max_steps": 5}}),
    "verify-default": (["verify"], None),
    "verify-1021": (["verify"], {"master_seed": 1021}),
    "table1": (["table1"], None),
}


def _env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    env.pop("NOISE_LAB_SEED", None)     # the configs' seeds, and verify's default, hold
    return env


def run_entry(src: Path, name: str, workdir: Path) -> None:
    """Run one entry of TABLE against the package under src, in workdir/name;
    its stdout and exit status are kept next to its `out` directory."""
    argv, config = TABLE[name]
    here = workdir / name
    here.mkdir(parents=True)
    args = [sys.executable, "-m", "noise_lab.cli", *argv, "--out", "out"]
    if config is not None:
        (here / "config.json").write_text(json.dumps(config), encoding="utf-8")
        args += ["--config", "config.json"]
    done = subprocess.run(args, cwd=here, env=_env(src), capture_output=True, timeout=600)
    (here / "stdout").write_bytes(done.stdout)
    (here / "exit_status").write_text(str(done.returncode), encoding="utf-8")


def digests(workdir: Path) -> dict:
    """{entry/artifact: sha256} of every entry run in workdir: its out files,
    stdout and exit status."""
    found = {}
    for here in sorted(p for p in workdir.iterdir() if p.is_dir()):
        files = [here / "stdout", here / "exit_status"]
        if (here / "out").is_dir():
            files += sorted(p for p in (here / "out").rglob("*") if p.is_file())
        for path in files:
            key = f"{here.name}/{path.relative_to(here).as_posix()}"
            found[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def run_table(src: Path, workdir: Path, names=tuple(TABLE)) -> dict:
    """Run the named entries against the package under src, all at once (each
    has its own directory); their digests."""
    with ThreadPoolExecutor(len(names)) as pool:
        list(pool.map(lambda name: run_entry(src, name, workdir), names))
    return digests(workdir)


def numpy_version() -> str:
    """The version of the installed numpy, which the table's child processes import."""
    return importlib.metadata.version("numpy")


def differences(ours: dict, theirs: dict) -> list:
    """Every key whose digest differs or that only one side has, sorted."""
    return sorted(k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k))


def unpack(rev: str, dest: Path) -> Path:
    """The tree of git revision rev, unpacked into dest (stdlib tarfile)."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        # the "data" filter where this Python has it: no links or paths out of dest
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare every artifact with those of git revision REV")
    parser.add_argument("--write", metavar="FILE",
                        help="write the digests and the numpy and Python versions to FILE")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        tmp = Path(tmp)
        ours = run_table(ROOT / "src", tmp / "ours")
        if args.write is not None:
            pinned = {"numpy": numpy_version(), "python": platform.python_version(),
                      "digests": ours}
            Path(args.write).write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
            return 0
        if args.against is None:
            print(json.dumps(ours, indent=1, sort_keys=True))
            return 0
        theirs = run_table(unpack(args.against, tmp / "rev") / "src", tmp / "theirs")
    moved = differences(ours, theirs)
    for key in moved:
        print(f"differs: {key}")
    print(f"{len(ours)} artifacts here, {len(theirs)} at {args.against}: "
          f"{len(moved)} differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
