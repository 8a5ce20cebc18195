"""Artifacts do not depend on the BLAS kernel.

Each command runs through `python -m noise_lab.cli` in a child process,
with OPENBLAS_CORETYPE unset, Haswell or Prescott in the child's
environment only, and every artifact it writes must have the same sha256
under each kernel. numpy's PyPI wheels ship a DYNAMIC_ARCH OpenBLAS, which
picks its kernel from that variable; the test is skipped only where a probe
shows that the variable changes no BLAS result.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
KERNELS = (None, "Haswell", "Prescott")

# BLAS matrix-vector and dot products whose bits differ between kernels
PROBE = """import hashlib, numpy as np
gen = np.random.default_rng(1)
X, c = gen.standard_normal((200, 33)), gen.standard_normal(33)
print(hashlib.sha256((X @ c).tobytes() + np.array([x.dot(c) for x in X]).tobytes()).hexdigest())
"""

_gen = np.random.default_rng(24)
_DATA = _gen.standard_normal((40, 7))
_FINITE_SUM = {"kind": "finite-sum-least-squares",
               "params": {"data": _DATA.tolist(),
                          "targets": (_DATA @ np.linspace(-1.0, 1.0, 7) + 0.1).tolist()}}
_QUADRATIC = {"kind": "noisy-quadratic", "dim": 6, "variance": 2.0,
              "params": {"curvature": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]}}

# (subcommand, config): a reference_point is given wherever the finite sum would
# otherwise take its minimizer from LAPACK's lstsq, a documented exception
COMMANDS = {
    "criterion-13-run": ("run", {
        "master_seed": 5,
        "problem": {"kind": "noisy-quadratic", "dim": 16, "variance": 450.0,
                    "params": {"x0": [2.0] * 16}},
        "optimizer": {"algo": "sgd", "eta": 0.02, "batch_size": 8},
        "run": {"max_steps": 400, "record_x": True}}),
    # step counts under the cumulative-norm stop, one stack of 33 cells
    "criterion-13-sweep": ("sweep", {
        "master_seed": 5,
        "problem": {"kind": "noisy-quadratic", "dim": 16, "variance": 450.0,
                    "params": {"x0": [2.0] * 16}},
        "optimizer": {"algo": "sgd", "eta": 0.02, "batch_size": 8},
        "sweep": {"batch_grid": [2 ** k for k in range(3, 14)], "epsilon": 1.0, "seeds": 3,
                  "max_steps": 30000}}),
    "sine-bowl-run": ("run", {
        "master_seed": 7,
        "problem": {"kind": "nonconvex-sine-bowl", "dim": 5, "variance": 1.0},
        "optimizer": {"algo": "nshb", "eta": 0.05, "beta": 0.9},
        "run": {"max_steps": 400, "reference_point": [0.1, -0.2, 0.3, 0.0, 0.5]}}),
    "finite-sum-run": ("run", {
        "master_seed": 8, "problem": _FINITE_SUM,
        "optimizer": {"algo": "shb", "gamma": 0.02, "beta_bar": 0.5, "batch_size": 4},
        "run": {"max_steps": 400, "reference_point": [0.0] * 7}}),
    "finite-sum-sweep": ("sweep", {
        "master_seed": 9, "problem": _FINITE_SUM,
        "optimizer": {"algo": "sgd", "eta": 0.05},
        "sweep": {"batch_grid": [1, 4, 16], "epsilon": 1.0, "seeds": 2, "max_steps": 2000,
                  "reference_point": [0.0] * 7}}),
    "verify-floor": ("verify", {
        "master_seed": 3,
        "verify": {"variance_draws": 1000, "noise_steps": 200, "ensemble_seeds": 30,
                   "ensemble_steps": 10, "identity_triples": 100, "replicas": 100}}),
    "smooth": ("smooth", {
        "master_seed": 11, "problem": _QUADRATIC,
        "smooth": {"delta": 0.3, "samples": 2000, "box_radius": 2.0,
                   "points": [[1.0, -0.5, 0.25, 2.0, -1.5, 0.75], [0.1] * 6]}}),
    "sharpness": ("sharpness", {
        "master_seed": 12, "problem": _QUADRATIC,
        "sharpness": {"rho": 0.5, "p": 2, "iters": 30, "c": [1.0, 2.0, 0.5, 1.5, 1.0, 3.0],
                      "point": [1.0, -0.5, 0.25, 2.0, -1.5, 0.75]}}),
}


def _env(kernel):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    env.pop("NOISE_LAB_SEED", None)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    return env


def _run_all(argvs):
    """Run the children at once, one per kernel; their stdout, in order."""
    procs = [subprocess.Popen([sys.executable, *argv], env=_env(kernel), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for kernel, argv in argvs]
    return [(p.communicate(timeout=120), p.returncode) for p in procs]


@pytest.fixture(scope="module")
def kernels_differ():
    results = _run_all([(k, ["-c", PROBE]) for k in KERNELS])
    if any(code for _, code in results):
        pytest.skip("a kernel could not run here: " + "; ".join(err for (_, err), _ in results))
    if len({out for (out, _), _ in results}) == 1:
        pytest.skip("OPENBLAS_CORETYPE changes no BLAS result here (X @ c and x.dot(c) are "
                    "equal under Haswell and Prescott): numpy's BLAS is not a DYNAMIC_ARCH "
                    "OpenBLAS")


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", COMMANDS)
def test_artifacts_do_not_depend_on_the_blas_kernel(name, kernels_differ, tmp_path):
    command, config = COMMANDS[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outs = [tmp_path / (kernel or "default") for kernel in KERNELS]
    results = _run_all([(k, ["-m", "noise_lab.cli", command, "--config", str(cfg),
                             "--out", str(out)]) for k, out in zip(KERNELS, outs)])
    for ((_, err), code), kernel in zip(results, KERNELS):
        # verify at its floor budgets may fail an asserted check: exit 1, report written
        assert code in ((0, 1) if command == "verify" else (0,)), (kernel, err)
    digests = [_digests(out) for out in outs]
    assert digests[0], "no artifact written"
    for kernel, d in zip(KERNELS[1:], digests[1:]):
        moved = sorted(f for f in digests[0] if d.get(f) != digests[0][f])
        assert d.keys() == digests[0].keys() and not moved, f"{kernel}: {moved} differ"
