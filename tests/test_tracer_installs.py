"""The benchmark's tracer wraps named functions of `noise_lab` by looking each
one up in its owner's namespace: every name it wraps must stay bound there,
and leaving its block must put every original back."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_and_restored():
    tracer = load_tracer()
    table = tracer._patch_table(tracer.Tracer())
    unbound = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in table
               if attr not in vars(owner)]
    assert not unbound, f"names the tracer wraps are not bound: {unbound}"
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in table]
    with tracer.installed(tracer.Tracer()):
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, attr
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, attr
