"""Config validation: noise_lab's own walk of SCHEMA, checked keyword by
keyword, for jsonschema's error precedence, and against jsonschema itself."""

import copy
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from noise_lab import config
from noise_lab.config import SCHEMA, ConfigError, validate_config

SRC = Path(__file__).resolve().parents[1] / "src"

# a valid config that sets every key of every block
FULL = {
    "master_seed": 3,
    "output_dir": "out",
    "problem": {"kind": "noisy-quadratic", "dim": 2, "variance": 1.0,
                "params": {"curvature": [1.0, 2.0], "x0": [1, 2.0]}},
    "optimizer": {"algo": "nshb", "eta": 0.1, "beta": 0.5, "gamma": 0.1, "beta_bar": 0.5,
                  "batch_size": 2},
    "run": {"max_steps": 10, "x0": [1.0, 2.0], "epsilon": 0.1, "record_x": True,
            "reference_point": [0.0, 0.0]},
    "sweep": {"batch_grid": [1, 2], "epsilon": 0.5, "seeds": 2, "max_steps": 100,
              "stop_kind": "inner-product", "x0": [1.0, 1.0],
              "reference_point": [0.0, 0.0]},
    "noise": {"steps": 10, "burn_in": 2, "x0": [1.0, 1.0]},
    "smooth": {"delta": 0.1, "dist": "ball-uniform", "samples": 10, "points": [[0.0, 1.0], [2, 3]],
               "lipschitz": 1.0, "box_radius": 1.0},
    "sharpness": {"rho": 0.5, "p": 2, "iters": 3, "method": "sign-ascent", "point": [0.0, 0.0],
                  "c": [1.0, 1.0]},
    "verify": {"ensemble_seeds": 30, "ensemble_steps": 10, "noise_steps": 200,
               "variance_draws": 1000, "identity_triples": 100, "replicas": 100},
}

# values a mutation writes: every JSON type, each schema minimum and its neighbours,
# integral floats, non-finite floats, enum members of the wrong block
VALUES = [None, True, False, 0, 1, -1, 2, 0.5, 2.0, -0.0, 1.0, 0.99, 3.5, 29, 30, 30.0, 99, 100,
          199, 200, 999, 1000, 10 ** 20, 1e300, float("inf"), float("-inf"), float("nan"),
          "x", "2", "inf", "sgd", "noisy-quadratic", [], [1], [1.0, "a"], [[]], [[1, 2]],
          [2, "inf"], {}, {"k": 1}, {"kind": "sgd"}]
# keys a mutation adds: every key of the schema, and unknown ones on either side of them
KEYS = sorted({key for block in SCHEMA["properties"].values()
               for key in block.get("properties", {})} | set(SCHEMA["properties"])
              | {"Zz", "a", "zz"})


def _paths(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _paths(child, (*path, key))


def _mutated(rng: random.Random) -> dict:
    """FULL with some blocks dropped, then one to five random edits: a value
    replaced, a key deleted or added, or a list item appended."""
    cfg = {k: copy.deepcopy(v) for k, v in FULL.items() if rng.random() > 0.3}
    for _ in range(rng.choice([1, 1, 2, 3, 5])):
        path = rng.choice(list(_paths(cfg)))
        value, r = copy.deepcopy(rng.choice(VALUES)), rng.random()
        if not path:
            cfg[rng.choice(KEYS)] = value
            continue
        parent = cfg
        for k in path[:-1]:
            parent = parent[k]
        key = path[-1]
        if r > 0.75 and isinstance(parent, dict):
            parent[rng.choice(KEYS)] = value
        elif r < 0.6:
            parent[key] = value
        elif isinstance(parent, dict):
            del parent[key]
        else:
            parent.append(value)
    return cfg


def _first_nonfinite(value, path="$"):
    if isinstance(value, float) and not math.isfinite(value):
        return path
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        found = _first_nonfinite(child, f"{path}[{key}]" if isinstance(key, int)
                                 else f"{path}.{key}")
        if found:
            return found
    return None


def _verdict(cfg):
    try:
        validate_config(cfg)
    except ConfigError as exc:
        return exc.json_path
    return None


def test_first_error_path_matches_jsonschema_on_mutated_configs():
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(SCHEMA)
    rng = random.Random(20240)
    invalid = 0
    for _ in range(2000):
        cfg = _mutated(rng)
        errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
        # a NaN or infinity is an error of its own, named when the schema passes
        expected = errors[0].json_path if errors else _first_nonfinite(cfg)
        assert _verdict(cfg) == expected, cfg
        invalid += expected is not None
    assert 1000 < invalid < 1900              # the corpus holds both verdicts


# (config, JSON path, message): one case per keyword SCHEMA uses, with the texts
# jsonschema 4.26 gave
MESSAGES = {
    "type": ({"problem": {"kind": "noisy-quadratic", "dim": "2"}}, "$.problem.dim",
             "'2' is not of type 'integer'"),
    "type-integer-fraction": ({"master_seed": 2.5}, "$.master_seed",
                              "2.5 is not of type 'integer'"),
    "type-bool-not-number": ({"smooth": {"delta": True}}, "$.smooth.delta",
                             "True is not of type 'number'"),
    "enum": ({"optimizer": {"algo": "adam"}}, "$.optimizer.algo",
             "'adam' is not one of ['sgd', 'nshb', 'shb']"),
    "enum-bool-not-int": ({"sharpness": {"p": True}}, "$.sharpness.p",
                          "True is not one of [2, 'inf']"),
    "minimum": ({"sweep": {"seeds": 0}}, "$.sweep.seeds", "0 is less than the minimum of 1"),
    "exclusiveMinimum": ({"sweep": {"epsilon": 0}}, "$.sweep.epsilon",
                         "0 is less than or equal to the minimum of 0"),
    "exclusiveMaximum": ({"optimizer": {"algo": "shb", "beta": 1.0}}, "$.optimizer.beta",
                         "1.0 is greater than or equal to the maximum of 1"),
    "minItems": ({"sweep": {"batch_grid": []}}, "$.sweep.batch_grid", "[] should be non-empty"),
    "required": ({"optimizer": {"eta": 0.1}}, "$.optimizer", "'algo' is a required property"),
    "additionalProperties": ({"noise": {"steps": 10, "stride": 2}}, "$.noise",
                             "Additional properties are not allowed ('stride' was unexpected)"),
    "additionalProperties-several": (
        {"zeta": 1, "alpha": 2}, "$",
        "Additional properties are not allowed ('alpha', 'zeta' were unexpected)"),
    "properties": ({"verify": {"replicas": 99}}, "$.verify.replicas",
                   "99 is less than the minimum of 100"),
    "items": ({"smooth": {"points": [[0.0], [1.0, "a"]]}}, "$.smooth.points[1][1]",
              "'a' is not of type 'number'"),
}


@pytest.mark.parametrize("case", sorted(MESSAGES))
def test_each_keyword_keeps_its_message(case):
    cfg, path, message = MESSAGES[case]
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert (exc.value.json_path, str(exc.value)) == (path, f"{path}: {message}")


# (config, the error reported): jsonschema's errors sorted by path, first
PRECEDENCE = {
    # the smallest path wins, whatever the order of the file
    "smaller-path-first": ({"sweep": {"seeds": 0}, "optimizer": {"algo": "x"}},
                           "$.optimizer.algo: 'x' is not one of ['sgd', 'nshb', 'shb']"),
    # indices compare as numbers: [2] before [10]
    "index-order": ({"sweep": {"batch_grid": [1, 2, "x", 4, 5, 6, 7, 8, 9, 10, 0]}},
                    "$.sweep.batch_grid[2]: 'x' is not of type 'integer'"),
    # a node's own error before its children's
    "node-before-children": ({"problem": {"dim": 0}},
                             "$.problem: 'kind' is a required property"),
    # among a node's own errors, SCHEMA's key order: type, additionalProperties, required
    "additional-before-required": ({"problem": {"dim": 2, "extra": 1}},
                                   "$.problem: Additional properties are not allowed "
                                   "('extra' was unexpected)"),
    "type-stops-the-node": ({"problem": ["kind"]},
                            "$.problem: ['kind'] is not of type 'object'"),
    # a NaN is named only when the schema passes everywhere
    "schema-error-before-nan": ({"problem": {"kind": "noisy-quadratic", "variance": math.nan},
                                 "sweep": {"seeds": 0}},
                                "$.sweep.seeds: 0 is less than the minimum of 1"),
    "first-nan-in-file-order": ({"sweep": {"epsilon": math.inf},
                                 "problem": {"kind": "noisy-quadratic", "variance": math.nan}},
                                "$.sweep.epsilon: not a finite number"),
    "nan-in-free-params": ({"problem": {"kind": "noisy-quadratic",
                                        "params": {"curvature": [1.0, -math.inf]}}},
                           "$.problem.params.curvature[1]: not a finite number"),
    "bounded-infinity-is-a-schema-error": ({"optimizer": {"algo": "shb", "beta": math.inf}},
                                           "$.optimizer.beta: inf is greater than or equal "
                                           "to the maximum of 1"),
}


@pytest.mark.parametrize("case", sorted(PRECEDENCE))
def test_error_precedence(case):
    cfg, message = PRECEDENCE[case]
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert str(exc.value) == message


def _keywords(schema: dict):
    yield from schema
    for child in schema.get("properties", {}).values():
        yield from _keywords(child)
    if "items" in schema:
        yield from _keywords(schema["items"])


def test_the_walk_implements_every_keyword_of_the_schema():
    implemented = set(config._KEYWORDS)
    assert set(_keywords(SCHEMA)) <= implemented
    assert implemented == {"$schema", "type", "enum", "minimum", "exclusiveMinimum",
                           "exclusiveMaximum", "minItems", "required", "additionalProperties",
                           "properties", "items"}


def test_enum_tells_bools_from_numbers():
    errors = []
    config._checked({"enum": [0, 1]}, True, ("flag",), errors, [])
    assert errors == [(("flag",), "True is not one of [0, 1]")]


def test_an_unknown_keyword_is_not_passed_silently():
    with pytest.raises(KeyError, match="maxItems"):
        config._checked({"type": "array", "maxItems": 1}, [1, 2], (), [], [])


def test_the_cli_imports_without_jsonschema():
    code = "import sys, noise_lab.cli; assert 'jsonschema' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
