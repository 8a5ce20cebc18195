"""Experiment configuration: JSON schema, validation, and builders.

A config file is a single JSON object; unknown keys are rejected at
every level. The problem block {"kind", "dim", "params", "variance"}
and the optimizer block {"algo", "eta", "beta", "gamma", "beta_bar",
"batch_size"} are shared; each subcommand reads its own block. The
NOISE_LAB_SEED environment variable overrides master_seed.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from pathlib import Path

from .optimizers import ALGOS, OptimizerConfig
from .problems import KINDS, Objective, make_objective
from .sweep import STOP_KINDS

SEED_ENV_VAR = "NOISE_LAB_SEED"

# smoothing's vocabularies, here so that a config loads without importing smoothing
DISTRIBUTIONS = ("unit-sphere-uniform", "gaussian-scaled", "ball-uniform")
SHARPNESS_METHODS = ("random-search", "sign-ascent")

# a point in the problem's space: the CLI checks its length against the problem's dim
POINT = {"type": "array", "items": {"type": "number"}, "minItems": 1}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "master_seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "problem": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(KINDS)},
                "dim": {"type": "integer", "minimum": 1},
                "params": {"type": "object"},
                "variance": {"type": "number", "minimum": 0},
            },
        },
        "optimizer": {
            "type": "object",
            "additionalProperties": False,
            "required": ["algo"],
            "properties": {
                "algo": {"enum": list(ALGOS)},
                "eta": {"type": "number", "exclusiveMinimum": 0},
                "beta": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "gamma": {"type": "number", "exclusiveMinimum": 0},
                "beta_bar": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "batch_size": {"type": "integer", "minimum": 1},
            },
        },
        "run": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_steps": {"type": "integer", "minimum": 1},
                "x0": POINT,
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "record_x": {"type": "boolean"},
                "reference_point": POINT,
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "batch_grid": {"type": "array", "minItems": 1,
                               "items": {"type": "integer", "minimum": 1}},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "seeds": {"type": "integer", "minimum": 1},
                "max_steps": {"type": "integer", "minimum": 1},
                "stop_kind": {"enum": list(STOP_KINDS)},
                "x0": POINT,
                "reference_point": POINT,
            },
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "steps": {"type": "integer", "minimum": 2},
                "burn_in": {"type": "integer", "minimum": 0},
                "x0": POINT,
            },
        },
        "smooth": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "delta": {"type": "number", "minimum": 0},
                "dist": {"enum": list(DISTRIBUTIONS)},
                # one sample leaves the standard error, and so the gap allowance, undefined
                "samples": {"type": "integer", "minimum": 2},
                "points": {"type": "array", "items": POINT, "minItems": 1},
                "lipschitz": {"type": "number", "exclusiveMinimum": 0},
                "box_radius": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "sharpness": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rho": {"type": "number", "minimum": 0},
                "p": {"enum": [2, "inf"]},
                "iters": {"type": "integer", "minimum": 1},
                "method": {"enum": list(SHARPNESS_METHODS)},
                "point": POINT,
                "c": POINT,
            },
        },
        "verify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ensemble_seeds": {"type": "integer", "minimum": 30},
                "ensemble_steps": {"type": "integer", "minimum": 10},
                "noise_steps": {"type": "integer", "minimum": 200},
                "variance_draws": {"type": "integer", "minimum": 1000},
                "identity_triples": {"type": "integer", "minimum": 100},
                "replicas": {"type": "integer", "minimum": 100},
            },
        },
    },
}


class ConfigError(ValueError):
    def __init__(self, message: str, json_path: str = "$"):
        super().__init__(f"{json_path}: {message}")
        self.json_path = json_path


# the Python type of each JSON Schema type name; _is keeps bools out of the numbers
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": numbers.Number, "integer": int}


def _is(kind: str, value) -> bool:
    if kind == "integer" and isinstance(value, float):
        return value.is_integer()            # JSON Schema counts 2.0 as an integer
    return isinstance(value, _TYPES[kind]) and (kind == "boolean") == isinstance(value, bool)


def _unexpected(value: dict, allowed, schema: dict):
    extras = sorted(k for k in value if k not in schema.get("properties", {}))
    listed, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
    return allowed is False and extras and (
        f"Additional properties are not allowed ({listed} {verb} unexpected)")


def _members(value, enum: list) -> list:
    """The members of enum that value equals, compared as JSON Schema does: numbers
    by value (2.0 is 2), bools apart from them."""
    return [x for x in enum if value == x and isinstance(value, bool) == isinstance(x, bool)]


# the JSON Schema 2020-12 keywords SCHEMA may use: the type each constrains (None: any) and
# value's error message under its argument, falsy if none (jsonschema 4.26's texts)
_KEYWORDS = {
    "type": (None, lambda v, t, _: not _is(t, v) and f"{v!r} is not of type {t!r}"),
    "enum": (None, lambda v, e, _: not _members(v, e) and f"{v!r} is not one of {e!r}"),
    "minimum": ("number", lambda v, m, _: v < m and f"{v!r} is less than the minimum of {m!r}"),
    "exclusiveMinimum": ("number", lambda v, m, _: v <= m and (
        f"{v!r} is less than or equal to the minimum of {m!r}")),
    "exclusiveMaximum": ("number", lambda v, m, _: v >= m and (
        f"{v!r} is greater than or equal to the maximum of {m!r}")),
    "minItems": ("array", lambda v, n, _: len(v) < n and (
        f"{v!r} {'should be non-empty' if n == 1 else 'is too short'}")),
    "additionalProperties": ("object", _unexpected),
    "required": ("object", lambda v, r, _: next(
        (f"{k!r} is a required property" for k in r if k not in v), None)),
    # _checked descends through "properties" and "items"; "$schema" only annotates
    **dict.fromkeys(("properties", "items", "$schema"), (None, lambda *_: None)),
}


def _checked(schema: dict, value, path: tuple, errors: list, nonfinite: list):
    """value with the floats at "integer" nodes as ints and an enum's value as the
    member it equals; the first keyword it fails ends its walk with (path, message) in
    errors, and a NaN or infinity goes to nonfinite."""
    for key, arg in schema.items():
        kind, check = _KEYWORDS[key]
        message = (kind is None or _is(kind, value)) and check(value, arg, schema)
        if message:
            errors.append((path, message))
            return value
    if "enum" in schema:
        return _members(value, schema["enum"])[0]
    if isinstance(value, float):
        if not math.isfinite(value):
            nonfinite.append(path)
        return int(value) if schema.get("type") == "integer" else value
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return {k: _checked(props.get(k, {}), v, (*path, k), errors, nonfinite)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_checked(schema.get("items", {}), v, (*path, i), errors, nonfinite)
                for i, v in enumerate(value)]
    return value


def validate_config(cfg: dict) -> dict:
    """cfg checked against SCHEMA, returned _checked; ConfigError names the smallest
    failing path (jsonschema's errors sorted by path) or, if none, the first NaN."""
    errors, nonfinite = [], []
    out = _checked(SCHEMA, cfg, (), errors, nonfinite)
    if errors or nonfinite:
        path, message = (min(errors, key=lambda e: e[0]) if errors
                         else (nonfinite[0], "not a finite number"))
        raise ConfigError(message, "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                                 for k in path))
    return out


def read_json(path, json_path: str):
    """The JSON document in a file; ConfigError naming json_path (the flag
    that gave the file) if it cannot be read, is not UTF-8, or is not JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {str(path)!r}: {exc.strerror}", json_path) from exc
    except ValueError as exc:
        raise ConfigError(f"not valid JSON: {exc}", json_path) from exc


def load_config(path) -> dict:
    raw = read_json(path, "--config")
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    return validate_config(raw)


def resolve_seed(cfg: dict) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
        if seed < 0:
            raise ConfigError(f"{SEED_ENV_VAR}={seed} is less than the minimum of 0",
                              "$.master_seed")
        return seed
    return int(cfg.get("master_seed", 0))


def _no_booleans(value, path: str):
    """ConfigError at a param's first boolean, which float() would read as 0 or 1."""
    if isinstance(value, bool):
        raise ConfigError(f"{value!r} is not of type 'number'", path)
    for i, item in enumerate(value if isinstance(value, list) else ()):
        _no_booleans(item, f"{path}[{i}]")


def build_objective(cfg: dict) -> Objective:
    block = cfg.get("problem")
    if block is None:
        raise ConfigError("missing required block", "$.problem")
    for key, value in (block.get("params") or {}).items():
        _no_booleans(value, f"$.problem.params.{key}")
    try:
        return make_objective(
            kind=block["kind"],
            dim=block.get("dim"),
            params=block.get("params"),
            variance=block.get("variance", 0.0),
        )
    except (TypeError, ValueError) as exc:      # params of the wrong type or shape
        raise ConfigError(str(exc), "$.problem") from exc


def build_optimizer(cfg: dict) -> OptimizerConfig:
    block = cfg.get("optimizer")
    if block is None:
        raise ConfigError("missing required block", "$.optimizer")
    try:
        return OptimizerConfig(
            algo=block["algo"],
            batch_size=block.get("batch_size", 1),
            eta=block.get("eta"),
            beta=block.get("beta", 0.0),
            gamma=block.get("gamma"),
            beta_bar=block.get("beta_bar", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "$.optimizer") from exc
