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
import os
from pathlib import Path

import jsonschema

from .optimizers import OptimizerConfig
from .problems import KINDS, Objective, make_objective

SEED_ENV_VAR = "NOISE_LAB_SEED"

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
                "algo": {"enum": ["sgd", "nshb", "shb"]},
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
                "stop_kind": {"enum": ["cumulative-grad-norm", "inner-product"]},
                "use_minibatch_norm": {"type": "boolean"},
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
                "dist": {"enum": ["unit-sphere-uniform", "gaussian-scaled", "ball-uniform"]},
                "samples": {"type": "integer", "minimum": 1},
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
                "method": {"enum": ["random-search", "sign-ascent"]},
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

_validator = jsonschema.Draft202012Validator(SCHEMA)


class ConfigError(ValueError):
    def __init__(self, message: str, json_path: str = "$"):
        super().__init__(f"{json_path}: {message}")
        self.json_path = json_path


def _normalized(schema: dict, value, path: str = "$"):
    """value with the floats at schema's "integer" nodes as ints (JSON Schema
    counts 2.0 as an integer); ConfigError naming the first NaN or infinity,
    which Python's json reads (NaN, Infinity, 1e400) and JSON Schema passes."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError("not a finite number", path)
        return int(value) if schema.get("type") == "integer" else value
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return {k: _normalized(props.get(k, {}), v, f"{path}.{k}") for k, v in value.items()}
    if isinstance(value, list):
        return [_normalized(schema.get("items", {}), v, f"{path}[{i}]")
                for i, v in enumerate(value)]
    return value


def validate_config(cfg: dict) -> dict:
    """Schema-validate a raw config dict, returned _normalized; raises
    ConfigError naming the failing JSON path."""
    errors = sorted(_validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        raise ConfigError(err.message, err.json_path)
    return _normalized(SCHEMA, cfg)


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


def build_objective(cfg: dict) -> Objective:
    block = cfg.get("problem")
    if block is None:
        raise ConfigError("missing required block", "$.problem")
    try:
        return make_objective(
            kind=block["kind"],
            dim=block.get("dim"),
            params=block.get("params"),
            variance=block.get("variance", 0.0),
        )
    except ValueError as exc:
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
