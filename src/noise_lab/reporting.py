"""Byte-deterministic CSV / JSON / JSONL emission.

CSV floats are rendered with 17 significant digits so values round-trip
exactly. JSON is written by json itself, with sorted keys and Python's
shortest-round-trip float repr; its `default` hook converts numpy values
and dataclasses. Identical inputs always produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    if v is None:
        return ""
    return str(v)


def json_number(v: float):
    """v, or None where JSON has no number for it (NaN or infinity)."""
    return v if math.isfinite(v) else None


def json_numbers(values: list) -> list:
    """values with each NaN or infinity as None; a finite sum means every
    value is finite, so a list without one costs one sum."""
    return values if math.isfinite(sum(values)) else [json_number(v) for v in values]


def _jsonable(obj):
    """json's `default` hook: what json cannot encode itself, or TypeError."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write(path, text: str) -> Path:
    """Write text to path, making its directory first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def emit_csv(records: Sequence[Mapping], path, columns: Sequence[str]) -> Path:
    """Header row plus one line per record, fields in declared order."""
    lines = [",".join(columns)]
    lines += [",".join(format_value(rec[c]) for c in columns) for rec in records]
    return _write(path, "\n".join(lines) + "\n")


def emit_jsonl(records: Iterable, path) -> Path:
    """One compact JSON object per line."""
    return _write(path, "".join(json.dumps(rec, sort_keys=True, separators=(",", ":"),
                                           default=_jsonable) + "\n" for rec in records))


def dump_json(obj, path) -> Path:
    return _write(path, json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\n")
