"""JSON and CSV encodings: rationals as "p/q" strings throughout, and
floats that are not finite as the strings "inf", "-inf" and "nan"."""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Sequence

from .collapse import FluxProfile
from .lattice import PointConfig, TorusConfig
from .measures import TorusMeasure, json_rationals


def part_to_json(part) -> dict:
    if isinstance(part, TorusConfig):
        return {"type": "config", "data": list(part.occupied)}
    if isinstance(part, PointConfig):
        return {"type": "points", "data": [str(p) for p in part.points]}
    if isinstance(part, TorusMeasure):
        return {"type": "measure", "data": part.to_json_dict()}
    raise TypeError(f"unsupported part {type(part)!r}")


def part_from_json(data: dict):
    if not isinstance(data, dict) or "type" not in data or "data" not in data:
        raise ValueError("each part must be a JSON object with 'type' and 'data'")
    kind, body = data["type"], data["data"]
    if kind == "config":
        if not isinstance(body, list) or not all(type(v) is int for v in body):
            raise ValueError("a configuration's 'data' must be a list of integers")
        return TorusConfig(body)
    if kind == "points":
        return PointConfig(json_rationals(body, "a point set's 'data'"))
    if kind == "measure":
        return TorusMeasure.from_json_dict(body)
    raise ValueError(f"unknown part type {kind!r}")


def flux_to_json(profile: FluxProfile) -> dict:
    return {
        "positions": [str(p) for p in profile.positions],
        "values": [str(v) for v in profile.values],
        "slopes": [str(s) for s in profile.slopes],
        "full_torus": profile.full_torus,
        "intervals": [
            {
                "lo": str(iv.lo),
                "hi": str(iv.hi),
                "left_closed": iv.left_closed,
                "mass_delta": str(iv.mass_delta),
            }
            for iv in profile.intervals
        ],
    }


def to_json(obj, **kwargs) -> str:
    """obj as standard JSON text, through json.dumps(**kwargs): a float that
    is not finite is written as its str, as is any value JSON has no type for."""
    return json.dumps(_finite(obj), allow_nan=False, default=str, **kwargs)


def _finite(obj):
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return str(obj) if isinstance(obj, float) and not math.isfinite(obj) else obj


def rows_to_csv(rows: Sequence[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    w.writeheader()
    for r in rows:
        w.writerow(r)
    return buf.getvalue()
