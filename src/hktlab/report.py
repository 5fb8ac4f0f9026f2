"""Check records and suite reports with deterministic serialization.

A record either bounds a residual from above (kind "residual", pass iff
value <= threshold) or bounds a margin from below (kind "margin", pass iff
value >= threshold), and passes only if its value is finite.  The record
constructors take a value or an iterable of per-sample values and reduce
it themselves: residuals by max_keep_nan, margins by min_keep_nan, so one
nan sample makes the record nan, hence FAIL.  sweep_records builds the
records of one sweep, one per Spec, from its per-sample rows.

The JSON rendering is strict and byte-stable for a fixed config: keys are
sorted, floats go through repr, a non-finite float is written as the
string "nan", "inf" or "-inf", and the wall time is kept out of it,
appearing only in the text rendering.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

SCHEMA_VERSION = "1"


@dataclass
class CheckRecord:
    identity: str
    detail: str
    points: int
    value: float
    threshold: float
    kind: str = "residual"

    @property
    def passed(self) -> bool:
        if not math.isfinite(self.value):
            return False
        if self.kind == "margin":
            return bool(self.value >= self.threshold)
        return bool(self.value <= self.threshold)

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "detail": self.detail,
            "points": int(self.points),
            "value": float(self.value),
            "threshold": float(self.threshold),
            "kind": self.kind,
            "passed": self.passed,
        }


def max_keep_nan(values) -> float:
    """Largest of values and 0.0; nan if one of them is nan (the builtin
    max keeps or drops a nan depending on where it sits)."""
    return _keep_nan(max, 0.0, values)


def min_keep_nan(values) -> float:
    """Smallest of values, inf if there are none; nan if one of them is
    nan."""
    return _keep_nan(min, math.inf, values)


def _keep_nan(pick, start, values) -> float:
    # every value is drawn, so a nan sample leaves a shared random stream
    # where the following records expect it
    vals = [start, *map(float, values)]
    return math.nan if any(map(math.isnan, vals)) else pick(vals)


def _reduce(values, reducer) -> float:
    if isinstance(values, numbers.Real):
        return float(values)
    return reducer(values)


def residual_record(identity: str, detail: str, points: int, values,
                    tol: float) -> CheckRecord:
    """values: the residual, or an iterable of per-sample residuals."""
    return CheckRecord(identity, detail, points,
                       _reduce(values, max_keep_nan), float(tol))


def margin_record(identity: str, detail: str, points: int, values,
                  floor: float) -> CheckRecord:
    """values: the margin, or an iterable of per-sample margins."""
    return CheckRecord(identity, detail, points,
                       _reduce(values, min_keep_nan), float(floor),
                       kind="margin")


class Spec(NamedTuple):
    """One record of a sweep; kind "margin" bounds a minimum from below."""
    identity: str
    detail: str
    bound: float
    kind: str = "residual"


def sweep_records(specs, rows) -> list[CheckRecord]:
    """One record per spec from a sweep's rows, one row per evaluated sample.

    A row holds one cell per spec (a sweep of one spec gives the cells
    themselves).  A tuple cell, one sample's several values, is reduced in
    place by max_keep_nan, so its nan fails only its own record.  Each
    record reduces its column by its kind and counts one point per row.
    """
    rows = [row if len(specs) > 1 else (row,) for row in rows]
    out = []
    for j, spec in enumerate(specs):
        col = [max_keep_nan(row[j]) if isinstance(row[j], tuple) else row[j]
               for row in rows]
        make = margin_record if spec.kind == "margin" else residual_record
        out.append(make(spec.identity, spec.detail, len(rows), col,
                        spec.bound))
    return out


def _strict(obj):
    """obj with every non-finite float replaced by its repr, which strict
    JSON can hold."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strict(v) for v in obj]
    return obj


@dataclass
class VerificationReport:
    suite: str
    config: dict
    records: list[CheckRecord] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def extend(self, records, prefix: str = "") -> None:
        for r in records:
            if prefix:
                r = CheckRecord(prefix + r.identity, r.detail, r.points,
                                r.value, r.threshold, r.kind)
            self.records.append(r)

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "config": self.config,
            "passed": self.passed,
            "records": [r.as_dict() for r in self.records],
        }
        return json.dumps(_strict(payload), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"

    def to_text(self) -> str:
        width = max([len(r.identity) for r in self.records] + [8])
        lines = [f"suite: {self.suite}"]
        lines.append("config: " + json.dumps(self.config, sort_keys=True))
        for r in self.records:
            rel = "<=" if r.kind == "residual" else ">="
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"  {status}  {r.identity:<{width}}  "
                         f"{r.value:12.4e} {rel} {r.threshold:8.1e}  "
                         f"[{r.points} pts]  {r.detail}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({len(self.records)} checks, "
                     f"{self.wall_time:.2f}s)")
        return "\n".join(lines) + "\n"
