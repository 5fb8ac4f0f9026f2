"""Check records and suite reports with deterministic serialization.

A record either bounds a residual from above (kind "residual", pass iff
value <= threshold) or bounds a margin from below (kind "margin", pass iff
value >= threshold), and passes only if its value is finite.  A record
reduces its values by one rule: the values are an array of any shape, a
residual is their max (0.0 if there are none), a margin their min (inf if
there are none), and one nan anywhere makes the record nan, hence FAIL.
A sweep's values come as columns: column j is an array of spec j's values
with one row per evaluated sample, trailing axes holding one sample's
several values, and sweep_records makes each record count its rows.

The JSON rendering is strict and byte-stable for a fixed config: keys are
sorted, floats go through repr, a non-finite float is written as the
string "nan", "inf" or "-inf", and the wall time is kept out of it,
appearing only in the text rendering.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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
        return {**dataclasses.asdict(self), "passed": self.passed}


class Spec(NamedTuple):
    """One record of a sweep; kind "margin" bounds a minimum from below."""
    identity: str
    detail: str
    bound: float
    kind: str = "residual"


def record(spec: Spec, points: int, values) -> CheckRecord:
    """The record of spec over values, an array of any shape (a bare number
    is a column of one value): a residual is their max, 0.0 if there are
    none, a margin their min, inf if there are none, and one nan anywhere
    makes the record nan."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        value = math.inf if spec.kind == "margin" else 0.0
    else:
        # + 0.0 turns -0.0 into 0.0: which of two equal zeros np.max or
        # np.min keeps depends on its kernel, and the JSON prints the sign
        value = float(np.min(a) if spec.kind == "margin" else np.max(a)) + 0.0
    return CheckRecord(spec.identity, spec.detail, int(points), value,
                       float(spec.bound), spec.kind)


def sweep_records(specs, columns) -> list[CheckRecord]:
    """One record per spec of a sweep: column j holds spec j's values, one
    row per evaluated sample (trailing axes hold one sample's several
    values), and the record counts its column's rows as its points."""
    return [record(spec, len(col), col)
            for spec, col in zip(specs, map(np.asarray, columns), strict=True)]


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
        self.records += [dataclasses.replace(r, identity=prefix + r.identity)
                         for r in records]

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
