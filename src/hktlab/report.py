"""Check records and suite reports with deterministic serialization.

A record either bounds a residual from above (kind "residual", pass iff
value <= threshold) or bounds a margin from below (kind "margin", pass iff
value >= threshold).  The JSON rendering is byte-stable for a fixed config:
keys are sorted, floats go through repr, and the wall time is kept out of
it, appearing only in the text rendering.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
    """Largest of values, 0.0 if there are none; nan as soon as one is nan
    (the builtin max keeps or drops a nan depending on where it sits)."""
    worst = 0.0
    for x in values:
        if math.isnan(x):
            return math.nan
        if x > worst:
            worst = x
    return worst


def residual_record(identity: str, detail: str, points: int, value: float,
                    tol: float) -> CheckRecord:
    return CheckRecord(identity, detail, points, float(value), float(tol))


def margin_record(identity: str, detail: str, points: int, value: float,
                  floor: float) -> CheckRecord:
    return CheckRecord(identity, detail, points, float(value), float(floor),
                       kind="margin")


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
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

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
