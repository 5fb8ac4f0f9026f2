import json
import math

import numpy as np
import pytest

from hktlab.report import (SCHEMA_VERSION, CheckRecord, Spec,
                           VerificationReport, record, sweep_records)

RES = Spec("a", "d", 1e-9)
MARGIN = Spec("a", "d", 1e-10, "margin")


def test_residual_pass_semantics():
    assert record(RES, 1, 1e-12).passed
    assert record(RES, 1, 1e-9).passed
    assert not record(RES, 1, 2e-9).passed


def test_margin_pass_semantics():
    assert record(MARGIN, 1, 0.5).passed
    assert record(MARGIN, 1, 1e-10).passed
    assert not record(MARGIN, 1, 0.0).passed
    assert not record(MARGIN, 1, -0.5).passed


def test_sweep_points_count_the_rows():
    specs = [Spec("a", "first", 1e-9), Spec("b", "second", 1e-9)]
    a, b = sweep_records(specs, [np.full(7, 1e-12), np.full((7, 3), 2e-12)])
    assert a.points == b.points == 7
    assert (a.value, b.value) == (1e-12, 2e-12)
    assert (a.identity, a.detail, a.threshold, a.kind) == (
        "a", "first", 1e-9, "residual")


def test_sweep_of_one_spec_takes_the_cells_as_rows():
    rec, = sweep_records([Spec("a", "d", 1.0)], [[0.1 * k for k in range(5)]])
    assert rec.points == 5 and rec.value == 0.4


def test_sweep_trailing_axis_keeps_nan_in_its_own_record():
    specs = [Spec("a", "d", 1.0), Spec("b", "d", 1.0)]
    columns = [[(0.1, 0.2), (math.nan, 0.5), (0.9, 0.0)], [0.3, 0.4, 0.2]]
    a, b = sweep_records(specs, columns)
    assert math.isnan(a.value) and not a.passed and a.points == 3
    assert b.value == 0.4 and b.passed
    # the nan sits on a trailing axis: wherever it is, the record is nan
    a, = sweep_records([specs[0]], [[(0.1, 0.2), (0.5, math.nan), (0.3, 0.)]])
    assert math.isnan(a.value) and not a.passed


def test_sweep_margin_spec_takes_the_min():
    rec, = sweep_records([Spec("m", "d", 0.1, "margin")], [[0.5, 0.2, 0.7]])
    assert (rec.kind, rec.value, rec.points) == ("margin", 0.2, 3)
    assert rec.passed
    empty, = sweep_records([Spec("m", "d", 0.1, "margin")], [[]])
    assert (empty.value, empty.points, empty.passed) == (math.inf, 0, False)


def sample_report():
    rep = VerificationReport("demo", {"seed": 1}, wall_time=1.5)
    rep.extend([record(Spec("one", "first", 1e-9), 3, 1e-13),
                record(Spec("two", "second", 1e-10, "margin"), 5, 0.25)])
    return rep


def test_report_passed_aggregates():
    rep = sample_report()
    assert rep.passed
    rep.records.append(record(Spec("bad", "broken", 1e-9), 1, 1.0))
    assert not rep.passed


def test_extend_prefix_does_not_mutate_source():
    rec = record(Spec("x", "d", 1.0), 1, 0.0)
    rep = VerificationReport("demo", {})
    rep.extend([rec], prefix="pre:")
    assert rep.records[0].identity == "pre:x"
    assert rec.identity == "x"


def test_json_payload_shape():
    rep = sample_report()
    payload = json.loads(rep.to_json())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["suite"] == "demo"
    assert payload["passed"] is True
    assert len(payload["records"]) == 2
    rec = payload["records"][0]
    assert set(rec) == {"identity", "detail", "points", "value", "threshold",
                        "kind", "passed"}
    # wall time stays out of the stable rendering
    assert "wall" not in rep.to_json()
    assert "1.5" not in rep.to_json()


def test_json_is_deterministic_despite_wall_time():
    a = sample_report()
    b = sample_report()
    b.wall_time = 99.0
    assert a.to_json() == b.to_json()
    assert a.to_text() != b.to_text()


def test_text_rendering():
    rep = sample_report()
    text = rep.to_text()
    assert "PASS  one" in text
    assert "<= " in text and ">= " in text
    assert "result: PASS (2 checks, 1.50s)" in text
    rep.records.append(record(Spec("neg", "below floor", 1e-10, "margin"), 2,
                              -1.0))
    text = rep.to_text()
    assert "FAIL  neg" in text
    assert "result: FAIL" in text


def test_record_kind_roundtrip():
    rec = CheckRecord("id", "detail", 7, 0.1, 0.2, kind="margin")
    d = rec.as_dict()
    assert d["kind"] == "margin"
    assert d["points"] == 7
    assert d["passed"] is False


def test_non_finite_values_fail():
    assert not record(MARGIN, 1, math.inf).passed
    assert not record(MARGIN, 1, math.nan).passed
    assert not record(RES, 1, math.nan).passed
    assert not record(RES, 1, -math.inf).passed


def test_negative_infinite_residual_column_fails():
    # a residual is the max of its values, not clamped at 0.0
    rec, = sweep_records([RES], [[-math.inf, -math.inf]])
    assert rec.value == -math.inf and not rec.passed
    assert record(RES, 2, [-1.0, -2.0]).value == -1.0


def test_records_reduce_per_sample_values():
    assert record(RES, 3, [1e-12, 3e-12, 2e-12]).value == 3e-12
    assert record(Spec("a", "d", 0.1, "margin"), 3,
                  np.array([0.5, 0.25, 0.75])).value == 0.25
    assert record(RES, 0, []).value == 0.0
    empty = record(Spec("a", "d", 1.0, "margin"), 0, [])
    assert empty.value == math.inf and not empty.passed
    # a zero of either sign reads 0.0, whichever np.max keeps
    assert math.copysign(1.0, record(RES, 2, [-0.0, 0.0]).value) == 1.0
    assert math.copysign(1.0, record(RES, 2, [0.0, -0.0]).value) == 1.0


@pytest.mark.parametrize("where", [0, 1, 2])
def test_one_nan_sample_makes_the_record_nan(where):
    vals = [1e-12, 2e-12, 3e-12]
    vals[where] = math.nan
    assert math.isnan(record(RES, 3, vals).value)
    assert math.isnan(record(Spec("a", "d", 0.0, "margin"), 3, vals).value)
    # and on a trailing axis of one sample
    rows = np.full((3, 3), 1e-12)
    rows[1, where] = math.nan
    assert math.isnan(sweep_records([RES], [rows])[0].value)


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_json_is_strict_for_non_finite_values():
    rep = sample_report()
    rep.extend([record(Spec("nan-res", "d", 1e-9), 1, math.nan),
                record(Spec("inf-margin", "d", 1e-10, "margin"), 1, math.inf),
                record(Spec("ninf-margin", "d", 1e-10, "margin"), 1,
                       -math.inf)])
    payload = json.loads(rep.to_json(), parse_constant=_reject)
    values = [r["value"] for r in payload["records"]]
    assert values == [1e-13, 0.25, "nan", "inf", "-inf"]
    assert payload["passed"] is False
    assert [r["passed"] for r in payload["records"]] == [True, True, False,
                                                         False, False]


def test_finite_json_matches_plain_dumps():
    rep = sample_report()
    payload = json.loads(rep.to_json())
    assert rep.to_json() == json.dumps(payload, sort_keys=True,
                                       indent=2) + "\n"
