import json
import math

import pytest

from hktlab.report import (SCHEMA_VERSION, CheckRecord, Spec,
                           VerificationReport, margin_record, max_keep_nan,
                           min_keep_nan, residual_record, sweep_records)


def test_residual_pass_semantics():
    assert residual_record("a", "d", 1, 1e-12, 1e-9).passed
    assert residual_record("a", "d", 1, 1e-9, 1e-9).passed
    assert not residual_record("a", "d", 1, 2e-9, 1e-9).passed


def test_margin_pass_semantics():
    assert margin_record("a", "d", 1, 0.5, 1e-10).passed
    assert margin_record("a", "d", 1, 1e-10, 1e-10).passed
    assert not margin_record("a", "d", 1, 0.0, 1e-10).passed
    assert not margin_record("a", "d", 1, -0.5, 1e-10).passed


def test_sweep_points_count_the_rows():
    specs = [Spec("a", "first", 1e-9), Spec("b", "second", 1e-9)]
    a, b = sweep_records(specs, iter([(1e-12, 2e-12)] * 7))
    assert a.points == b.points == 7
    assert (a.value, b.value) == (1e-12, 2e-12)
    assert (a.identity, a.detail, a.threshold, a.kind) == (
        "a", "first", 1e-9, "residual")


def test_sweep_of_one_spec_takes_the_cells_as_rows():
    rec, = sweep_records([Spec("a", "d", 1.0)], (0.1 * k for k in range(5)))
    assert rec.points == 5 and rec.value == 0.4


def test_sweep_tuple_cell_keeps_nan_in_its_own_record():
    specs = [Spec("a", "d", 1.0), Spec("b", "d", 1.0)]
    rows = [((0.1, 0.2), 0.3), ((math.nan, 0.5), 0.4), ((0.9,), 0.2)]
    a, b = sweep_records(specs, rows)
    assert math.isnan(a.value) and not a.passed and a.points == 3
    assert b.value == 0.4 and b.passed
    # the nan sits inside a cell: wherever it is, the record is nan
    a, = sweep_records([specs[0]], [(0.1, 0.2), (0.5, math.nan), (0.3,)])
    assert math.isnan(a.value) and not a.passed


def test_sweep_margin_spec_takes_the_min():
    rec, = sweep_records([Spec("m", "d", 0.1, "margin")], [0.5, 0.2, 0.7])
    assert (rec.kind, rec.value, rec.points) == ("margin", 0.2, 3)
    assert rec.passed
    empty, = sweep_records([Spec("m", "d", 0.1, "margin")], [])
    assert (empty.value, empty.points, empty.passed) == (math.inf, 0, False)


def sample_report():
    rep = VerificationReport("demo", {"seed": 1}, wall_time=1.5)
    rep.extend([residual_record("one", "first", 3, 1e-13, 1e-9),
                margin_record("two", "second", 5, 0.25, 1e-10)])
    return rep


def test_report_passed_aggregates():
    rep = sample_report()
    assert rep.passed
    rep.records.append(residual_record("bad", "broken", 1, 1.0, 1e-9))
    assert not rep.passed


def test_extend_prefix_does_not_mutate_source():
    rec = residual_record("x", "d", 1, 0.0, 1.0)
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
    rep.records.append(margin_record("neg", "below floor", 2, -1.0, 1e-10))
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
    assert not margin_record("a", "d", 1, math.inf, 1e-10).passed
    assert not margin_record("a", "d", 1, math.nan, 1e-10).passed
    assert not residual_record("a", "d", 1, math.nan, 1e-9).passed
    assert not residual_record("a", "d", 1, -math.inf, 1e-9).passed


def test_records_reduce_per_sample_values():
    assert residual_record("a", "d", 3, [1e-12, 3e-12, 2e-12], 1e-9).value \
        == 3e-12
    assert margin_record("a", "d", 3, iter([0.5, 0.25, 0.75]), 0.1).value \
        == 0.25
    assert residual_record("a", "d", 0, [], 1e-9).value == 0.0
    empty = margin_record("a", "d", 0, [], 1.0)
    assert empty.value == math.inf and not empty.passed


@pytest.mark.parametrize("where", [0, 1, 2])
def test_one_nan_sample_makes_the_record_nan(where):
    vals = [1e-12, 2e-12, 3e-12]
    vals[where] = math.nan
    assert math.isnan(residual_record("a", "d", 3, vals, 1e-9).value)
    assert math.isnan(margin_record("a", "d", 3, vals, 0.0).value)


def test_reducers_draw_every_value():
    drawn = []

    def values():
        for x in (1.0, math.nan, 3.0):
            drawn.append(x)
            yield x

    assert math.isnan(max_keep_nan(values()))
    assert len(drawn) == 3
    assert math.isnan(min_keep_nan(values()))
    assert len(drawn) == 6


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_json_is_strict_for_non_finite_values():
    rep = sample_report()
    rep.extend([residual_record("nan-res", "d", 1, math.nan, 1e-9),
                margin_record("inf-margin", "d", 1, math.inf, 1e-10),
                margin_record("ninf-margin", "d", 1, -math.inf, 1e-10)])
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
