"""Suite records count what they evaluate, and a nan sample fails them.

Each nan test wraps one helper that a suite imports.  The helper's call
evaluates all the samples of a sweep at once, and the wrapper puts a nan
into one middle sample of it (d-squared, nijenhuis, and the qpos and hopf
positivity-margin); the record must then FAIL with value nan, and its
neighbours still pass.
"""

import math

import numpy as np

from hktlab import suites
from hktlab.suites import (ScenarioConfig, bicomplex_records, hopf_records,
                           qpos_records, totspace_records)


def by_identity(records):
    return {r.identity: r for r in records}


def assert_nan_fail(record):
    assert math.isnan(record.value) and not record.passed, record.identity


def test_qpos_positivity_margin_nan_fails(monkeypatch):
    # one qpos_margin call per record and size: the stacked 50 draws of
    # positivity-margin(m=2), canonical-form(m=2), then the same for m=4;
    # the nan goes into a middle draw of the first call
    real = suites.qpos_margin
    calls = []

    def wrapped(ctx, el):
        value = real(ctx, el)
        calls.append(value)
        if len(calls) == 1:
            value = value.copy()
            value[20] = math.nan
        return value

    monkeypatch.setattr(suites, "qpos_margin", wrapped)
    records = by_identity(qpos_records(ScenarioConfig(samples=1)))
    assert [np.shape(v) for v in calls] == [(50,), (), (50,), ()]
    assert records["positivity-margin(m=2)"].points == 50
    assert_nan_fail(records["positivity-margin(m=2)"])
    assert records["canonical-form(m=2)"].passed
    assert records["positivity-margin(m=4)"].passed


def test_bicomplex_d_squared_nan_fails(monkeypatch):
    # d-squared is the first record: 4 fields, each evaluated once at the
    # stacked Point of 3 samples; the nan goes into the middle sample of the
    # second field's per-sample array
    real = suites.enorm
    calls = []

    def wrapped(el):
        value = real(el)
        calls.append(value)
        if len(calls) == 2:
            value = np.array(np.broadcast_to(value, (3,)))
            value[1] = math.nan
        return value

    monkeypatch.setattr(suites, "enorm", wrapped)
    records = by_identity(bicomplex_records(ScenarioConfig(samples=3)))
    assert np.shape(calls[1]) == (3,)
    assert records["d-squared"].points == 12
    assert_nan_fail(records["d-squared"])
    assert records["del-squared"].passed


def test_totspace_nijenhuis_nan_fails(monkeypatch):
    # one call per structure, each at the stacked Point of the 4 samples;
    # the nan goes into the third sample of the second structure's array
    real = suites.nijenhuis_residual
    calls = []

    def wrapped(L, dL):
        value = real(L, dL)
        calls.append(value)
        if len(calls) == 2:
            value = value.copy()
            value[2] = math.nan
        return value

    monkeypatch.setattr(suites, "nijenhuis_residual", wrapped)
    records = by_identity(
        totspace_records(ScenarioConfig(bundle="flat", samples=4)))
    assert [np.shape(v) for v in calls] == [(4,)] * 3
    assert records["nijenhuis"].points == 4
    assert_nan_fail(records["nijenhuis"])
    assert records["potential-gradient-norm"].passed


def test_hopf_positivity_margin_nan_fails(monkeypatch):
    # one floor of the memoised Gram matrix, at the stacked Point of the 4
    # samples (was one qpos_margin call per sample); the nan goes into the
    # third sample's entry
    real = suites._gram_floor
    calls = []

    def wrapped(G):
        value = real(G)
        calls.append(value)
        value = value.copy()
        value[2] = math.nan
        return value

    monkeypatch.setattr(suites, "_gram_floor", wrapped)
    records = by_identity(hopf_records(ScenarioConfig(samples=4, probes=2)))
    assert [np.shape(v) for v in calls] == [(4,)]
    assert records["positivity-margin"].points == 4
    assert_nan_fail(records["positivity-margin"])
    assert records["omega-qreal"].passed
    assert records["cauchy-lower"].passed


def test_points_count_the_evaluated_samples():
    # fewer samples than the fixed subsets these records take
    bic = by_identity(bicomplex_records(ScenarioConfig(samples=2)))
    assert bic["moment-potential"].points == 2
    tot = by_identity(totspace_records(ScenarioConfig(bundle="flat",
                                                      samples=4)))
    assert tot["structure-equation"].points == 4
    assert tot["omega-qreal"].points == tot["omega-qpositive"].points == 1
