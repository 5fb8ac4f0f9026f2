import contextlib
import dataclasses
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from hktlab import cli, suites
from hktlab.cli import main
from hktlab.report import VerificationReport
from hktlab.suites import (ALGEBRA_MAX_N, BICOMPLEX_MAX_N, HOPF_Q_RANGE,
                           SUITES, ScenarioConfig, Tolerances, run_suite)

FAST = ["--samples", "6", "--probes", "4"]


@contextlib.contextmanager
def charts_up_to_algebra_max_n():
    """suites.flat_chart refuses an n the algebra suite refuses, so a
    refusal that goes missing fails the test instead of building the su(2)
    blocks of n=5, whose largest degree needs about 1.3 GB."""
    real = suites.flat_chart

    def bounded(n, *args, **kwargs):
        assert n <= ALGEBRA_MAX_N, f"flat_chart built at refused n={n}"
        return real(n, *args, **kwargs)

    suites.flat_chart = bounded
    try:
        yield
    finally:
        suites.flat_chart = real


def test_passing_suite_exit_zero(capsys):
    code = main(["algebra"] + FAST)
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out


def test_json_output_parses(capsys):
    code = main(["qpos", "--format", "json"] + FAST)
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["suite"] == "qpos"
    assert payload["passed"] is True
    assert payload["config"]["samples"] == 6
    assert payload["config"]["seed"] == 42
    assert all(r["passed"] for r in payload["records"])


def test_json_deterministic_across_runs(capsys):
    main(["bundle", "--format", "json"] + FAST)
    first = capsys.readouterr().out
    main(["bundle", "--format", "json"] + FAST)
    second = capsys.readouterr().out
    assert first == second


def test_seed_changes_config_echo(capsys):
    main(["algebra", "--format", "json", "--seed", "7"] + FAST)
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["seed"] == 7


def test_failing_bundle_exit_one(capsys):
    code = main(["bundle", "--bundle", "nonholo-demo", "--format", "json"] + FAST)
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["passed"] is False
    failing = [r for r in payload["records"] if not r["passed"]]
    assert failing


USAGE_ERRORS = [
    ["hopf", "--q", "1.0"] + FAST,
    ["algebra", "--n", "0"] + FAST,
    ["bundle", "--bundle", "nope"] + FAST,
    [],
    # a non-finite q or a nan or negative tolerance is refused before any
    # suite runs
    ["hopf", "--q=nan", "--samples", "2"],
    ["hopf", "--q=inf", "--samples", "2"],
    ["hopf", "--q=-inf", "--samples", "2"],
    ["algebra", "--tol-sl2", "nan"] + FAST,
    ["bundle", "--tol-bundle", "nan"] + FAST,
    ["algebra", "--tol-sl2", "-1"] + FAST,
    # beyond the supported |q| the hopf samples would reach the zero section
    # or overflow
    ["hopf", "--q=1e3", "--samples", "4"],
    ["hopf", "--q=1e6", "--samples", "4"],
    ["hopf", "--q=1e-6", "--samples", "4"],
    ["hopf", "--q=1e300", "--samples", "4"],
    # numpy's generator takes no negative seed
    ["qpos", "--seed=-1", "--samples", "2"],
    # every catalog connection lives over H^1
    ["bundle", "--n", "2"] + FAST,
    ["totspace", "--n", "3"] + FAST,
    ["hopf", "--n", "2"] + FAST,
    # qpos checks H^1 and H^2 whatever n is
    ["qpos", "--n", "3", "--samples", "2"],
    # the algebra suite's largest su(2) degree would take about 1.3 GB
    ["algebra", "--n", "5", "--samples", "1"],
    ["all", "--n", "5", "--samples", "1"],
    # the monomial index of H^n has 16^n entries: 2 GiB at n=7
    ["bicomplex", "--n", "7", "--samples", "1"],
    ["bicomplex", "--n", "10", "--samples", "1"],
]


def test_usage_error_exit_two(capsys):
    for argv in USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc, charts_up_to_algebra_max_n():
            main(argv)
        assert exc.value.code == 2, argv
        assert not capsys.readouterr().out, argv


@pytest.mark.parametrize("suite, n", [("bundle", 2), ("totspace", 3),
                                      ("hopf", 2), ("algebra", 5),
                                      ("all", 5), ("algebra", 6),
                                      ("bicomplex", 7), ("bicomplex", 10)])
def test_run_suite_refuses_n_before_building(monkeypatch, suite, n):
    def no_build(*args):
        raise AssertionError(f"{suite} at n={n} built before refusing")

    for name in ("flat_chart", "total_space", "structure_charts"):
        monkeypatch.setattr(suites, name, no_build)
    with pytest.raises(ValueError, match="n must be"):
        run_suite(ScenarioConfig(n=n, samples=1), suite)


def test_bicomplex_takes_n_up_to_its_cap(monkeypatch):
    # n=6 reaches the suite (about 210 MB of peak RSS when run); n=7 is a
    # usage error (USAGE_ERRORS)
    seen = []

    def recorded_run(cfg, suite):
        seen.append((cfg.n, suite))
        return VerificationReport(suite, cfg.echo())

    monkeypatch.setattr(cli, "run_suite", recorded_run)
    assert main(["bicomplex", "--n", str(BICOMPLEX_MAX_N)] + FAST) == 0
    assert seen == [(6, "bicomplex")]


def test_hopf_q_range_ends_pass(capsys):
    for q in ("100", "-100", "1e-3", "-1e-3"):
        assert main(["hopf", f"--q={q}"] + FAST) == 0, q
        assert "result: PASS" in capsys.readouterr().out, q


@pytest.mark.parametrize("bundle, drawn", [("bpst", 0), ("direct-sum", 1)])
def test_hopf_one_probe_runs_to_a_verdict(capsys, bundle, drawn):
    # --probes 1 leaves the radial probe alone on the Cauchy records, and
    # per sample `drawn` random probes: none on bpst, the extra one that
    # cauchy-orthogonal-probe reads on the rank-4 fiber
    code = main(["hopf", "--bundle", bundle, "--probes", "1", "--samples",
                 "7", "--format", "json"])
    records = {r["identity"]: r for r in
               json.loads(capsys.readouterr().out)["records"]}
    assert code == 0
    assert records["cauchy-lower"]["points"] == 7
    assert ("cauchy-orthogonal-probe" in records) == (drawn == 1)
    assert all(r["passed"] for r in records.values())


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["qpos", "--format", "json", "--out", str(target)] + FAST)
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["suite"] == "qpos"


def test_unwritable_out_is_refused_before_any_run(tmp_path, capsys,
                                                  monkeypatch):
    def no_run(cfg, suite):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suite", no_run)
    target = tmp_path / "missing" / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["qpos", "--samples", "2", "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert str(target) in captured.err


def test_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    argv = ["qpos", "--format", "json"] + FAST
    assert main(argv) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "report.json"
    assert main(argv + ["--out", str(target)]) == 0
    assert target.read_text() == printed
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_out_is_not_left_behind_by_a_run_that_raises(tmp_path, monkeypatch):
    def broken_run(cfg, suite):
        raise RuntimeError("suite stopped")

    monkeypatch.setattr(cli, "run_suite", broken_run)
    target = tmp_path / "r.json"
    with pytest.raises(RuntimeError):
        main(["qpos", "--samples", "2", "--out", str(target)])
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_out_directory_is_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qpos", "--samples", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_all_still_takes_n(monkeypatch, capsys):
    # all applies n to algebra, bicomplex and qpos; the H^1 suites refuse it
    # only when run alone
    seen = []

    def recorded_run(cfg, suite):
        seen.append((cfg.n, suite))
        return VerificationReport(suite, cfg.echo())

    monkeypatch.setattr(cli, "run_suite", recorded_run)
    assert main(["all", "--n", "2"] + FAST) == 0
    assert seen == [(2, "all")]


def test_tolerance_override_can_force_failure(capsys):
    code = main(["algebra", "--tol-sl2", "0"] + FAST)
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("name", SUITES)
def test_subcommands_exist(name):
    # parse-only probe: invalid q triggers the usage path for every suite
    with pytest.raises(SystemExit) as exc:
        main([name, "--q", "0"])
    assert exc.value.code == 2


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_infinite_tolerance_echoes_as_strict_json(capsys):
    code = main(["algebra", "--tol-sl2", "inf", "--format", "json"] + FAST)
    payload = json.loads(capsys.readouterr().out,
                         parse_constant=_reject_constant)
    assert code == 0
    assert payload["config"]["tolerances"]["sl2"] == "inf"
    assert "inf" in [r["threshold"] for r in payload["records"]]


LO, HI = HOPF_Q_RANGE
QS = [float("nan"), float("inf"), float("-inf"), 0.0, 1.0, -1.0, LO, -LO, HI,
      -HI, 2.0, -1.6, 0.37, LO / 10, HI * 10, 1e300]
TOL_FLAGS = ["--tol-" + f.name.replace("_", "-")
             for f in dataclasses.fields(Tolerances)]


# seeds near zero, negative ones included, are drawn as often as large ones
SEEDS = st.one_of(st.integers(-3, 2), st.integers(0, 2**40))


# Most draws are refused in milliseconds (each of n, samples, probes, q and
# the tolerance can be out of range), so 200 examples reach a verdict about a
# dozen times and take a few seconds; the example pins the negative-seed
# crash.  n=5 and n=6 must be refused before anything is built; n=4 (about
# 2 s and 393 MB for algebra) is left to the CI step that runs it.
@settings(max_examples=200, deadline=None)
@given(suite=st.sampled_from(["algebra", "qpos", "bundle", "hopf"]),
       n=st.sampled_from([0, 1, 2, 3, 5, 6]), samples=st.integers(0, 2),
       probes=st.integers(0, 2), seed=SEEDS,
       q=st.sampled_from(QS), tol_flag=st.sampled_from(TOL_FLAGS),
       tol=st.sampled_from([float("nan"), -1.0, 0.0, 1e-12, float("inf")]))
@example(suite="qpos", n=1, samples=2, probes=2, seed=-1, q=2.0,
         tol_flag="--tol-sl2", tol=0.0)
def test_exit_code_contract(suite, n, samples, probes, seed, q, tol_flag, tol):
    # 0 or 1 with a strict JSON report, or 2 with nothing on stdout; any
    # other exception (a traceback) fails the test
    argv = [suite, f"--n={n}", f"--samples={samples}", f"--probes={probes}",
            f"--seed={seed}", f"--q={q!r}", f"{tol_flag}={tol!r}",
            "--format", "json"]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()), \
                charts_up_to_algebra_max_n():
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        assert not out.getvalue(), argv
        return
    assert code in (0, 1), argv
    payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert payload["passed"] is (code == 0), argv
