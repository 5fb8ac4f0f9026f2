import json

import pytest

from hktlab.cli import main
from hktlab.suites import SUITES

FAST = ["--samples", "6", "--probes", "4"]


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
]


def test_usage_error_exit_two(capsys):
    for argv in USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert not capsys.readouterr().out, argv


def test_hopf_q_range_ends_pass(capsys):
    for q in ("100", "-100", "1e-3", "-1e-3"):
        assert main(["hopf", f"--q={q}"] + FAST) == 0, q
        assert "result: PASS" in capsys.readouterr().out, q


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["qpos", "--format", "json", "--out", str(target)] + FAST)
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["suite"] == "qpos"


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


def test_infinite_tolerance_echoes_as_strict_json(capsys):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    code = main(["algebra", "--tol-sl2", "inf", "--format", "json"] + FAST)
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 0
    assert payload["config"]["tolerances"]["sl2"] == "inf"
    assert "inf" in [r["threshold"] for r in payload["records"]]
