"""Command line front end: one subcommand per verification suite.

Exit code 0 means every record passed, 1 means at least one failed, 2 is
a usage or configuration error.  With --format json the output is byte
identical across runs of the same config.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

from .suites import SUITES, ScenarioConfig, Tolerances, run_suite


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=1,
                        help="quaternionic dimension of the base chart")
    common.add_argument("--bundle", default="bpst",
                        help="catalog connection for bundle, totspace, hopf")
    common.add_argument("--q", type=float, default=2.0,
                        help="dilation factor of the quotient")
    common.add_argument("--samples", type=int, default=100,
                        help="sample points per pointwise identity")
    common.add_argument("--probes", type=int, default=20,
                        help="probe vectors per point for positivity bounds")
    common.add_argument("--seed", type=int, default=42,
                        help="seed for every random draw")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    for f in dataclasses.fields(Tolerances):
        flag = "--tol-" + f.name.replace("_", "-")
        common.add_argument(flag, type=float, default=f.default,
                            dest="tol_" + f.name, help=f"override {f.name}")

    parser = argparse.ArgumentParser(
        prog="hktlab",
        description="numerical certification of the quaternionic Dolbeault "
                    "calculus and the HKT constructions built on it")
    sub = parser.add_subparsers(dest="suite", required=True)
    for name in SUITES + ("all",):
        sub.add_parser(name, parents=[common],
                       help=f"run the {name} suite")
    return parser


def _config_from(args: argparse.Namespace) -> ScenarioConfig:
    tol = Tolerances(**{f.name: getattr(args, "tol_" + f.name)
                        for f in dataclasses.fields(Tolerances)})
    return ScenarioConfig(n=args.n, bundle=args.bundle, q=args.q,
                          samples=args.samples, probes=args.probes,
                          seed=args.seed, tol=tol)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from(args)
    try:
        cfg.validate(args.suite)
    except ValueError as exc:
        parser.error(str(exc))
    # not in validate: the algebra-n3 benchmark workload runs qpos at n=3
    if args.n not in (1, 2) and args.suite == "qpos":
        parser.error("--n must be 1 or 2 for qpos: it checks H^1 and H^2 "
                     "whatever --n is")
    # the report goes to a temporary file beside --out, opened before any
    # suite runs (so a bad path costs no run) and renamed once it is whole
    tmp = f"{args.out}.{os.getpid()}.tmp" if args.out else None
    if tmp and os.path.isdir(args.out):
        parser.error(f"cannot write --out {args.out}: it is a directory")
    try:
        sink = open(tmp, "x") if tmp else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        parser.error(f"cannot write --out {args.out}: {exc.strerror}")
    try:
        with sink as fh:
            report = run_suite(cfg, args.suite)
            fh.write(report.to_json() if args.format == "json"
                     else report.to_text())
        if tmp:
            os.replace(tmp, args.out)
    finally:
        if tmp and os.path.exists(tmp):
            os.remove(tmp)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
