"""Command line entry point.

Verbs:
  run <scenario>     write trajectories, window, limits and invariant reports
  verify <scenario>  run the invariant battery; exit 3 on any violation
  limits <scenario>  classify and evaluate both limits
  catalog            list the built-in scenario names

<scenario> is a JSON file path or a built-in catalog name.  Exit codes:
0 ok, 2 invalid input, 3 invariant violation, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .catalog import catalog_names
from .errors import GeometryError
from .limits import evaluate_limits
from .scenario import (
    _load_seeded,
    chart_samples,
    invariant_report_to_json,
    limit_report_to_json,
    run_scenario,
    verify_scenario,
)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built by the first ``main`` call and kept for the process.

    Parsing leaves the parser as it is and fills a fresh namespace with the
    defaults on every call, so one call's options never reach the next.
    """
    # the raw formatter prints the module docstring as written, verb table and all
    parser = argparse.ArgumentParser(
        prog="hyperflow", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "verify", "limits"):
        p = sub.add_parser(verb)
        p.add_argument("scenario", help="scenario JSON path or catalog name")
        p.add_argument("--out", default="out", help="output directory (run only)")
        p.add_argument("--seed", type=int, default=None, help="override the sampling seed")
        p.add_argument("--tolerance-scale", type=float, default=1.0, help="scale all verification tolerances")
    sub.add_parser("catalog")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verb == "catalog":
        for name in catalog_names():
            print(name)
        return 0
    try:
        if args.verb == "run":
            summary = run_scenario(args.scenario, args.out, seed=args.seed, tolerance_scale=args.tolerance_scale)
            print(json.dumps(summary, indent=2, sort_keys=True))
            inv = summary.get("invariants")
            return 0 if inv is None or inv["overall_pass"] else 3
        if args.verb == "verify":
            report = verify_scenario(args.scenario, tolerance_scale=args.tolerance_scale, seed=args.seed)
            print(json.dumps(invariant_report_to_json(report), indent=2, sort_keys=True))
            return 0 if report.overall_pass else 3
        if args.verb == "limits":
            scn = _load_seeded(args.scenario, args.seed)
            us = chart_samples(scn.descriptor, scn.sampling.per_dim, scn.sampling.seed)
            print(json.dumps(limit_report_to_json(evaluate_limits(scn.descriptor, us)), indent=2, sort_keys=True))
            return 0
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 2


if __name__ == "__main__":
    sys.exit(main())
