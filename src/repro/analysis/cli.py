"""``python -m repro.analysis`` — the repro-lint command line.

Exit codes: 0 clean, 1 active findings or a suppression naming an
unknown rule, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .engine import render_json, run_paths
from .findings import all_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static checks for the harness's state-codec, "
        "event-loop and fork-safety contracts.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text; github = Actions annotations)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids, names or family prefixes "
        "(e.g. RL6,RL7) to run (default: all)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in the output",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name:<26} [{rule.severity.value}]  {rule.summary}")
        return 0
    rules = None
    if args.rules:
        rules = [tok for tok in args.rules.split(",") if tok.strip()]
    try:
        report = run_paths(args.paths, rules=rules)
    except FileNotFoundError as exc:
        print(f"repro-lint: no such path: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(report, show_suppressed=args.show_suppressed))
    elif args.format == "github":
        print(report.render_github(show_suppressed=args.show_suppressed))
    else:
        print(report.render_text(show_suppressed=args.show_suppressed))
    return 0 if report.clean else 1
