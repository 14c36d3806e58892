"""CLI for the invariant linter: ``python -m repro.analysis``.

Exit codes: 0 = clean, 1 = findings, 2 = usage error (bad path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import analyze_paths, render_json, render_text
from repro.analysis.rules import default_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant linter for the repro codebase",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json output is byte-stable across runs)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            scope = ", ".join(rule.scope) if rule.scope else "repo-wide"
            print(f"{rule.rule_id}  [{scope}]\n    {rule.description}")
        return 0

    paths = args.paths or [Path("src/repro")]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    report = analyze_paths(paths, rules, root=Path.cwd())
    print(render_json(report) if args.format == "json" else render_text(report))
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
