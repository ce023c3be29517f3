"""Command-line front end.

Exit codes: 0 success, 2 bad input (missing file, schema violation,
invalid parameters), 3 violated internal invariant or a failed
verification oracle.  ``morse`` exits 0 even when the solved polynomial is
not integral; the verdict lives in the report.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .errors import (ConleyError, InvariantError, ResourceError,
                     ValidationError)
from .report import (build_index_report, build_jordan_report,
                     build_morse_report, build_verify_report,
                     build_zeta_report, render_json, render_text)
from .system_io import parse_system

EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_INVARIANT = 3


@cache
def _build_parser():
    """The argument parser, built on the first call and shared by every
    later one; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="conley",
        description="Exact Conley indices, Jordan block profiles, zeta "
                    "functions and Morse checks for basic sets described "
                    "by structure matrices or signed transition graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text in (
            ("index", "Conley index of every basic set"),
            ("jordan", "block profile of every structure matrix"),
            ("zeta", "homology zeta functions and their product"),
            ("morse", "Morse-inequality polynomial check"),
            ("verify", "run the independent cross-check oracles")):
        p = commands[name] = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="system description (JSON)")
        p.add_argument("--format", choices=("text", "json"),
                       default="text", help="output format")
    commands["morse"].add_argument(
        "--q", type=int, required=True,
        help="check the identity through degree q")
    commands["verify"].add_argument(
        "--max-enum", type=int, default=6,
        help="largest period for brute-force enumeration")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        system = parse_system(args.file)
        if args.command == "index":
            report = build_index_report(system)
        elif args.command == "jordan":
            report = build_jordan_report(system)
        elif args.command == "zeta":
            report = build_zeta_report(system)
        elif args.command == "morse":
            report = build_morse_report(system, args.q)
        else:
            report = build_verify_report(system, max_enum=args.max_enum)
        rendered = render_json(report) if args.format == "json" \
            else render_text(report)
    except (ValidationError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ConleyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    sys.stdout.write(rendered)
    if args.command == "verify" and not report["ok"]:
        print("verification failed", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
