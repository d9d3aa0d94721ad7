"""Command-line front end: run a session script, print the report."""

from __future__ import annotations

import argparse
import json
import sys

from .script import run_script


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="supergeom",
        description="Run a supergeom session script and print its report.",
    )
    parser.add_argument(
        "--script", metavar="FILE",
        help="script file to run (default: read standard input)",
    )
    parser.add_argument(
        "--json-out", metavar="FILE",
        help="write all exported values to FILE as one JSON object",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="report every error instead of stopping at the first",
    )
    args = parser.parse_args(argv)

    if args.script is None or args.script == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.script, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1

    result = run_script(text, keep_going=args.keep_going)
    sys.stdout.write(result.output)
    for err in result.errors:
        print(err, file=sys.stderr)
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump(result.exports, fh, indent=2)
                fh.write("\n")
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
