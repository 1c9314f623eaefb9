"""Command line interface.

    cubicdirac verify --input FILE [--subalgebra-from-file]
                      [--checks all|kostant|cohomology|decomposition|invariance]
                      [--report text|machine]
    cubicdirac catalog list
    cubicdirac catalog show NAME
    cubicdirac compute-c --input FILE [--subalgebra-from-file]

Exit codes: 0 when every enabled check passes, 1 when a check fails, 2 on
usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .algfile import emit_algebra_text, parse_algebra_text
from .catalog import catalog_entry, catalog_names
from .dirac import DiracContext
from .errors import (
    AlgebraFileError,
    ContractViolation,
    DegenerateFormError,
    NotASubalgebraError,
    ValidationError,
)
from .suite import CHECK_IDS, render_machine, render_text, run_suite

_INPUT_ERRORS = (
    AlgebraFileError,
    ContractViolation,
    DegenerateFormError,
    NotASubalgebraError,
    ValidationError,
    OSError,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse_args call returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="cubicdirac",
        description="Exact verification of cubic Dirac operator identities over the rationals.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser("verify", help="run identity checks on an algebra file")
    verify.add_argument("--input", required=True, help="algebra document to verify")
    verify.add_argument(
        "--subalgebra-from-file",
        action="store_true",
        help="use the subalgebra declared in the input file",
    )
    verify.add_argument(
        "--checks",
        choices=("all", *CHECK_IDS),
        default="all",
    )
    verify.add_argument("--report", choices=("text", "machine"), default="text")

    catalog = commands.add_parser("catalog", help="built-in example algebras")
    catalog_commands = catalog.add_subparsers(dest="catalog_command", required=True)
    catalog_commands.add_parser("list", help="list the built-in algebras")
    show = catalog_commands.add_parser("show", help="print a built-in algebra as a document")
    show.add_argument("name")

    compute = commands.add_parser("compute-c", help="print the scalar c for an algebra file")
    compute.add_argument("--input", required=True)
    compute.add_argument("--subalgebra-from-file", action="store_true")
    return parser


def _load(args):
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise AlgebraFileError(f"the input is not UTF-8: {exc.reason} at byte offset {exc.start}") from None
    algebra, subalgebra = parse_algebra_text(text)
    if args.subalgebra_from_file:
        if not subalgebra:
            raise AlgebraFileError("the input file declares no subalgebra")
        return algebra, subalgebra
    return algebra, ()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            algebra, subalgebra = _load(args)
            report = run_suite(algebra, subalgebra, checks=args.checks)
            rendered = render_machine(report) if args.report == "machine" else render_text(report)
            sys.stdout.write(rendered)
            return 0 if report.all_passed else 1

        if args.command == "catalog":
            if args.catalog_command == "list":
                for name in catalog_names():
                    entry = catalog_entry(name)
                    sys.stdout.write(f"{name:20s} {entry.description}\n")
                return 0
            try:
                entry = catalog_entry(args.name)
            except KeyError:
                sys.stderr.write(f"error: no catalog entry named {args.name!r}\n")
                return 2
            sys.stdout.write(emit_algebra_text(entry.algebra, entry.subalgebra))
            return 0

        if args.command == "compute-c":
            algebra, subalgebra = _load(args)
            ctx = DiracContext(algebra, subalgebra)
            c = ctx.c_value()
            if c is None:
                sys.stderr.write("error: the residual is not a scalar\n")
                return 1
            sys.stdout.write(f"{c}\n")
            return 0
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    raise AssertionError("unreachable command")


if __name__ == "__main__":
    sys.exit(main())
