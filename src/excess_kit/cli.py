"""Command-line interface.

Exit codes: 0 when the requested check passes (or the command is purely
informational), 1 when a check returns Obstructed, 2 on hypothesis failure
or any input/usage error, 3 on an internal error (an unexpected exception,
reported as one stderr line), 141 (128 + SIGPIPE) when stdout is closed
before the output is written, with nothing on stderr. The code depends only
on the verdict or error class, never on the output format. An error writes
nothing to stdout, and its code holds when stderr is closed or absent: the
message is dropped, and the code is still 2 or 3.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from typing import Any, Callable, NoReturn

from .errors import _QUOTE_CHARS, CatalogError, ExcessKitError, _quote
from .fileio import (
    _TooManyDigits,
    load_catalog,
    parse_decimal,
    read_family_file,
    read_vector_file,
    resolve_profile,
)
from .gf2 import DEFAULT_EFFORT_LIMIT, Gf2Vector, max_zero_sum_subset, zero_sum_subcollection
from .manifolds import ManifoldProfile, budget_report
from .surfaces import SurfaceDatum, _admissible_range, tube

__all__ = ["build_parser", "run", "main"]

# Keyed by Verdict value, so that only check and audit import the engine.
_VERDICT_EXIT = {"BoundSatisfied": 0, "Obstructed": 1, "HypothesisFailure": 2}


def _int_arg(text: str) -> int:
    try:
        return parse_decimal(text)
    except _TooManyDigits as exc:
        raise argparse.ArgumentTypeError(f"has {exc}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _effort_arg(text: str) -> int:
    effort = _int_arg(text)
    if effort < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {effort}")
    return effort


_EFFORT_HELP = (
    f"budget of the exact search (0 = default 2^{DEFAULT_EFFORT_LIMIT.bit_length() - 1}); "
    "used only with --exact"
)
_EXACT_HELP = "use the exact zero-sum maximizer instead of the constructive one"


class _UsageError(Exception):
    """A usage error: argparse's usage text and error line, for run to print."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for run to print; subparsers inherit it as parser_class."""

    def error(self, message: str) -> NoReturn:
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="excess-kit",
        description=(
            "Exact integer obstruction checks for families of disjoint"
            " nonorientable surfaces in closed oriented 4-manifolds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="list or show built-in profiles")
    catalog.set_defaults(handler=_cmd_catalog)
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)
    catalog_sub.add_parser("list", help="list all known profiles")
    show = catalog_sub.add_parser("show", help="show one profile with budgets")
    show.add_argument("name")

    bound = sub.add_parser("bound", help="print a profile's budgets")
    bound.set_defaults(handler=_cmd_bound)
    bound.add_argument("--manifold", required=True, metavar="REF")

    check = sub.add_parser("check", help="excess check of a family file")
    check.set_defaults(handler=_cmd_check)
    check.add_argument("--manifold", required=True, metavar="REF")
    check.add_argument("--family", required=True, metavar="PATH")
    check.add_argument("--format", choices=("text", "json"), default="text")

    audit = sub.add_parser("audit", help="staged audit of a genus-1 family")
    audit.set_defaults(handler=_cmd_audit)
    audit.add_argument("--manifold", required=True, metavar="REF")
    audit.add_argument("--planes", required=True, metavar="PATH")
    audit.add_argument("--exact", action="store_true", help=_EXACT_HELP)
    audit.add_argument("--format", choices=("text", "json"), default="text")
    audit.add_argument("--effort", type=_effort_arg, default=0, metavar="N", help=_EFFORT_HELP)

    tube_cmd = sub.add_parser("tube", help="tube a family into one surface")
    tube_cmd.set_defaults(handler=_cmd_tube)
    tube_cmd.add_argument("--family", required=True, metavar="PATH")

    cover = sub.add_parser("cover", help="branched double cover invariants")
    cover.set_defaults(handler=_cmd_cover)
    cover.add_argument("--manifold", required=True, metavar="REF")
    cover.add_argument("--genus", required=True, type=_int_arg)
    cover.add_argument("--euler", required=True, type=_int_arg)
    cover.add_argument("--class", dest="class_bits", default=None, metavar="BITS")

    zerosum = sub.add_parser("zerosum", help="zero-sum subset of a vector file")
    zerosum.set_defaults(handler=_cmd_zerosum)
    zerosum.add_argument("--vectors", required=True, metavar="PATH")
    zerosum.add_argument("--exact", action="store_true", help=_EXACT_HELP)
    zerosum.add_argument("--effort", type=_effort_arg, default=0, metavar="N", help=_EFFORT_HELP)

    massey = sub.add_parser("massey", help="admissible Euler numbers for a genus")
    massey.set_defaults(handler=_cmd_massey)
    massey.add_argument("--genus", required=True, type=_int_arg)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser for run: parsing leaves no state on a parser."""
    return build_parser()


def _profile_line(profile: ManifoldProfile) -> str:
    b = budget_report(profile)
    return (
        f"{profile.name}: signature {profile.signature}, "
        f"euler_characteristic {profile.euler_characteristic}, "
        f"b1_f2 {profile.b1_f2}, b2_f2 {b.b2_f2}, D {b.d_of_m}, B {b.b_of_m}"
    )


def _print_budget(profile: ManifoldProfile) -> int:
    from .reports import render_budget_text

    print(render_budget_text(profile, budget_report(profile)))
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    catalog = load_catalog()
    if args.catalog_command == "list":
        for name in sorted(catalog):
            print(_profile_line(catalog[name]))
        return 0
    profile = catalog.get(args.name)
    if profile is None:
        raise CatalogError(f"unknown catalog profile {_quote(args.name)}")
    return _print_budget(profile)


def _cmd_bound(args: argparse.Namespace) -> int:
    return _print_budget(resolve_profile(args.manifold))


def _load_family_for(ref: str, path: str) -> tuple:
    """The command's profile and the family file's family, as (profile, family).

    The family file names its own ambient profile; it must agree with the
    profile named on the command line, field for field.
    """
    catalog = load_catalog()
    profile = resolve_profile(ref, catalog)
    ambient, family = read_family_file(path, catalog)
    declared = (ambient.signature, ambient.euler_characteristic, ambient.b1_f2)
    named = (profile.signature, profile.euler_characteristic, profile.b1_f2)
    if declared != named:
        raise ExcessKitError(
            f"family file declares ambient {_quote(ambient.name)} with invariants "
            f"{declared}, but the command names {_quote(profile.name)} with {named}"
        )
    return profile, family


def _print_verdict(
    args: argparse.Namespace, report: Any, document: Callable, render: Callable
) -> int:
    """Print a check or audit report in args.format; its verdict is the exit code."""
    from .reports import canonical_json

    if args.format == "json":
        print(canonical_json(document(report)))
    else:
        print(render(report))
    return _VERDICT_EXIT[report.verdict.value]


def _cmd_check(args: argparse.Namespace) -> int:
    profile, family = _load_family_for(args.manifold, args.family)
    from . import engine, reports  # only now: a bad input file exits 2 without them

    report = engine.excess_check(profile, family)
    return _print_verdict(
        args, report, reports.report_document, reports.render_report_text
    )


def _cmd_audit(args: argparse.Namespace) -> int:
    profile, family = _load_family_for(args.manifold, args.planes)
    from . import engine, reports

    audit = engine.plane_family_audit(
        profile, family, use_exact=args.exact, effort_limit=args.effort
    )
    return _print_verdict(args, audit, reports.audit_document, reports.render_audit_text)


def _cmd_tube(args: argparse.Namespace) -> int:
    from .reports import render_tube_text

    _, family = read_family_file(args.family)
    print(render_tube_text(tube(family)))
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    from .covers import branched_double_cover, consistency_check
    from .reports import render_cover_text

    profile = resolve_profile(args.manifold)
    if args.class_bits is None:
        mod2_class = Gf2Vector.zero(profile.b2_f2)
    else:
        try:
            mod2_class = Gf2Vector.from_string(args.class_bits)
        except ValueError as exc:
            raise ExcessKitError(str(exc)) from None
    cover = branched_double_cover(profile, SurfaceDatum(args.genus, args.euler, mod2_class))
    print(render_cover_text(cover, consistency_check(cover)))
    return 0


def _cmd_zerosum(args: argparse.Namespace) -> int:
    collection = read_vector_file(args.vectors)
    if args.exact:
        cert = max_zero_sum_subset(collection, args.effort)
    else:
        cert = zero_sum_subcollection(collection)
    print(str(cert))
    return 0


def _cmd_massey(args: argparse.Namespace) -> int:
    values = _admissible_range(args.genus)
    count = args.genus + 1  # len() of the range fails past sys.maxsize
    step = 4096  # values per write, so memory stays flat whatever the genus
    for i in range(0, count, step):
        end = "\n" if i + step >= count else " "
        print(" ".join(map(str, values[i : i + step])), end=end)
    return 0


def _cut_argv(message: str, argv: list[str]) -> str:
    """message with each argument, then each part after '=', cut as errors._quote cuts it."""
    for value in argv + [arg.partition("=")[2] for arg in argv]:
        if len(value) > _QUOTE_CHARS:
            message = message.replace(repr(value), _quote(value)).replace(value, _quote(value))
    return message


# The status a shell reports for a process killed by SIGPIPE (signal 13).
_CLOSED_STDOUT_EXIT = 128 + 13


def _closed_stdout() -> int:
    """The exit code for a closed stdout, after pointing stdout's fd at os.devnull.

    What is left in stdout's buffer would fail again at shutdown; written to
    os.devnull it does not. A stdout without a real fd is left as it is.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return _CLOSED_STDOUT_EXIT
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)
    return _CLOSED_STDOUT_EXIT


def _fail(message: str, code: int) -> int:
    """Write an error message as one stderr line and return its exit code.

    The code does not depend on the message reaching anyone: a closed
    stderr drops it, and so does an absent one (None when the process
    started without fd 2), where print would fall back to stdout.
    """
    if sys.stderr is not None:
        try:
            print(message, file=sys.stderr)
        except OSError:
            pass
    return code


def _dispatch(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit:
        return 0  # --help; argparse's errors raise _UsageError instead
    return args.handler(args)


def run(argv: list[str]) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    try:
        code = _dispatch(argv)
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()  # a closed stdout shows here when stdout is buffered
        return code
    except BrokenPipeError:  # only stdout is a pipe the package writes to
        return _closed_stdout()
    except (_UsageError, OSError) as exc:
        return _fail(_cut_argv(str(exc), argv), 2)
    except ExcessKitError as exc:  # uncut: a ParseError's path:line names a real file
        return _fail(str(exc), 2)
    except Exception as exc:
        # Exit 1 means Obstructed, so an internal failure must never reach
        # the interpreter's default status of 1.
        message = " ".join(str(exc).splitlines())
        return _fail(f"internal error: {type(exc).__name__}: {message}", 3)


def main() -> None:
    code = run(sys.argv[1:])
    # The process is about to end, so its objects need no more collecting:
    # frozen, they are skipped by the full collections the interpreter runs
    # at exit, about 7 ms of a 72 ms command (2-core x86_64, Python 3.11).
    # Flushes and atexit handlers still run. run itself freezes nothing.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
