"""Command-line interface.

Exit codes: 0 when the requested check passes (or the command is purely
informational), 1 when a check returns Obstructed, 2 on hypothesis failure
or any input/usage error, 3 on an internal error (an unexpected exception,
reported as one stderr line). The code depends only on the verdict or
error class, never on the output format.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable

from . import reports
from .covers import branched_double_cover, consistency_check
from .engine import Verdict, excess_check, plane_family_audit
from .errors import CatalogError, ExcessKitError, _bare, _quote
from .fileio import (
    _TooManyDigits,
    load_catalog,
    parse_decimal,
    read_family_file,
    read_vector_file,
    resolve_profile,
)
from .gf2 import Gf2Vector, max_zero_sum_subset, zero_sum_subcollection
from .manifolds import ManifoldProfile, budget_report
from .surfaces import SurfaceDatum, SurfaceFamily, _admissible_range, tube

__all__ = ["build_parser", "run", "main"]

_VERDICT_EXIT = {
    Verdict.BOUND_SATISFIED: 0,
    Verdict.OBSTRUCTED: 1,
    Verdict.HYPOTHESIS_FAILURE: 2,
}


def _int_arg(text: str) -> int:
    try:
        return parse_decimal(text)
    except _TooManyDigits as exc:
        raise argparse.ArgumentTypeError(f"has {exc}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}") from None


def _effort_arg(text: str) -> int:
    effort = _int_arg(text)
    if effort < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {effort}")
    return effort


class _Parser(argparse.ArgumentParser):
    """Cuts a rejected choice or extra argument as errors._quote and _bare do.

    Subparsers inherit the class through add_subparsers' parser_class.
    """

    def _check_value(self, action: argparse.Action, value: str) -> None:
        try:
            super()._check_value(action, value)
        except argparse.ArgumentError as exc:
            message = exc.message.replace(repr(value), _quote(value), 1)
            raise argparse.ArgumentError(action, message) from None

    def parse_args(self, args: Any = None, namespace: Any = None) -> Any:
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(map(_bare, extras)))
        return parsed


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
    audit.add_argument(
        "--exact",
        action="store_true",
        help="use the exact zero-sum maximizer instead of the constructive one",
    )
    audit.add_argument("--format", choices=("text", "json"), default="text")
    audit.add_argument("--effort", type=_effort_arg, default=0, metavar="N")

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
    zerosum.add_argument("--exact", action="store_true")
    zerosum.add_argument("--effort", type=_effort_arg, default=0, metavar="N")

    massey = sub.add_parser("massey", help="admissible Euler numbers for a genus")
    massey.set_defaults(handler=_cmd_massey)
    massey.add_argument("--genus", required=True, type=_int_arg)

    return parser


def _profile_line(profile: ManifoldProfile) -> str:
    b = budget_report(profile)
    return (
        f"{profile.name}: signature {profile.signature}, "
        f"euler_characteristic {profile.euler_characteristic}, "
        f"b1_f2 {profile.b1_f2}, b2_f2 {b.b2_f2}, D {b.d_of_m}, B {b.b_of_m}"
    )


def _print_budget(profile: ManifoldProfile) -> int:
    print(reports.render_budget_text(profile, budget_report(profile)))
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


def _load_family_for(ref: str, path: str) -> tuple[ManifoldProfile, SurfaceFamily]:
    """Resolve the command's profile and the family's declared ambient.

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
    if args.format == "json":
        print(reports.canonical_json(document(report)))
    else:
        print(render(report))
    return _VERDICT_EXIT[report.verdict]


def _cmd_check(args: argparse.Namespace) -> int:
    profile, family = _load_family_for(args.manifold, args.family)
    report = excess_check(profile, family)
    return _print_verdict(
        args, report, reports.report_document, reports.render_report_text
    )


def _cmd_audit(args: argparse.Namespace) -> int:
    profile, family = _load_family_for(args.manifold, args.planes)
    audit = plane_family_audit(
        profile, family, use_exact=args.exact, effort_limit=args.effort
    )
    return _print_verdict(args, audit, reports.audit_document, reports.render_audit_text)


def _cmd_tube(args: argparse.Namespace) -> int:
    _, family = read_family_file(args.family)
    print(reports.render_tube_text(tube(family)))
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    profile = resolve_profile(args.manifold)
    if args.class_bits is None:
        mod2_class = Gf2Vector.zero(profile.b2_f2)
    else:
        mod2_class = Gf2Vector.from_string(args.class_bits)
    surface = SurfaceDatum(args.genus, args.euler, mod2_class)
    tubed = tube(SurfaceFamily(mod2_class.dim, (surface,)))
    cover = branched_double_cover(profile, tubed)
    print(reports.render_cover_text(cover, consistency_check(cover)))
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


def run(argv: list[str]) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (ExcessKitError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means Obstructed, so an internal failure must never reach
        # the interpreter's default status of 1.
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
