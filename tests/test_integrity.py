"""Exit-code integrity, strict integer input, no bare asserts, and the public names."""

from __future__ import annotations

import ast
import importlib
import pathlib
from unittest import mock

import pytest

import excess_kit
from excess_kit import cli
from excess_kit.errors import ParseError
from excess_kit.fileio import parse_decimal, read_family_file

NON_ASCII_OR_GROUPED = ("١٢", "５", "1_000")

SRC = pathlib.Path(excess_kit.__file__).parent


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unexpected_exception_exits_three_with_one_line(monkeypatch, tmp_path, capsys):
    family = tmp_path / "family.txt"
    family.write_text(
        "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n", encoding="utf-8"
    )
    # A ValueError from inside the package is a fault too, not an input error.
    for error in (AssertionError, ValueError):
        broken = mock.Mock(side_effect=error("chain\narithmetic broke"))
        monkeypatch.setattr(cli, "excess_check", broken)
        code, out, err = invoke(
            capsys, "check", "--manifold", "s4", "--family", str(family)
        )
        assert code == 3
        assert out == ""
        assert err == f"internal error: {error.__name__}: chain arithmetic broke\n"
        assert "Traceback" not in err


def test_parse_decimal_accepts_signed_ascii_digits():
    assert parse_decimal("0") == 0
    assert parse_decimal("-12") == -12
    assert parse_decimal("+7") == 7
    assert parse_decimal("007") == 7


@pytest.mark.parametrize("text", NON_ASCII_OR_GROUPED + ("", "-", " 5", "5 ", "1e3", "0x10"))
def test_parse_decimal_rejects_everything_else(text):
    with pytest.raises(ValueError):
        parse_decimal(text)


@pytest.mark.parametrize("text", NON_ASCII_OR_GROUPED)
def test_family_file_rejects_non_ascii_integers_with_line(tmp_path, text):
    family = tmp_path / "family.txt"
    family.write_text(
        f"ambient: s4\n[surface]\ngenus: 1\neuler_number: {text}\nclass:\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as exc_info:
        read_family_file(str(family))
    assert exc_info.value.line == 4
    assert str(exc_info.value).startswith(f"{family}:4: field 'euler_number'")


@pytest.mark.parametrize("text", NON_ASCII_OR_GROUPED)
@pytest.mark.parametrize(
    "argv",
    [
        ("massey", "--genus"),
        ("cover", "--manifold", "s4", "--genus", "1", "--euler"),
        ("zerosum", "--vectors", "unused.txt", "--effort"),
    ],
)
def test_cli_integer_options_reject_non_ascii(capsys, argv, text):
    code, out, err = invoke(capsys, *argv, text)
    assert code == 2
    assert out == ""
    assert "invalid int value" in err


def test_no_assert_statements_in_package():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert offenders == []


PUBLIC_NAMES = {
    "excess_kit": [
        "ASSUMPTIONS", "BudgetReport", "CatalogError", "ConsistencyResult",
        "CoverProfile", "DimensionMismatch", "EffortExceeded", "EmptyFamily",
        "EulerTooSmall", "ExcessKitError", "Gf2Collection", "Gf2Vector",
        "HypothesisRecord", "InvalidGenus", "ManifoldProfile", "NegativeB2",
        "NotABasis", "NotAPlaneFamily", "NotInSpan", "NotModTwoNull",
        "ObstructionReport", "OddEulerNumber", "ParseError", "PlaneAuditReport",
        "ProofTrace", "SignClass", "SignatureExceedsRank", "SubsetCertificate",
        "SurfaceDatum", "SurfaceFamily", "TraceStep", "TubedSurface", "Verdict",
        "batch_check", "branched_double_cover", "budget_report",
        "bundle_to_surface", "check_hypotheses", "consistency_check",
        "coordinates", "excess_budget", "excess_check", "greedy_basis",
        "massey_admissible_set", "massey_check", "max_zero_sum_subset",
        "plane_bound", "plane_family_audit", "rank", "sign_class",
        "signature_defect", "tube", "validate_profile", "zero_sum_subcollection",
        "__version__",
    ],
    "excess_kit.cli": ["build_parser", "run", "main"],
    "excess_kit.covers": [
        "CoverProfile", "ConsistencyResult", "branched_double_cover",
        "cover_chain", "signature_defect", "consistency_check",
    ],
    "excess_kit.engine": [
        "Verdict", "TraceStep", "ProofTrace", "HypothesisRecord",
        "ObstructionReport", "PlaneAuditReport", "ASSUMPTIONS",
        "check_hypotheses", "excess_check", "plane_family_audit", "batch_check",
    ],
    "excess_kit.fileio": [
        "read_vector_file", "read_profile_file", "read_catalog_file",
        "builtin_catalog", "load_catalog", "resolve_profile", "read_family_file",
        "parse_decimal", "CATALOG_ENV_VAR",
    ],
    "excess_kit.gf2": [
        "Gf2Vector", "Gf2Collection", "SubsetCertificate", "rank", "greedy_basis",
        "coordinates", "zero_sum_subcollection", "max_zero_sum_subset",
        "EXHAUSTIVE_LIMIT", "DEFAULT_EFFORT_LIMIT",
    ],
    "excess_kit.manifolds": [
        "ManifoldProfile", "BudgetReport", "validate_profile", "excess_budget",
        "plane_bound", "budget_report",
    ],
    "excess_kit.reports": [
        "canonical_json", "report_document", "audit_document", "budget_document",
        "cover_document", "tube_document", "certificate_document",
        "render_report_text", "render_audit_text", "render_budget_text",
        "render_cover_text", "render_tube_text",
    ],
    "excess_kit.surfaces": [
        "SurfaceDatum", "SurfaceFamily", "TubedSurface", "SignClass", "tube",
        "sign_class", "massey_admissible_set", "massey_check", "bundle_to_surface",
    ],
}

# errors.py has no __all__; its public surface is the exception classes it defines.
ERROR_CLASSES = [
    "ExcessKitError", "ParseError", "CatalogError", "NotInSpan", "NotABasis",
    "EffortExceeded", "NegativeB2", "SignatureExceedsRank", "EmptyFamily",
    "InvalidGenus", "NotModTwoNull", "OddEulerNumber", "DimensionMismatch",
    "NotAPlaneFamily", "EulerTooSmall",
]


@pytest.mark.parametrize("module_name", sorted(PUBLIC_NAMES))
def test_public_names_are_pinned_and_resolve(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__ == PUBLIC_NAMES[module_name]
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_error_classes_are_pinned():
    from excess_kit import errors

    defined = [
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    ]
    assert defined == ERROR_CLASSES
