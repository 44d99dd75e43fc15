"""Exit codes, strict input, names, README, launcher, and the package and test source scans."""

from __future__ import annotations

import ast
import importlib
import importlib.metadata
import pathlib
import re
from unittest import mock

import pytest

import excess_kit
from excess_kit import cli, engine
from excess_kit.errors import ParseError
from excess_kit.fileio import parse_decimal, read_family_file
from helpers import invoke, write

NON_ASCII_OR_GROUPED = ("١٢", "５", "1_000")

SRC = pathlib.Path(excess_kit.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TESTS = ROOT / "tests"


def test_unexpected_exception_exits_three_with_one_line(monkeypatch, tmp_path):
    family = write(
        tmp_path, "family.txt", "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
    )
    # A ValueError from inside the package is a fault too, not an input error.
    for error in (AssertionError, ValueError):
        broken = mock.Mock(side_effect=error("chain\narithmetic broke"))
        monkeypatch.setattr(engine, "excess_check", broken)
        code, out, err = invoke("check", "--manifold", "s4", "--family", family)
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
    family = write(
        tmp_path, "family.txt", f"ambient: s4\n[surface]\ngenus: 1\neuler_number: {text}\nclass:\n"
    )
    with pytest.raises(ParseError) as exc_info:
        read_family_file(family)
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
def test_cli_integer_options_reject_non_ascii(argv, text):
    code, out, err = invoke(*argv, text)
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


# Iterators of unknown length: tuple() over one allocates a guessed length
# and resizes the result to fit (see the package docstring).
_UNSIZED_CALLS = {"map", "filter", "zip", "compress"}


def tuple_over_iterator_lines(source: str) -> list[int]:
    """Lines of `tuple(...)` calls whose argument is a generator or an unsized iterator."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and len(node.args) == 1
        ):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.GeneratorExp) or (
            isinstance(arg, ast.Call)
            and getattr(arg.func, "id", getattr(arg.func, "attr", None)) in _UNSIZED_CALLS
        ):
            lines.append(node.lineno)
    return lines


def test_no_tuple_built_from_a_generator_in_package():
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in tuple_over_iterator_lines(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_the_tuple_scan_finds_generators_and_unsized_iterators():
    source = (
        "tuple(x for x in y)\n"
        "tuple(map(int, y))\n"
        "tuple(itertools.compress(y, z))\n"
        "tuple([x for x in y])\n"
        "tuple(list(map(int, y)))\n"
        "tuple(sorted(y))\n"
    )
    assert tuple_over_iterator_lines(source) == [1, 2, 3]


def test_no_test_file_imports_conftest_or_a_test_module():
    # Two test directories each have a conftest, so `conftest` names
    # whichever pytest loaded last; shared code lives in helpers.py.
    offenders = []
    for path in sorted(TESTS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno}"
                for name in names
                if name == "conftest" or name.startswith("test_")
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


def test_readme_library_example_runs_as_written():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", text, re.M | re.S)
    assert block is not None
    exec(compile(block[1], f"{README}:Library", "exec"), {})


def test_the_console_script_runs_cli_main():
    # CI runs the installed launcher only for --help and one usage error;
    # every other command reaches cli.main in process or through -m.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"excess-kit": "excess_kit.cli:main"}
    entry = importlib.metadata.EntryPoint(
        name="excess-kit", value=scripts["excess-kit"], group="console_scripts"
    )
    assert entry.load() is cli.main
