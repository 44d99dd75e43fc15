"""Exit-code integrity, strict integer input, and no bare asserts in the package."""

from __future__ import annotations

import ast
import pathlib

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
    def broken(*args, **kwargs):
        raise AssertionError("chain\narithmetic broke")

    monkeypatch.setattr(cli, "excess_check", broken)
    family = tmp_path / "family.txt"
    family.write_text(
        "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n", encoding="utf-8"
    )
    code, out, err = invoke(
        capsys, "check", "--manifold", "s4", "--family", str(family)
    )
    assert code == 3
    assert out == ""
    assert err == "internal error: AssertionError: chain arithmetic broke\n"
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
