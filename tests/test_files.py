"""File formats: vectors, profiles, catalogs, families; strictness of parsing."""

from __future__ import annotations

import pickle
import re
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from excess_kit import fileio, reports
from excess_kit.engine import excess_check, plane_family_audit
from excess_kit.errors import (
    CatalogError, ExcessKitError, NegativeB2, ParseError, SignatureExceedsRank,
)
from excess_kit.fileio import (
    CATALOG_ENV_VAR,
    builtin_catalog,
    load_catalog,
    read_catalog_file,
    read_family_file,
    read_profile_file,
    read_vector_file,
    resolve_profile,
)
from excess_kit.gf2 import Gf2Vector
from excess_kit.manifolds import ManifoldProfile, validate_profile
from excess_kit.surfaces import SurfaceDatum, SurfaceFamily, tube
from helpers import LIMITS, invoke, write

# The integer digit cap at Python's default int/str limit.
CAP = LIMITS[0][1]


def assert_decode_error(err, path: str, line: int) -> None:
    assert err.value.path == path and err.value.line == line
    assert str(err.value).startswith(f"{path}:{line}: invalid UTF-8: ")


class TestVectorFile:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "v.txt", "# comment\n10\n\n01\n11\n")
        c = read_vector_file(path)
        assert len(c) == 3 and c.dim == 2
        assert [v.to01() for v in c] == ["10", "01", "11"]

    def test_empty_file(self, tmp_path):
        c = read_vector_file(write(tmp_path, "v.txt", "# nothing\n"))
        assert len(c) == 0 and c.dim == 0

    def test_bad_character(self, tmp_path):
        path = write(tmp_path, "v.txt", "10\n1x\n")
        with pytest.raises(ParseError) as err:
            read_vector_file(path)
        assert err.value.line == 2

    def test_ragged_lengths(self, tmp_path):
        path = write(tmp_path, "v.txt", "10\n011\n")
        with pytest.raises(ParseError) as err:
            read_vector_file(path)
        assert "length" in err.value.message

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_non_utf8_names_line(self, tmp_path, newline):
        data = newline.join([b"# vectors", b"10", b"0\xff"]) + newline
        path = write(tmp_path, "v.txt", data)
        with pytest.raises(ParseError) as err:
            read_vector_file(path)
        assert_decode_error(err, path, 3)


class TestProfileFile:
    GOOD = "name: demo\nsignature: 1\neuler_characteristic: 3\nb1_f2: 0\n"

    def test_good(self, tmp_path):
        p = read_profile_file(write(tmp_path, "p.txt", self.GOOD))
        assert (p.name, p.signature, p.euler_characteristic, p.b1_f2) == (
            "demo", 1, 3, 0,
        )

    def test_unknown_field(self, tmp_path):
        path = write(tmp_path, "p.txt", self.GOOD + "third_betti: 1\n")
        with pytest.raises(ParseError) as err:
            read_profile_file(path)
        assert "third_betti" in str(err.value) and err.value.line == 5

    def test_duplicate_field(self, tmp_path):
        path = write(tmp_path, "p.txt", self.GOOD + "name: again\n")
        with pytest.raises(ParseError):
            read_profile_file(path)

    def test_missing_field(self, tmp_path):
        path = write(tmp_path, "p.txt", "name: x\nsignature: 0\n")
        with pytest.raises(ParseError) as err:
            read_profile_file(path)
        assert "euler_characteristic" in str(err.value)

    def test_non_integer(self, tmp_path):
        path = write(
            tmp_path,
            "p.txt",
            "name: x\nsignature: one\neuler_characteristic: 2\nb1_f2: 0\n",
        )
        with pytest.raises(ParseError) as err:
            read_profile_file(path)
        assert err.value.line == 2

    def test_negative_b1(self, tmp_path):
        text = "name: x\nsignature: 0\neuler_characteristic: 4\nb1_f2: -1\n"
        path = write(tmp_path, "p.txt", text)
        catalog = write(tmp_path, "c.txt", "[profile]\n" + text)
        fault = "field 'b1_f2' must be nonnegative, got -1"
        with pytest.raises(ParseError) as err:
            read_profile_file(path)
        assert str(err.value) == f"{path}:4: {fault}"
        with pytest.raises(ParseError) as err:
            read_catalog_file(catalog)
        assert str(err.value) == f"{catalog}:5: {fault}"
        assert invoke("bound", "--manifold", path) == (2, "", f"{path}:4: {fault}\n")

    def test_invalid_profile_rejected_at_load(self, tmp_path):
        from excess_kit.errors import NegativeB2

        path = write(
            tmp_path,
            "p.txt",
            "name: x\nsignature: 0\neuler_characteristic: 1\nb1_f2: 0\n",
        )
        with pytest.raises(NegativeB2):
            read_profile_file(path)

    def test_invalid_profile_names_first_field_line(self, tmp_path):
        path = write(
            tmp_path,
            "p.txt",
            "# demo\n\nname: x\nsignature: 3\neuler_characteristic: 2\nb1_f2: 0\n",
        )
        with pytest.raises(SignatureExceedsRank) as err:
            read_profile_file(path)
        assert str(err.value).startswith(f"{path}:3: x: |signature| = 3")

    def test_non_utf8_names_line(self, tmp_path):
        path = write(
            tmp_path, "p.txt", b"name: d\xe9mo\nsignature: 1\neuler_characteristic: 3\nb1_f2: 0\n"
        )
        with pytest.raises(ParseError) as err:
            read_profile_file(path)
        assert_decode_error(err, path, 1)


class TestCatalog:
    def test_builtin_has_sphere(self):
        catalog = builtin_catalog()
        assert "s4" in catalog
        p = catalog["s4"]
        assert (p.signature, p.euler_characteristic, p.b1_f2) == (0, 2, 0)

    def test_catalog_file(self, tmp_path):
        path = write(
            tmp_path,
            "cat.txt",
            "[profile]\nname: a\nsignature: 0\neuler_characteristic: 2\nb1_f2: 0\n"
            "\n[profile]\nname: b\nsignature: 1\neuler_characteristic: 3\nb1_f2: 0\n",
        )
        catalog = read_catalog_file(path)
        assert sorted(catalog) == ["a", "b"]

    def test_duplicate_names_rejected(self, tmp_path):
        block = "[profile]\nname: a\nsignature: 0\neuler_characteristic: 2\nb1_f2: 0\n"
        with pytest.raises(ParseError):
            read_catalog_file(write(tmp_path, "cat.txt", block + block))

    def test_field_outside_block(self, tmp_path):
        with pytest.raises(ParseError):
            read_catalog_file(write(tmp_path, "cat.txt", "name: a\n"))

    INVALID = (
        "[profile]\nname: a\nsignature: 0\neuler_characteristic: 2\nb1_f2: 0\n"
        "\n# second\n[profile]\nname: bad\nsignature: 0\neuler_characteristic: 1\nb1_f2: 0\n"
    )

    def test_invalid_profile_names_header_line(self, tmp_path):
        path = write(tmp_path, "cat.txt", self.INVALID)
        with pytest.raises(NegativeB2) as err:
            read_catalog_file(path)
        assert str(err.value).startswith(f"{path}:8: bad: b2_f2 = ")

    def test_env_catalog_invalid_profile_names_header_line(self, tmp_path):
        path = write(tmp_path, "extra.txt", self.INVALID)
        with pytest.raises(NegativeB2) as err:
            load_catalog(env={CATALOG_ENV_VAR: path})
        assert str(err.value).startswith(f"{path}:8: bad: b2_f2 = ")

    def test_non_utf8_names_line(self, tmp_path):
        path = write(
            tmp_path,
            "cat.txt",
            b"[profile]\nname: a\nsignature: 0\neuler_characteristic: 2\nb1_f2: 0\xc3",
        )
        with pytest.raises(ParseError) as err:
            read_catalog_file(path)
        assert_decode_error(err, path, 5)

    def test_env_catalog_merges(self, tmp_path):
        path = write(
            tmp_path,
            "extra.txt",
            "[profile]\nname: extra\nsignature: 0\neuler_characteristic: 4\nb1_f2: 0\n",
        )
        catalog = load_catalog(env={CATALOG_ENV_VAR: path})
        assert "s4" in catalog and "extra" in catalog

    def test_env_catalog_collision(self, tmp_path):
        path = write(
            tmp_path,
            "extra.txt",
            "[profile]\nname: s4\nsignature: 0\neuler_characteristic: 2\nb1_f2: 0\n",
        )
        with pytest.raises(CatalogError):
            load_catalog(env={CATALOG_ENV_VAR: path})

    def test_env_catalog_missing_file(self):
        with pytest.raises(CatalogError):
            load_catalog(env={CATALOG_ENV_VAR: "/no/such/file"})

    def test_resolve_prefers_catalog_then_path(self, tmp_path):
        assert resolve_profile("s4").name == "s4"
        path = write(tmp_path, "p.txt", TestProfileFile.GOOD)
        assert resolve_profile(path).name == "demo"
        with pytest.raises(CatalogError):
            resolve_profile("nope")


class TestFamilyFile:
    def test_good(self, tmp_path):
        path = write(
            tmp_path,
            "f.txt",
            "# family\nambient: s4\n\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
            "\n[surface]\ngenus: 2\neuler_number: -4\nclass:\n",
        )
        ambient, family = read_family_file(path)
        assert ambient.name == "s4"
        assert family.ambient_dim == 0
        assert [(s.genus, s.euler_number) for s in family.members] == [
            (1, 2), (2, -4),
        ]

    def test_whitespace_around_keys_and_values_is_ignored(self, tmp_path):
        path = write(
            tmp_path,
            "f.txt",
            "ambient :s4\n [surface] \n\tgenus :  2\t\neuler_number\t:-4\nclass :\n",
        )
        _, family = read_family_file(path)
        assert [(s.genus, s.euler_number) for s in family.members] == [(2, -4)]

    def test_class_length_checked_against_ambient(self, tmp_path):
        profile = write(
            tmp_path,
            "amb.txt",
            "name: two\nsignature: 0\neuler_characteristic: 4\nb1_f2: 0\n",
        )
        good = write(
            tmp_path,
            "f.txt",
            f"ambient: {profile}\n[surface]\ngenus: 1\neuler_number: 2\nclass: 10\n",
        )
        ambient, family = read_family_file(good)
        assert family.members[0].mod2_class.to01() == "10"
        bad = write(
            tmp_path,
            "g.txt",
            f"ambient: {profile}\n[surface]\ngenus: 1\neuler_number: 2\nclass: 1\n",
        )
        with pytest.raises(ParseError) as err:
            read_family_file(bad)
        assert "length" in err.value.message

    def test_missing_ambient(self, tmp_path):
        path = write(
            tmp_path, "f.txt", "[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
        )
        with pytest.raises(ParseError) as err:
            read_family_file(path)
        assert "ambient" in str(err.value)

    def test_unknown_ambient(self, tmp_path):
        path = write(
            tmp_path, "f.txt", "ambient: ghost\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
        )
        with pytest.raises(ParseError):
            read_family_file(path)

    def test_no_surfaces(self, tmp_path):
        with pytest.raises(ParseError) as err:
            read_family_file(write(tmp_path, "f.txt", "ambient: s4\n"))
        assert "no [surface]" in str(err.value)

    def test_zero_genus_rejected(self, tmp_path):
        path = write(
            tmp_path, "f.txt", "ambient: s4\n[surface]\ngenus: 0\neuler_number: 2\nclass:\n"
        )
        with pytest.raises(ParseError) as err:
            read_family_file(path)
        assert "genus" in err.value.message

    def test_unknown_surface_field(self, tmp_path):
        path = write(
            tmp_path,
            "f.txt",
            "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\ncolor: red\n",
        )
        with pytest.raises(ParseError) as err:
            read_family_file(path)
        assert "color" in str(err.value)

    def test_parse_error_carries_path_and_line(self, tmp_path):
        path = write(
            tmp_path, "f.txt", "ambient: s4\n[surface]\ngenus: one\neuler_number: 2\nclass:\n"
        )
        with pytest.raises(ParseError) as err:
            read_family_file(path)
        assert err.value.path == path and err.value.line == 3
        assert str(err.value).startswith(f"{path}:3:")

    def test_non_utf8_names_line(self, tmp_path):
        path = write(
            tmp_path,
            "f.txt",
            b"ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass: \x80\n",
        )
        with pytest.raises(ParseError) as err:
            read_family_file(path)
        assert_decode_error(err, path, 5)

    def test_empty_ambient(self, tmp_path):
        path = write(
            tmp_path, "f.txt", "# family\nambient:\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
        )
        with pytest.raises(ParseError) as err:
            read_family_file(path)
        assert err.value.line == 2
        assert str(err.value) == f"{path}:2: field 'ambient' is empty"

    def test_class_not_a_bit_string(self, tmp_path):
        path = write(
            tmp_path, "f.txt", "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass: 12\n"
        )
        with pytest.raises(ParseError) as err:
            read_family_file(path)
        assert err.value.line == 5
        assert str(err.value) == f"{path}:5: field 'class' is not a bit string: '12'"

    def test_catalog_ambient_is_not_validated_again(self, tmp_path, monkeypatch):
        """Catalog entries are validated when the catalog loads, not per family."""
        catalog = load_catalog(env={})
        calls = []

        def counting(profile):
            calls.append(profile)
            return validate_profile(profile)

        monkeypatch.setattr(fileio, "validate_profile", counting)
        path = write(
            tmp_path, "f.txt", "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
        )
        ambient, _ = read_family_file(path, catalog)
        assert ambient is catalog["s4"]
        assert calls == []


# Characters that str.splitlines() treats as line ends but an editor does not.
NOT_LINE_BREAKS = ["\f", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineBreaks:
    """Only \\n, \\r\\n and \\r end a line; other separators stay in the line."""

    COMMENT = "# notes{}page two\n"

    @pytest.mark.parametrize("sep", NOT_LINE_BREAKS)
    def test_comment_with_separator_parses_everywhere(self, tmp_path, sep):
        comment = self.COMMENT.format(sep)
        profile = read_profile_file(
            write(
                tmp_path,
                "p.txt",
                "name: demo\n" + comment + "signature: 1\neuler_characteristic: 3\n"
                "b1_f2: 0\n",
            )
        )
        assert profile.name == "demo" and profile.signature == 1
        catalog = read_catalog_file(
            write(tmp_path, "cat.txt", "[profile]\n" + comment + TestProfileFile.GOOD)
        )
        assert sorted(catalog) == ["demo"]
        _, family = read_family_file(
            write(
                tmp_path,
                "f.txt",
                "ambient: s4\n" + comment + "[surface]\ngenus: 1\neuler_number: 2\nclass:\n",
            )
        )
        assert [(s.genus, s.euler_number) for s in family.members] == [(1, 2)]
        vectors = read_vector_file(write(tmp_path, "v.txt", "10\n" + comment + "01\n"))
        assert [v.to01() for v in vectors] == ["10", "01"]

    @pytest.mark.parametrize("sep", NOT_LINE_BREAKS)
    def test_fault_after_separator_names_editor_line(self, tmp_path, sep):
        path = write(
            tmp_path,
            "f.txt",
            f"ambient: s4\n[surface]\ngenus: 1\n# note{sep}\neuler_number: 2\ngenus: 1\n",
        )
        with pytest.raises(ParseError) as err:
            read_family_file(path)
        assert err.value.line == 6 and "duplicate field 'genus'" in err.value.message

    @pytest.mark.parametrize("sep", NOT_LINE_BREAKS)
    def test_decode_error_line_counts_only_line_breaks(self, tmp_path, sep):
        data = f"# a{sep}b\n10\n".encode("utf-8") + b"0\xff\n"
        path = write(tmp_path, "v.txt", data)
        with pytest.raises(ParseError) as err:
            read_vector_file(path)
        assert_decode_error(err, path, 3)


class TestFaultOrder:
    """Faults of line form come first, in file order; then the head fields;
    then the members, block by block.
    """

    def test_unknown_field_in_a_later_block_beats_a_bad_genus(self, tmp_path):
        path = write(
            tmp_path,
            "f.txt",
            "ambient: s4\n[surface]\ngenus: zero\neuler_number: 2\nclass:\n"
            "[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
            "[surface]\ngenus: 1\neuler_number: 2\nclass:\ncolour: red\n",
        )
        with pytest.raises(ParseError) as err:
            read_family_file(path)
        assert str(err.value) == f"{path}:14: unknown surface field 'colour'"

    def test_missing_colon_beats_an_earlier_class_length_fault(self, tmp_path):
        profile = write(
            tmp_path, "amb.txt", "name: two\nsignature: 0\neuler_characteristic: 4\nb1_f2: 0\n"
        )
        path = write(
            tmp_path,
            "f.txt",
            f"ambient: {profile}\n[surface]\ngenus: 1\neuler_number: 2\nclass: 1\n"
            "[surface]\ngenus 1\neuler_number: 2\nclass: 10\n",
        )
        with pytest.raises(ParseError) as err:
            read_family_file(path)
        assert str(err.value) == f"{path}:7: expected 'field: value', got 'genus 1'"

    def test_unknown_ambient_beats_a_bad_member(self, tmp_path):
        path = write(
            tmp_path, "f.txt", "ambient: ghost\n[surface]\ngenus: 0\neuler_number: x\nclass: 2\n"
        )
        with pytest.raises(ParseError) as err:
            read_family_file(path)
        assert str(err.value).startswith(f"{path}:1: profile reference 'ghost' is neither")

    def test_unknown_section_beats_a_catalog_head_field(self, tmp_path):
        path = write(
            tmp_path,
            "cat.txt",
            "name: early\n[profile]\nname: a\nsignature: 0\neuler_characteristic: 2\n"
            "b1_f2: 0\n[profiles]\n",
        )
        with pytest.raises(ParseError) as err:
            read_catalog_file(path)
        assert str(err.value) == f"{path}:7: unknown section '[profiles]'"

    def test_section_line_in_a_profile_file_is_a_line_without_a_colon(self, tmp_path):
        path = write(tmp_path, "p.txt", "# demo\n[profile]\n" + TestProfileFile.GOOD)
        with pytest.raises(ParseError) as err:
            read_profile_file(path)
        assert str(err.value) == f"{path}:2: expected 'field: value', got '[profile]'"


# The built-in catalog and a profile with b2_f2 = 2, so classes have length 2.
CATALOG = {**builtin_catalog(), "two": ManifoldProfile("two", 0, 4, 0)}


def plain_family(ambient: str, members, blank) -> str:
    """A family text in the plain layout.

    `blank` goes before every block, "\\n" or "", or is a list with one
    such entry per block.
    """
    blanks = [blank] * len(members) if isinstance(blank, str) else blank
    return f"ambient: {ambient}\n" + "".join(
        f"{before}[surface]\ngenus: {genus}\neuler_number: {euler}\n"
        + (f"class: {bits}\n" if bits else "class:\n")
        for before, (genus, euler, bits) in zip(blanks, members)
    )


# A blank line before block 2 only, of a family with three blocks or fewer.
MIXED = ["", "\n", ""]


class TestPlainLayoutFaults:
    """Value faults in every plain layout name their own line, as in any layout."""

    @pytest.fixture(
        params=[("\n", 13), ("", 10), (MIXED, 11)],
        ids=["blank-line-before-each-block", "no-blank-lines", "blank-line-before-block-2"],
    )
    def layout(self, request):
        """The layout's blank line before each block, and block 3's header line."""
        return request.param

    def fault(self, tmp_path, layout, ambient: str, third) -> tuple[str, str]:
        """(path, message) for a family whose third block is `third`."""
        good = ("1", "4", "10" if ambient == "two" else "")
        path = write(tmp_path, "f.txt", plain_family(ambient, [good, good, third], layout[0]))
        with pytest.raises(ParseError) as err:
            read_family_file(path, CATALOG)
        return path, str(err.value)

    def test_genus_zero_in_block_three(self, tmp_path, layout):
        path, message = self.fault(tmp_path, layout, "s4", ("0", "4", ""))
        assert message == f"{path}:{layout[1] + 1}: field 'genus' must be >= 1, got 0"

    def test_long_euler_number(self, tmp_path, layout):
        path, message = self.fault(tmp_path, layout, "s4", ("1", "9" * (CAP + 1), ""))
        assert message == (
            f"{path}:{layout[1] + 2}: field 'euler_number' has more than {CAP} digits"
        )

    def test_class_of_the_wrong_length(self, tmp_path, layout):
        path, message = self.fault(tmp_path, layout, "two", ("1", "4", "101"))
        assert message == (
            f"{path}:{layout[1] + 3}: field 'class' has length 3, ambient 'two' needs 2"
        )

    def test_unknown_ambient(self, tmp_path, layout):
        path, message = self.fault(tmp_path, layout, "ghost", ("1", "4", ""))
        assert message == (
            f"{path}:1: profile reference 'ghost' is neither a catalog name nor an existing file"
        )


# Integer field values: in range or not, signed, zero, and past the digit cap.
INTS = st.one_of(
    st.integers(-20, 20).map(str),
    st.integers(0, 20).map(lambda n: f"+{n}"),
    st.sampled_from(["0", "-0", "+0", "007", "9" * (CAP + 1), "-" + "1" * (CAP + 1)]),
)


@st.composite
def plain_texts(draw) -> str:
    """Plain-layout family texts, valid or with faults of value only.

    Each block has a blank line before it or not, drawn per block. Classes
    may have the wrong length for the ambient ("s4" needs 0 bits, "two"
    needs 2) and the ambient may be unknown. An empty class is
    written `class:` or, as the benchmark's generator writes it, `class: `.
    """
    members = draw(
        st.lists(st.tuples(INTS, INTS, st.text("01", max_size=3)), min_size=1, max_size=4)
    )
    ambient = draw(st.sampled_from(["s4", "two", "ghost"]))
    blanks = [draw(st.sampled_from(["\n", ""])) for _ in members]
    text = plain_family(ambient, members, blanks)
    if draw(st.booleans()):
        text = text.replace("\nclass:\n", "\nclass: \n")
    return text


MUTATIONS = (
    "crlf", "cr", "trailing-space", "leading-space", "tab", "comment", "non-ascii-digit",
    "no-final-newline", "reorder", "duplicate", "two-blank-lines",
)


@st.composite
def near_plain_texts(draw, kind: str) -> str:
    """A plain text with one edit of the given kind, which leaves the plain layout."""
    lines = draw(plain_texts()).split("\n")[:-1]
    ends = ["\n"] * len(lines)
    i = draw(st.integers(0, len(lines) - 1))
    headers = [j for j, line in enumerate(lines) if line == "[surface]"]
    block = draw(st.sampled_from(headers))
    if kind == "crlf":
        ends[i] = "\r\n"
    elif kind == "cr":
        ends[i] = "\r"
    elif kind == "trailing-space":
        # `class:` with a space after it is still plain.
        lines[i] += "  " if lines[i] == "class:" else " "
    elif kind == "leading-space":
        lines[i] = " " + lines[i]
    elif kind == "tab":
        pos = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:pos] + "\t" + lines[i][pos:]
    elif kind == "comment":
        lines.insert(i, "# note")
    elif kind == "non-ascii-digit":
        j = block + draw(st.sampled_from((1, 2)))
        lines[j] = re.sub("[0-9]", "\u0663", lines[j], count=1)
    elif kind == "no-final-newline":
        ends[-1] = ""
    elif kind == "reorder":
        j, k = draw(st.sampled_from([(1, 2), (1, 3), (2, 3)]))
        lines[block + j], lines[block + k] = lines[block + k], lines[block + j]
    elif kind == "duplicate":
        j = draw(st.sampled_from([0, block + 1, block + 2, block + 3]))
        lines.insert(j, lines[j])
    else:
        lines[block:block] = ["", ""]
    ends += ["\n"] * (len(lines) - len(ends))
    return "".join(line + end for line, end in zip(lines, ends))


def family_outcome(path: str):
    """read_family_file's (ambient, family), or the type and text of its fault."""
    try:
        return read_family_file(path, CATALOG)
    except ParseError as exc:
        return type(exc), str(exc)


class TestPlainLayout:
    """The plain-layout fast path gives the line scan's fields, or nothing."""

    @given(text=plain_texts())
    def test_plain_text_gives_the_scan_fields(self, text):
        ambient, blocks = fileio._plain_family(text)
        scan_ambient, scan_blocks = fileio._scan_family("f.txt", text)
        assert ambient == scan_ambient
        assert [(genus, euler, bits) for genus, euler, bits, _ in blocks] == [
            (fields["genus"][1], fields["euler_number"][1], fields["class"][1])
            for _, fields in scan_blocks
        ]

    @pytest.mark.parametrize("kind", MUTATIONS)
    @given(data=st.data())
    def test_near_plain_text_is_left_to_the_scan(self, kind, data):
        assert fileio._plain_family(data.draw(near_plain_texts(kind))) is None

    @pytest.mark.parametrize("kind", ("plain",) + MUTATIONS)
    @given(data=st.data())
    def test_values_and_faults_do_not_depend_on_the_fast_path(
        self, tmp_path_factory, kind, data
    ):
        text = data.draw(plain_texts() if kind == "plain" else near_plain_texts(kind))
        path = write(tmp_path_factory.mktemp("plain"), "f.txt", text)
        fast = family_outcome(path)
        with mock.patch.object(fileio, "_plain_family", lambda text: None):
            assert family_outcome(path) == fast


def checked_outcome(path: str):
    """family_outcome(path), which must equal the outcome of the checked loop alone."""
    outcome = family_outcome(path)
    with mock.patch.object(fileio, "_plain_columns", lambda blocks, dim: None):
        assert family_outcome(path) == outcome
    return outcome


class TestPlainValues:
    """The plain value step gives the checked loop's members, or leaves the fault to it."""

    @pytest.fixture(params=["\n", ""], ids=["blank-line-before-each-block", "no-blank-lines"])
    def blank(self, request):
        return request.param

    @given(text=plain_texts())
    def test_values_and_faults_do_not_depend_on_the_value_step(self, tmp_path_factory, text):
        checked_outcome(write(tmp_path_factory.mktemp("plain"), "f.txt", text))

    @pytest.mark.parametrize(
        "sign, over",
        [("-", 0), ("+", 0), ("", 1), ("-", 1)],
        ids=["minus-cap-digits", "plus-cap-digits", "cap-plus-1-digits", "minus-cap-plus-1-digits"],
    )
    def test_euler_numbers_at_and_one_past_the_cap(self, tmp_path, blank, cap, sign, over):
        euler = sign + "7" * (cap + over)
        path = write(tmp_path, "f.txt", plain_family("s4", [("1", "4", ""), ("2", euler, "")], blank))
        outcome = checked_outcome(path)
        if not over:
            assert outcome[1].euler_numbers() == (4, int(euler))
        else:
            line = 10 if blank else 8  # block 2's euler_number
            assert outcome == (
                ParseError, f"{path}:{line}: field 'euler_number' has more than {cap} digits"
            )

    def test_a_repeated_class_text_gives_the_checked_members(self, tmp_path, blank):
        rows = [("1", "4", "10"), ("2", "-3", "01"), ("3", "5", "10"), ("1", "0", "10")]
        path = write(tmp_path, "f.txt", plain_family("two", rows, blank))
        _, family = checked_outcome(path)
        assert [(s.genus, s.euler_number, s.mod2_class.to01()) for s in family.members] == [
            (1, 4, "10"), (2, -3, "01"), (3, 5, "10"), (1, 0, "10"),
        ]


class TestWhenTheScanRuns:
    """A valid plain file is not scanned; a doubted plain file or any other is scanned once."""

    @pytest.fixture(
        params=["\n", "", MIXED],
        ids=["blank-line-before-each-block", "no-blank-lines", "blank-line-before-block-2"],
    )
    def blank(self, request):
        return request.param

    def scanned(self, path: str):
        """(number of _scan calls, family_outcome(path))."""
        with mock.patch.object(fileio, "_scan", wraps=fileio._scan) as scan:
            outcome = family_outcome(path)
        return scan.call_count, outcome

    def test_a_valid_plain_file_is_not_scanned(self, tmp_path, blank):
        rows = [("1", "4", "10"), ("2", "-3", "01")]
        path = write(tmp_path, "f.txt", plain_family("two", rows, blank))
        calls, outcome = self.scanned(path)
        assert calls == 0 and outcome == checked_outcome(path)
        assert outcome[1].euler_numbers() == (4, -3)

    @pytest.mark.parametrize(
        "second",
        [
            ("0", "4", ""),
            ("-1", "4", ""),
            ("+0", "4", ""),
            ("1", "9" * (CAP + 1), ""),
            ("1", "4", "1"),
            ("1", "-" + "7" * CAP, ""),
        ],
        ids=[
            "genus-0",
            "genus-minus-1",
            "genus-plus-0",
            "4001-digit-euler",
            "wrong-class-length",
            "signed-4000-digit-euler",
        ],
    )
    def test_a_doubted_plain_file_is_scanned_once(self, tmp_path, blank, second):
        path = write(tmp_path, "f.txt", plain_family("s4", [("1", "4", ""), second], blank))
        calls, outcome = self.scanned(path)
        assert calls == 1 and outcome == checked_outcome(path)

    def test_a_crlf_file_is_scanned_once(self, tmp_path):
        text = plain_family("two", [("1", "4", "10"), ("2", "-3", "01")], "\n")
        path = write(tmp_path, "f.txt", text.replace("\n", "\r\n").encode("ascii"))
        calls, (_, family) = self.scanned(path)
        assert calls == 1 and family.euler_numbers() == (4, -3)


@st.composite
def readable_plain_texts(draw) -> str:
    """Plain-layout family texts that the fast step reads, half of them plane families.

    A plane family has genus 1 and |e| > 2 throughout, so the audit runs to
    its end; the other texts have genera from 1 to 20 and small Euler
    numbers, so the audit mostly refuses them. Classes have the ambient's
    length.
    """
    ambient, dim = draw(st.sampled_from([("s4", 0), ("two", 2)]))
    if draw(st.booleans()):
        genus = st.just("1")
        euler = st.integers(3, 12) | st.integers(-12, -3)
    else:
        genus = st.integers(1, 20).map(str) | st.sampled_from(["+1", "007"])
        euler = st.integers(-20, 20)
    members = draw(
        st.lists(
            st.tuples(genus, euler.map(str), st.text("01", min_size=dim, max_size=dim)),
            min_size=1,
            max_size=6,
        )
    )
    return plain_family(ambient, members, [draw(st.sampled_from(["\n", ""])) for _ in members])


def consumer_outcomes(ambient: ManifoldProfile, family: SurfaceFamily):
    """The family's length, Euler tuple and tube, then its check, audit and exact audit documents.

    A document whose build raises gives the fault's type and message instead.
    """

    def document(report, build):
        try:
            return reports.canonical_json(build(report()))
        except ExcessKitError as exc:
            return type(exc), str(exc)

    return (
        len(family),
        family.euler_numbers(),
        tube(family),
        document(lambda: excess_check(ambient, family), reports.report_document),
        document(lambda: plane_family_audit(ambient, family), reports.audit_document),
        document(
            lambda: plane_family_audit(ambient, family, use_exact=True), reports.audit_document
        ),
    )


def checked_family(path: str, text: str, ambient: ManifoldProfile) -> SurfaceFamily:
    """The values of the scan and the checked loop, as a family built from members.

    The reference family goes through the public constructor, so a family
    read from columns is compared with the member-built form.
    """
    columns = fileio._checked_columns(path, ambient, fileio._scan_family(path, text)[1])
    dim = ambient.b2_f2
    classes = [Gf2Vector(dim, mask) for mask in columns._masks]
    members = tuple(map(SurfaceDatum, columns._genera, columns._eulers, classes))
    return SurfaceFamily(dim, members)


# Rewrites of a plain family text into layouts that the scan reads. Each
# assumes a blank line before each block and a first block of genus 1 and
# Euler number 4.
SCANNED_LAYOUTS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "comment": lambda text: text.replace("\n", "\n# a comment\n", 1),
    "reordered": lambda text: text.replace(
        "genus: 1\neuler_number: 4\n", "euler_number: 4\ngenus: 1\n", 1
    ),
    "spaces": lambda text: text.replace("\n[surface]\n", "\n  [surface]  \n", 1),
}
LAYOUTS = {"plain": lambda text: text, **SCANNED_LAYOUTS}
PLANE_ROWS = [("1", "4", "10"), ("1", "6", "01"), ("1", "-5", "11"), ("1", "8", "10")]
PLANE_ROWS += [("1", "10", "01")]


def layout_file(tmp_path, layout: str) -> tuple[str, str]:
    """(path, text) of PLANE_ROWS in the given layout; only the plain one takes the fast step."""
    text = LAYOUTS[layout](plain_family("two", PLANE_ROWS, "\n"))
    assert (fileio._plain_family(text) is None) == (layout != "plain")
    return write(tmp_path, "f.txt", text.encode("ascii")), text


class TestColumnFamily:
    """A family file's family holds columns; it reads as the member-built family."""

    @given(text=readable_plain_texts())
    def test_the_column_family_agrees_with_the_checked_family(self, tmp_path_factory, text):
        path = str(tmp_path_factory.mktemp("plain") / "f.txt")
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        ambient, family = read_family_file(path, CATALOG)
        checked = checked_family(path, text, ambient)
        expected = consumer_outcomes(ambient, checked)
        assert "members" not in vars(family)
        assert consumer_outcomes(ambient, family) == expected
        assert "members" not in vars(family)
        assert family == checked and hash(family) == hash(checked)
        assert repr(family) == repr(checked) and family.members == checked.members
        assert consumer_outcomes(ambient, family) == expected

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_reading_checking_and_auditing_build_no_member(self, tmp_path, monkeypatch, layout):
        path, text = layout_file(tmp_path, layout)
        built = []
        init = SurfaceDatum.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SurfaceDatum, "__init__", counted)
        ambient, family = read_family_file(path, CATALOG)
        audit = plane_family_audit(ambient, family)
        assert audit.zero_sum_indices is not None  # the audit checked a subfamily
        documents = consumer_outcomes(ambient, family)
        assert built == []
        twin = checked_family(path, text, ambient)
        assert len(built) == len(PLANE_ROWS)
        assert consumer_outcomes(ambient, twin) == documents

    @pytest.mark.parametrize("layout", SCANNED_LAYOUTS)
    def test_a_scanned_family_reads_as_the_member_built_family(self, tmp_path, layout):
        path, text = layout_file(tmp_path, layout)
        ambient, family = read_family_file(path, CATALOG)
        twin = checked_family(path, text, ambient)
        assert "members" not in vars(family)
        assert family == twin and hash(family) == hash(twin) and repr(family) == repr(twin)
        assert family.members == twin.members
        copy = pickle.loads(pickle.dumps(family))
        assert copy == twin and hash(copy) == hash(twin) and copy.members == twin.members
