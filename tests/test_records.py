"""The records built per member or per trace step, and the column-built family.

Gf2Vector, SurfaceDatum and TraceStep are frozen dataclasses whose behaviour
is pinned here against a plain ``@dataclass(frozen=True)`` twin with the
same name and fields: construction, the checks and their messages, the
frozen guard, eq, hash, repr, replace, fields, pickle and deepcopy. Every
package dataclass declared with ``init=False`` (a written-out constructor)
must be one of them. A SurfaceFamily built from its columns is pinned the
same way against its member-built twin, before and after its members are
built.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import inspect
import pathlib
import pickle

import pytest

import excess_kit
from excess_kit.engine import TraceStep
from excess_kit.errors import DimensionMismatch, EmptyFamily, InvalidGenus
from excess_kit.gf2 import Gf2Vector
from excess_kit.surfaces import SurfaceDatum, SurfaceFamily

FIELDS = {
    Gf2Vector: ("dim", "bits"),
    SurfaceDatum: ("genus", "euler_number", "mod2_class"),
    TraceStep: ("label", "lhs", "rel", "rhs", "anchor"),
}

# Field values of valid records, several per type, some equal to each other.
VALUES = {
    Gf2Vector: [(0, 0), (3, 5), (3, 5), (3, 4), (4, 5), (70, 1 << 69)],
    SurfaceDatum: [
        (1, 0, Gf2Vector(0)),
        (2, -6, Gf2Vector(2, 3)),
        (2, -6, Gf2Vector(2, 3)),
        (2, -6, Gf2Vector(2, 1)),
        (3, 10**50, Gf2Vector(2, 3)),
    ],
    TraceStep: [
        ("tubed-genus", 3, "=", 3, "tubing-additivity"),
        ("tubed-genus", 3, "=", 3, "tubing-additivity"),
        ("excess-vs-budget", 8, "<=", 9, "excess-bound"),
        ("excess-vs-budget", 9, ">=", 8, "excess-bound"),
        ("excess-vs-budget", -(10**40), "<=", 0, "excess-bound"),
    ],
}

TYPES = list(FIELDS)


def twin(cls):
    """A plain frozen dataclass with the same name, fields and defaults as cls."""
    spec = [
        (f.name, f.type, dataclasses.field(default=f.default))
        if f.default is not dataclasses.MISSING
        else (f.name, f.type)
        for f in dataclasses.fields(cls)
    ]
    made = dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
    made.__qualname__ = cls.__qualname__
    return made


def records(cls):
    return [cls(*values) for values in VALUES[cls]]


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    for values in VALUES[cls]:
        positional = cls(*values)
        keyword = cls(**dict(zip(FIELDS[cls], values)))
        assert positional == keyword
        assert tuple(getattr(positional, name) for name in FIELDS[cls]) == values
        assert tuple(vars(positional)) == FIELDS[cls]


def written_out_constructors(source: str) -> list[str]:
    """Names of the classes in source decorated ``@dataclass(..., init=False)``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "dataclass" and any(
                keyword.arg == "init"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
                for keyword in decorator.keywords
            ):
                names.append(node.name)
    return names


def test_the_constructor_scan_finds_both_decorator_spellings():
    source = (
        "@dataclass(frozen=True, init=False)\nclass A: pass\n"
        "@dataclasses.dataclass(init=False)\nclass B: pass\n"
        "@dataclass(frozen=True)\nclass C: pass\n"
        "@dataclass(init=True)\nclass D: pass\n"
        "@dataclass\nclass E: pass\n"
    )
    assert written_out_constructors(source) == ["A", "B"]


def test_every_written_out_constructor_is_pinned_against_its_twin():
    package = pathlib.Path(excess_kit.__file__).parent
    pinned = {(cls.__module__, cls.__qualname__) for cls in FIELDS}
    found = {
        (f"excess_kit.{path.stem}", name)
        for path in sorted(package.glob("*.py"))
        for name in written_out_constructors(path.read_text(encoding="utf-8"))
    }
    assert found <= pinned


def test_gf2vector_bits_default_to_zero():
    assert Gf2Vector(4) == Gf2Vector(4, 0) == Gf2Vector(dim=4)
    assert Gf2Vector(4).bits == 0
    assert Gf2Vector(0).to01() == ""


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_constructor_parameters(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == list(FIELDS[cls])
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    assert defaults == ({"bits": 0} if cls is Gf2Vector else {})


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Gf2Vector(-1), ValueError, "dim must be nonnegative"),
        (lambda: Gf2Vector(-1, 5), ValueError, "dim must be nonnegative"),
        (lambda: Gf2Vector(3, 8), ValueError, "bits out of range for dimension 3"),
        (lambda: Gf2Vector(3, -1), ValueError, "bits out of range for dimension 3"),
        (lambda: Gf2Vector(0, 1), ValueError, "bits out of range for dimension 0"),
        (
            lambda: SurfaceDatum(0, 2, Gf2Vector(0)),
            InvalidGenus,
            "nonorientable genus must be >= 1, got 0",
        ),
        (
            lambda: SurfaceDatum(genus=-7, euler_number=0, mod2_class=Gf2Vector(1)),
            InvalidGenus,
            "nonorientable genus must be >= 1, got -7",
        ),
        (lambda: TraceStep("x", 1, "<", 2, "a"), ValueError, "unknown relation '<'"),
        (lambda: TraceStep("x", 1, "==", 1, "a"), ValueError, "unknown relation '=='"),
    ],
)
def test_checks_raise_the_same_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_a_valid_genus_with_no_other_check():
    # SurfaceDatum checks the genus only; its other fields are stored as given.
    datum = SurfaceDatum(1, -(10**60), Gf2Vector(5, 31))
    assert datum.euler_number == -(10**60)
    assert datum.euler_characteristic == 1


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_are_refused(cls):
    record = records(cls)[1]
    for name in FIELDS[cls]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.extra = 1
    assert cls(*VALUES[cls][1]) == record


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_eq_hash_repr_match_a_plain_frozen_dataclass(cls):
    plain = twin(cls)
    ours = records(cls)
    theirs = [plain(*values) for values in VALUES[cls]]
    for a, ta in zip(ours, theirs):
        assert repr(a) == repr(ta)
        assert hash(a) == hash(ta)
        for b, tb in zip(ours, theirs):
            assert (a == b) is (ta == tb)
            assert (a != b) is (ta != tb)
        assert a != ta
        assert (a == object()) is False
    assert len(set(ours)) == len(set(theirs))


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_replace_and_fields(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]
    first, second = VALUES[cls][0], VALUES[cls][-1]
    record = cls(*first)
    changed = dataclasses.replace(record, **dict(zip(FIELDS[cls], second)))
    assert type(changed) is cls
    assert changed == cls(*second)
    assert record == cls(*first)
    assert dataclasses.replace(record) == record
    assert dataclasses.asdict(record) == dataclasses.asdict(twin(cls)(*first))


@pytest.mark.parametrize(
    "record, change, error, message",
    [
        (Gf2Vector(3, 5), {"bits": 8}, ValueError, "bits out of range for dimension 3"),
        (Gf2Vector(3, 5), {"dim": -2}, ValueError, "dim must be nonnegative"),
        (
            SurfaceDatum(2, 4, Gf2Vector(0)),
            {"genus": 0},
            InvalidGenus,
            "nonorientable genus must be >= 1, got 0",
        ),
        (TraceStep("x", 1, "=", 1, "a"), {"rel": "!="}, ValueError, "unknown relation '!='"),
    ],
)
def test_replace_runs_the_checks(record, change, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        dataclasses.replace(record, **change)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_pickle_and_deepcopy_round_trip(cls):
    for record in records(cls):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is cls
            assert back == record and hash(back) == hash(record)
            assert vars(back) == vars(record)
        clone = copy.deepcopy(record)
        assert type(clone) is cls
        assert clone == record and repr(clone) == repr(record)
        assert copy.copy(record) == record
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(clone, FIELDS[cls][0], None)


# A family built from its genus, Euler and class-mask columns, as the plain
# family reader and the plane audit build it, against its member-built twin.
COLUMNS = (3, (1, 2, 1), (4, -6, 0), (0b101, 0b011, 0b101))


def column_family() -> SurfaceFamily:
    return SurfaceFamily._from_columns(*COLUMNS)


def member_family() -> SurfaceFamily:
    dim, genera, eulers, masks = COLUMNS
    members = tuple(map(SurfaceDatum, genera, eulers, (Gf2Vector(dim, m) for m in masks)))
    return SurfaceFamily(dim, members)


def test_a_column_family_leaves_its_members_until_asked():
    family = column_family()
    assert "members" not in vars(family)
    assert len(family) == 3 and family.euler_numbers() == (4, -6, 0)
    assert "members" not in vars(family)
    members = family.members
    assert members == member_family().members
    assert vars(family)["members"] is members and family.members is members
    # Members with the same mask share one class vector.
    assert members[0].mod2_class is members[2].mod2_class


def test_a_column_family_matches_its_member_built_twin():
    ours, twin_family = column_family(), member_family()
    assert ours == twin_family and twin_family == ours
    assert hash(ours) == hash(twin_family)
    assert repr(ours) == repr(twin_family)
    assert ours != SurfaceFamily._from_columns(3, (1, 2, 1), (4, -6, 2), (0b101, 0b011, 0b101))
    assert tuple(f.name for f in dataclasses.fields(ours)) == ("ambient_dim", "members")
    assert dataclasses.asdict(column_family()) == dataclasses.asdict(twin_family)
    changed = dataclasses.replace(column_family(), members=twin_family.members[:1])
    assert type(changed) is SurfaceFamily
    assert changed == SurfaceFamily(3, twin_family.members[:1]) and len(changed) == 1
    assert dataclasses.replace(column_family()) == twin_family


def test_a_column_family_is_frozen():
    family = column_family()
    for name in ("ambient_dim", "members", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(family, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(family, "members")
    assert "members" not in vars(family) and family == member_family()
    with pytest.raises(AttributeError, match="^'SurfaceFamily' object has no attribute 'extra'$"):
        family.extra


@pytest.mark.parametrize("materialized", [False, True], ids=["columns-only", "members-built"])
def test_a_column_family_pickles_and_deepcopies(materialized):
    # Pickle and copy carry the instance dict as it stands: a column-only
    # family stays column-only, and a materialized one keeps its members.
    family = column_family()
    if materialized:
        family.members
    state = set(vars(family))
    assert ("members" in state) is materialized
    copies = [pickle.loads(pickle.dumps(family, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(family), copy.deepcopy(family)]
    for clone in copies:
        assert type(clone) is SurfaceFamily
        assert set(vars(clone)) == state
        assert clone.euler_numbers() == family.euler_numbers() and len(clone) == len(family)
        assert clone == member_family() and member_family() == clone
        assert clone == family and hash(clone) == hash(member_family())
        assert repr(clone) == repr(member_family())
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.members = ()


@pytest.mark.parametrize(
    "columns, error, message",
    [
        ((0, (), (), ()), EmptyFamily, "a surface family needs at least one member"),
        (
            (2, (1, 0, 3), (4, 4, 4), (0, 1, 2)),
            InvalidGenus,
            "nonorientable genus must be >= 1, got 0",
        ),
        (
            (2, (1, 1), (4, 4), (0b11, 0b100)),
            DimensionMismatch,
            "a class mask does not fit the family ambient dimension 2",
        ),
        (
            (0, (1,), (4,), (1,)),
            DimensionMismatch,
            "a class mask does not fit the family ambient dimension 0",
        ),
    ],
    ids=["empty", "genus-0", "mask-wider-than-ambient", "mask-in-dimension-0"],
)
def test_the_column_constructor_runs_the_family_checks(columns, error, message):
    with pytest.raises(error) as info:
        SurfaceFamily._from_columns(*columns)
    assert type(info.value) is error
    assert str(info.value) == message
