"""Document builders and canonical serialization."""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excess_kit.covers import branched_double_cover, consistency_check
from excess_kit.engine import excess_check
from excess_kit.gf2 import Gf2Vector, SubsetCertificate
from excess_kit.manifolds import ManifoldProfile
from excess_kit.reports import (
    canonical_json,
    certificate_document,
    cover_document,
    report_document,
    tube_document,
)
from excess_kit.surfaces import SurfaceDatum, SurfaceFamily, tube

S4 = ManifoldProfile("s4", 0, 2, 0)

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=50)

# Text the escaper must get right besides arbitrary characters: quotes,
# backslashes, control characters, non-ASCII (astral too), lone surrogates.
TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\\x00\x08\n\x1f\x7f\xe9\u2028\U0001f600\ud800\udfff'),
    ),
    max_size=8,
)


class _Str(str):
    pass


class _Int(int):
    pass


class _Level(enum.IntEnum):
    LOW = -7
    ZERO = 0
    HIGH = 12


class _Dict(dict):
    pass


class _List(list):
    pass


# The writer inlines values whose type is exactly str or int; subclasses of
# either, an IntEnum and bools (an int subclass too) take the general path.
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**3999), 10**3999),
    TEXT,
    TEXT.map(_Str),
    st.integers().map(_Int),
    st.sampled_from(_Level),
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(_List),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(TEXT, children, max_size=4).map(_Dict),
        st.dictionaries(TEXT.map(_Str), children, max_size=4).map(OrderedDict),
    ),
    max_leaves=12,
)
FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats())


@st.composite
def buried(draw, value, min_depth: int, max_depth: int, kinds=("dict", "list", "tuple")):
    """`value` inside min_depth..max_depth containers, each with a few siblings."""
    doc = draw(value)
    for _ in range(draw(st.integers(min_depth, max_depth))):
        kind = draw(st.sampled_from(kinds))
        siblings = draw(st.lists(TREES, max_size=2))
        if kind == "dict":
            values = [doc, *siblings]
            keys = draw(st.lists(TEXT, min_size=len(values), max_size=len(values), unique=True))
            doc = dict(zip(keys, values))
        else:
            siblings.insert(draw(st.integers(0, len(siblings))), doc)
            doc = siblings if kind == "list" else tuple(siblings)
    return doc


def report_for(g: int, e: int):
    fam = SurfaceFamily(
        0, (SurfaceDatum(genus=g, euler_number=e, mod2_class=Gf2Vector.zero(0)),)
    )
    return excess_check(S4, fam)


def test_canonical_json_rejects_floats():
    with pytest.raises(TypeError):
        canonical_json({"x": 1.5})
    with pytest.raises(TypeError):
        canonical_json({"x": [1, {"y": 2.0}]})
    with pytest.raises(TypeError):
        canonical_json({"x": float("nan")})
    with pytest.raises(TypeError):
        canonical_json({"x": float("-inf")})
    with pytest.raises(TypeError):
        canonical_json({"x": (1, 2.5)})
    with pytest.raises(TypeError):
        canonical_json({"x": [{"a": 1}, {"b": [{"c": 0.5}]}]})


@FUZZ
@given(doc=buried(TREES, 4, 6))
def test_canonical_json_matches_json_dumps(doc):
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)


@pytest.mark.parametrize("holder", ["document", "dict", "list", "tuple"])
@FUZZ
@given(data=st.data())
def test_canonical_json_rejects_a_float_at_any_depth(holder, data):
    bad = FLOATS
    if holder != "document":
        bad = buried(buried(FLOATS, 1, 1, kinds=(holder,)), 0, 4)
    with pytest.raises(TypeError, match="float"):
        canonical_json(data.draw(bad))


@FUZZ
@given(
    key=st.one_of(st.integers(), st.booleans(), st.none(), FLOATS, st.tuples(st.integers())),
    data=st.data(),
)
def test_canonical_json_rejects_a_non_str_key(key, data):
    holder = data.draw(st.dictionaries(TEXT, TREES, max_size=2)) | {key: data.draw(TREES)}
    message = f"^{type(key).__name__} key in document — keys must be str$"
    with pytest.raises(TypeError, match=message):
        canonical_json(data.draw(buried(st.just(holder), 0, 4)))


def test_key_types_are_checked_before_the_sort():
    # A sort of mixed keys would raise its own "'<' not supported" first.
    with pytest.raises(TypeError, match="^int key in document — keys must be str$"):
        canonical_json({"a": 1, 2: 3})
    with pytest.raises(TypeError, match="^NoneType key in document — keys must be str$"):
        canonical_json([{"a": 1}, {None: 0, 1: 0}])


class _Masked(dict):
    """A dict subclass whose keys() names another dict's keys; its items are its own.

    json.dumps reads items(), so only a writer that trusted keys() of a dict
    subclass would write this one wrong.
    """

    def __init__(self, items, shown):
        super().__init__(items)
        self.shown = shown

    def keys(self):
        return self.shown.keys()


VALUES = st.one_of(LEAVES, TREES)


@st.composite
def same_keyed(draw, values=VALUES):
    """Two to five plain dicts with one key set, each in its own insertion order."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    rows = []
    for _ in range(draw(st.integers(2, 5))):
        items = [(key, draw(values)) for key in keys]
        rows.append(dict(draw(st.permutations(items))))
    return keys, rows


@st.composite
def same_keyed_lists(draw):
    """Same-keyed dicts with, maybe, one interloper between two of them.

    The interloper is a dict subclass with the same keys, a _Masked subclass
    whose keys() claims the shared keys, or a plain dict with one key
    swapped for another, so that it has the same length but a new key set.
    """
    keys, rows = draw(same_keyed())
    kind = draw(st.sampled_from(["none", "subclass", "ordered", "masked", "swapped"]))
    if kind != "none":
        row = draw(st.sampled_from(rows))
        other = draw(TEXT.filter(lambda key: key not in keys))
        swapped = {other if key == keys[0] else key: value for key, value in row.items()}
        interloper = {
            "subclass": lambda: _Dict(row),
            "ordered": lambda: OrderedDict(row),
            "masked": lambda: _Masked(swapped, row),
            "swapped": lambda: swapped,
        }[kind]()
        rows.insert(draw(st.integers(1, len(rows) - 1)), interloper)
    return draw(st.sampled_from([list, tuple, _List]))(rows)


@FUZZ
@given(doc=buried(same_keyed_lists(), 0, 3))
def test_same_keyed_dicts_match_json_dumps(doc):
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)


@FUZZ
@given(data=st.data())
def test_same_keyed_dicts_reject_a_later_float_or_non_str_key(data):
    keys, rows = data.draw(same_keyed())
    at = data.draw(st.integers(1, len(rows) - 1))
    key = data.draw(st.sampled_from(keys))
    if data.draw(st.booleans()):
        rows[at][key] = data.draw(FLOATS)
        message = "^float in document"
    else:
        bad = data.draw(st.one_of(st.integers(), st.none(), st.tuples(st.integers())))
        rows[at] = {bad if k == key else k: v for k, v in rows[at].items()}
        message = f"^{type(bad).__name__} key in document — keys must be str$"
    with pytest.raises(TypeError, match=message):
        canonical_json(data.draw(buried(st.just(rows), 0, 3)))


def test_canonical_json_is_stable_under_reparse():
    doc = report_document(report_for(2, 8))
    text = canonical_json(doc)
    assert canonical_json(json.loads(text)) == text


def test_report_document_schema():
    doc = report_document(report_for(2, 8))
    assert set(doc) == {
        "verdict", "lhs", "rhs", "trace", "assumptions",
        "failed_hypothesis", "notes",
    }
    assert doc["verdict"] == "Obstructed"
    assert all(
        set(step) == {"label", "lhs", "rel", "rhs", "anchor"}
        for step in doc["trace"]
    )
    assert all(isinstance(step["lhs"], int) for step in doc["trace"])


def test_certificate_document():
    cert = SubsetCertificate(frozenset({3, 1, 2}))
    assert certificate_document(cert) == {"indices": [1, 2, 3], "size": 3}
    assert str(cert) == "{1,2,3}"


def field_names(record) -> set[str]:
    return {f.name for f in dataclasses.fields(record)}


@pytest.mark.parametrize(
    "genus, euler, ok, witness",
    [(2, 4, True, None), (2, 8, False, "4 > 2"), (3, -2, True, None)],
)
def test_cover_document(genus, euler, ok, witness):
    cover = branched_double_cover(S4, SurfaceDatum(genus, euler, Gf2Vector(0)))
    consistency = consistency_check(cover)
    doc = cover_document(cover, consistency)
    assert set(doc) == field_names(cover) | {"consistency_ok", "consistency_witness"}
    assert {name: doc[name] for name in field_names(cover)} == vars(cover)
    assert (doc["consistency_ok"], doc["consistency_witness"]) == (ok, witness)
    assert json.loads(canonical_json(doc)) == doc


@pytest.mark.parametrize(
    "dim, masks, bits",
    [(0, (0, 0), ""), (3, (0b001, 0b011), "010"), (3, (0b101, 0b101), "000")],
)
def test_tube_document(dim, masks, bits):
    first, second = (Gf2Vector(dim, mask) for mask in masks)
    family = SurfaceFamily(dim, (SurfaceDatum(1, 4, first), SurfaceDatum(2, -6, second)))
    tubed = tube(family)
    doc = tube_document(tubed)
    assert set(doc) == field_names(tubed)
    assert doc == vars(tubed) | {"mod2_class": bits}
    assert (doc["genus"], doc["euler_number"], doc["euler_characteristic"]) == (3, -2, -1)
    assert json.loads(canonical_json(doc)) == doc
