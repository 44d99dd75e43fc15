"""Document builders and canonical serialization."""

from __future__ import annotations

import enum
import json
import math
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excess_kit.engine import excess_check
from excess_kit.gf2 import Gf2Vector, SubsetCertificate
from excess_kit.manifolds import ManifoldProfile
from excess_kit.reports import (
    canonical_json,
    certificate_document,
    report_document,
)
from excess_kit.surfaces import SurfaceDatum, SurfaceFamily

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
    with pytest.raises(TypeError, match=type(key).__name__):
        canonical_json(data.draw(buried(st.just(holder), 0, 4)))


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
