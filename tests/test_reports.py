"""Document builders and canonical serialization."""

from __future__ import annotations

import json

import pytest

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
