"""Families known to exist are never Obstructed.

`tests/data/realized.txt` lists families that topology says exist, each with
its construction and a citation. A false Obstructed is the worst failure, so
`check` must not answer it on any entry, in-process or through the CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from excess_kit import cli
from excess_kit.engine import Verdict, excess_check
from excess_kit.gf2 import Gf2Vector
from excess_kit.manifolds import ManifoldProfile, validate_profile
from excess_kit.surfaces import SurfaceDatum, SurfaceFamily

CORPUS = Path(__file__).parent / "data" / "realized.txt"
PROFILE_KEYS = ("signature", "euler_characteristic", "b1_f2")


def read_corpus() -> list[dict]:
    entries = []
    for block in CORPUS.read_text(encoding="utf-8").split("[entry]\n")[1:]:
        entry = {"surface": []}
        for line in block.splitlines():
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(": ")
            if key == "surface":
                entry["surface"].append(value.split())
            else:
                entry[key] = value
        entries.append(entry)
    return entries


ENTRIES = read_corpus()


def profile_of(entry: dict) -> ManifoldProfile:
    return ManifoldProfile(entry["name"], *(int(entry[key]) for key in PROFILE_KEYS))


def members_of(entry: dict) -> list[tuple[int, int, str]]:
    return [(int(g), int(e), bits[0] if bits else "") for g, e, *bits in entry["surface"]]


def test_the_corpus_holds_the_worked_constructions():
    names = {entry["name"] for entry in ENTRIES}
    assert len(names) == len(ENTRIES)
    assert {
        "s4-rp2-plus", "s4-rp2-minus", "cp2-rp2-conic", "cp2bar-rp2-conic",
        "cp2-cp2-one-per-summand", "s2xs2-rp2-torus", "cp2-rp2-line", "cp2bar-rp2-line",
        "cp2-rp2-quartic", "cp2bar-rp2-quartic", "cp2-klein-conic-plus-plus",
        "cp2bar-klein-conic-plus-plus",
    } <= names
    for entry in ENTRIES:
        assert entry["construction"] and entry["source"], entry["name"]
        profile = validate_profile(profile_of(entry))
        assert entry["surface"], entry["name"]
        for _, _, bits in members_of(entry):
            assert len(bits) == profile.b2_f2, entry["name"]


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["name"] for entry in ENTRIES])
def test_check_never_obstructs_a_realized_family(entry):
    profile = profile_of(entry)
    family = SurfaceFamily(
        profile.b2_f2,
        tuple([
            SurfaceDatum(g, e, Gf2Vector.from_string(bits)) for g, e, bits in members_of(entry)
        ]),
    )
    report = excess_check(profile, family)
    assert report.verdict is not Verdict.OBSTRUCTED
    assert report.lhs <= report.rhs or report.verdict is Verdict.HYPOTHESIS_FAILURE


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["name"] for entry in ENTRIES])
def test_the_check_command_never_obstructs_a_realized_family(tmp_path, entry):
    profile_path = tmp_path / "profile.txt"
    profile_path.write_text(
        f"name: {entry['name']}\n" + "".join(f"{key}: {entry[key]}\n" for key in PROFILE_KEYS),
        encoding="utf-8",
    )
    family_path = tmp_path / "family.txt"
    family_path.write_text(
        f"ambient: {profile_path}\n"
        + "".join(
            f"[surface]\ngenus: {g}\neuler_number: {e}\nclass: {bits}\n"
            for g, e, bits in members_of(entry)
        ),
        encoding="utf-8",
    )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([
            "check", "--manifold", str(profile_path), "--family", str(family_path),
            "--format", "json",
        ])
    assert err.getvalue() == ""
    verdict = json.loads(out.getvalue())["verdict"]
    assert verdict != "Obstructed"
    assert code == {"BoundSatisfied": 0, "HypothesisFailure": 2}[verdict]
