"""Families known to exist are never Obstructed.

`tests/data/realized.txt` lists families that topology says exist, each with
its construction and a citation. A false Obstructed is the worst failure, so
`check` must not answer it on any entry, in-process or through the CLI.
`realized_families` composes the same constructions into generated
families, on which neither `check` nor `audit` may answer it either.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from excess_kit import cli
from excess_kit.engine import Verdict, excess_check, plane_family_audit
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


# The curves a member may pair-sum with: degrees in CP2 and CP2-bar, and
# bidegrees in S2xS2 (a sphere (1, 0) or (0, 1), or both entries >= 1).
DEGREES = range(1, 5)
BIDEGREES = [(1, 0), (0, 1)] + [(p, q) for p in range(1, 5) for q in range(1, 5)]


def curves(summand: str, sign: int, planes: bool) -> list[tuple[int, int, tuple[int, ...]]]:
    """(genus, self-intersection, mod-2 class) of each curve in one summand.

    Sign 0 keeps every curve. Sign 1 or -1 keeps the curves of class 0 whose
    self-intersection has that sign. With planes, only spheres are kept.
    """
    if summand == "S2xS2":
        table = [((p - 1) * (q - 1), 2 * p * q, (p % 2, q % 2)) for p, q in BIDEGREES]
    else:
        orientation = 1 if summand == "CP2" else -1
        table = [((k - 1) * (k - 2) // 2, orientation * k * k, (k % 2,)) for k in DEGREES]
    if sign:
        table = [curve for curve in table if not any(curve[2]) and curve[1] * sign > 0]
    if planes:
        table = [curve for curve in table if curve[0] == 0]
    return table


@st.composite
def realized_families(draw) -> tuple[ManifoldProfile, SurfaceFamily]:
    """A profile and a family on it that a known construction realizes.

    The construction rules:
    - Ambient: M = S4 # a.CP2 # b.CP2-bar # c.(S2xS2) # d.(S1xS3). The
      signature and the Euler characteristic minus 2 add under connected
      sum, so M has signature a - b, Euler characteristic
      2 + a + b + 2c - 2d and b1_f2 = d. Its mod-2 classes have one
      coordinate per CP2 or CP2-bar summand and two per S2xS2 summand, in
      that order.
    - Start: a member is the connected sum of g0 >= 1 standard RP2s, each
      with normal Euler number +2 or -2, in its own ball of the S4 summand.
      It has genus g0, class 0 and e0 in {-2g0, -2g0 + 4, ..., 2g0}
      (Massey 1969, Pacific J. Math. 31).
    - A smooth curve of degree k in CP2 has genus (k-1)(k-2)/2,
      self-intersection k^2 and class k mod 2 (the degree-genus formula).
      The same curve in CP2-bar has self-intersection -k^2.
    - A smooth curve of bidegree (p, q) in S2xS2, with p, q >= 1 or (p, q)
      one of (1, 0) and (0, 1), has genus (p-1)(q-1), self-intersection 2pq
      and class (p mod 2, q mod 2).
    - The pair sum (S4, F) # (X, S) with a curve S of genus h adds 2h to the
      nonorientable genus of F, adds S.S to its normal Euler number, and
      gives it the class of S on the coordinates of X.
    - Each summand has at most one owner, the one member summed with a
      curve in it, and members start in disjoint balls, so the members
      stay disjoint.

    The last three rules are in Gompf and Stipsicz, 4-Manifolds and Kirby
    Calculus (1999). A drawn sign of 1 or -1 keeps every member's class 0
    and its e of that sign or 0, so both hypotheses of `check` hold and it
    runs the full chain. Sign 0 draws freely. A drawn `planes` flag keeps
    g0 = 1 and sums with spheres only, so every member has genus 1 and
    `audit` often has members to run on.
    """
    a, b, c = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    d = draw(st.integers(0, 1))
    profile = ManifoldProfile(
        f"s4+{a}cp2+{b}cp2bar+{c}s2xs2+{d}s1xs3", a - b, 2 + a + b + 2 * c - 2 * d, d
    )
    sign = draw(st.sampled_from((0, 1, -1)))
    planes = draw(st.booleans())
    members = []
    for _ in range(draw(st.integers(1, 4))):
        genus = draw(st.integers(1, 1 if planes else 3))
        steps = draw(st.integers(0, genus // 2 if sign else genus))
        members.append([genus, (sign or 1) * (2 * genus - 4 * steps), 0])
    summands = ["CP2"] * a + ["CP2-bar"] * b + ["S2xS2"] * c
    coordinate = 0
    for summand in summands:
        owner = draw(st.integers(-1, len(members) - 1))
        table = curves(summand, sign, planes)
        if owner >= 0 and table:
            h, self_intersection, bits = draw(st.sampled_from(table))
            member = members[owner]
            member[0] += 2 * h
            member[1] += self_intersection
            for offset, bit in enumerate(bits):
                member[2] |= bit << (coordinate + offset)
        coordinate += 2 if summand == "S2xS2" else 1
    dim = profile.b2_f2
    return profile, SurfaceFamily(
        dim, tuple([SurfaceDatum(g, e, Gf2Vector(dim, mask)) for g, e, mask in members])
    )


@given(realized_families())
def test_no_command_obstructs_a_generated_realized_family(drawn):
    """`check` and both `audit` modes never answer Obstructed.

    `audit` runs on the members with genus 1 and |e| > 2, when there are
    any: dropping members leaves a realized family. This bites a budget
    that loses its b2 term, since RP2 summed with a conic in CP2 # CP2-bar,
    or with a (2, 2) curve in S2xS2, realizes an excess of 4 against
    4|signature| = 0. It does not bite a budget of half of D: where both
    hypotheses hold, these constructions realize an excess of at most D/2,
    so they bound D from below only up to a factor of two.
    """
    profile, family = drawn
    verdict = excess_check(profile, family).verdict
    assert verdict is not Verdict.OBSTRUCTED
    planes = [s for s in family.members if s.genus == 1 and abs(s.euler_number) > 2]
    event(f"check {verdict.value}, {'audited' if planes else 'no audit'}")
    if planes:
        subfamily = SurfaceFamily(family.ambient_dim, tuple(planes))
        for use_exact in (False, True):
            report = plane_family_audit(profile, subfamily, use_exact=use_exact)
            assert report.verdict is not Verdict.OBSTRUCTED
