"""Verdict engine: the excess bound and the plane-family pipeline.

Every check emits a ProofTrace, an ordered list of arithmetic steps whose
recorded relations are all true of their recorded values — traces are
self-validating certificates, replayable without any other context.

Signatures of double covers can be half-integers away from integrality
(sigma(N) = 2*sigma(M) - e/2), so the chain is recorded in doubled form
(T = 4*sigma(M) - e = 2*sigma(N)) to stay in exact integers for every e;
the familiar single forms are recorded alongside whenever e is even.

A TraceStep is built for every recorded step, so its constructor is
written out: it refuses an unknown relation, then stores each field with
one write into the instance dict. The trace builder then refuses a step
whose holds() is false, the test ProofTrace.replay applies.

plane_family_audit reads only the family's columns: the genus and |e|
rules, the majority side and its class vectors come from the genus, Euler
and mask columns, and the zero-sum subfamily is built from their picked
entries, so no member record is built.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Sequence

from .covers import cover_chain, signature_defect
from .errors import EulerTooSmall, NotAPlaneFamily
from .gf2 import (
    Gf2Collection,
    Gf2Vector,
    _require_effort,
    max_zero_sum_subset,
    zero_sum_subcollection,
)
from .manifolds import ManifoldProfile, _require_dim, budget_report, excess_budget
from .surfaces import SignClass, SurfaceFamily, TubedSurface, sign_class, tube

__all__ = [
    "Verdict",
    "TraceStep",
    "ProofTrace",
    "HypothesisRecord",
    "ObstructionReport",
    "PlaneAuditReport",
    "ASSUMPTIONS",
    "check_hypotheses",
    "excess_check",
    "plane_family_audit",
    "batch_check",
]

# Declared on every report: the tool checks arithmetic consequences of an
# embedding, never the embedding itself, and its verdicts are one-directional.
ASSUMPTIONS: tuple[str, ...] = (
    "members are declared pairwise disjoint, connected, locally flat,"
    " embedded nonorientable surfaces; only arithmetic consequences are checked",
    "euler numbers are read with respect to one fixed orientation of the"
    " ambient manifold",
    "Obstructed means no closed oriented 4-manifold with this profile admits"
    " such a family; BoundSatisfied asserts no existence claim",
)


class Verdict(enum.Enum):
    """Outcome of a check."""

    BOUND_SATISFIED = "BoundSatisfied"
    OBSTRUCTED = "Obstructed"
    HYPOTHESIS_FAILURE = "HypothesisFailure"


_RELATIONS = {"=": operator.eq, "<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True, init=False)
class TraceStep:
    """One recorded comparison: label, two integers, their relation, anchor.

    The anchor names the arithmetic fact the step instantiates, so a step is
    meaningful on its own. The constructor refuses an unknown relation, then
    stores each field with one write into the instance dict; eq, hash, repr
    and the frozen guard are the dataclass's own.
    """

    label: str
    lhs: int
    rel: str
    rhs: int
    anchor: str

    def __init__(self, label: str, lhs: int, rel: str, rhs: int, anchor: str):
        if rel not in _RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        fields = self.__dict__
        fields["label"] = label
        fields["lhs"] = lhs
        fields["rel"] = rel
        fields["rhs"] = rhs
        fields["anchor"] = anchor

    def holds(self) -> bool:
        return _RELATIONS[self.rel](self.lhs, self.rhs)


@dataclass(frozen=True)
class ProofTrace:
    """Ordered list of self-validating steps."""

    steps: tuple[TraceStep, ...] = ()

    def replay(self) -> bool:
        """Re-check every recorded relation against its recorded values."""
        return all(step.holds() for step in self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)


class _TraceBuilder:
    """Accumulates steps, refusing any whose holds() is false: the test replay applies."""

    def __init__(self):
        self.steps: list[TraceStep] = []

    def add(self, label: str, lhs: int, rel: str, rhs: int, anchor: str) -> TraceStep:
        step = TraceStep(label, lhs, rel, rhs, anchor)  # refuses an unknown relation
        if not step.holds():
            raise AssertionError(f"untrue step {label}: {lhs} {rel} {rhs}")
        self.steps.append(step)
        return step

    def compare(self, label: str, lhs: int, rhs: int, anchor: str) -> TraceStep:
        """Record lhs vs rhs with whichever of <=, >= actually holds."""
        rel = "<=" if lhs <= rhs else ">="
        return self.add(label, lhs, rel, rhs, anchor)

    def build(self) -> ProofTrace:
        return ProofTrace(steps=tuple(self.steps))


@dataclass(frozen=True)
class HypothesisRecord:
    """The two hypotheses the obstruction check requires of a family."""

    sign: SignClass
    class_sum: Gf2Vector

    @property
    def sign_ok(self) -> bool:
        return self.sign is not SignClass.MIXED

    @property
    def class_ok(self) -> bool:
        return self.class_sum.is_zero

    @property
    def both_hold(self) -> bool:
        return self.sign_ok and self.class_ok

    def failing(self) -> str | None:
        """Name the failing hypothesis, or None when both hold."""
        bad = []
        if not self.sign_ok:
            bad.append("same-sign")
        if not self.class_ok:
            bad.append("class-sum")
        return "+".join(bad) or None


@dataclass(frozen=True)
class ObstructionReport:
    """Verdict on one family, with the arithmetic that produced it.

    lhs is the family's total excess, sum of (|e_i| - 2*g_i); rhs is the
    profile's budget. The verdict compares exactly these two numbers when
    the hypotheses hold.
    """

    verdict: Verdict
    lhs: int
    rhs: int
    trace: ProofTrace
    assumptions: tuple[str, ...] = ASSUMPTIONS
    failed_hypothesis: str | None = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class PlaneAuditReport:
    """Staged audit of a family of embedded-plane-like surfaces (genus 1).

    Stages: member count against the plane budget B; majority-sign
    subfamily; forced zero-sum subfamily when the majority overflows the
    mod-2 rank; excess check on that subfamily. Any stage can obstruct.
    """

    verdict: Verdict
    member_count: int
    b2_f2: int
    d_of_m: int
    b_of_m: int
    majority_sign: SignClass
    majority_indices: tuple[int, ...]
    zero_sum_indices: tuple[int, ...] | None
    exact_used: bool
    subfamily_report: ObstructionReport | None
    trace: ProofTrace
    assumptions: tuple[str, ...] = ASSUMPTIONS
    notes: tuple[str, ...] = ()


def _tube_and_check(
    m: ManifoldProfile, family: SurfaceFamily
) -> tuple[TubedSurface, HypothesisRecord]:
    """Tube the family once; the class-sum hypothesis reads the tubed class."""
    _require_dim(m, family.ambient_dim, "family classes live in")
    tubed = tube(family)
    return tubed, HypothesisRecord(sign=sign_class(family), class_sum=tubed.mod2_class)


def check_hypotheses(m: ManifoldProfile, family: SurfaceFamily) -> HypothesisRecord:
    """Evaluate the same-sign and zero-class-sum hypotheses."""
    return _tube_and_check(m, family)[1]


def excess_check(m: ManifoldProfile, family: SurfaceFamily) -> ObstructionReport:
    """Compare a family's total excess against the profile's budget.

    When both hypotheses hold the full derivation is recorded: tubing sums,
    the no-cancellation identity, the doubled cover signature and its
    defect, the triangle bound on the Euler sum, the cover rank bound, the
    signature-versus-rank comparison, the budget (one value, recorded on
    both sides of budget-forms-agree), and the final excess-versus-budget
    comparison. Each quantity is derived once and the trace records it.
    When a hypothesis fails only the tubing arithmetic is recorded and the
    verdict is HypothesisFailure naming the failing hypothesis.
    """
    rhs = excess_budget(m)
    tubed, hyp = _tube_and_check(m, family)
    g_f = tubed.genus
    e_f = tubed.euler_number
    sum_abs_e = sum(map(abs, family.euler_numbers()))
    lhs = sum_abs_e - 2 * g_f

    tb = _TraceBuilder()
    tb.add("tubed-genus", g_f, "=", g_f, "tubing-additivity")
    tb.add("tubed-euler-number", e_f, "=", e_f, "tubing-additivity")
    tb.add(
        "tubed-euler-characteristic",
        tubed.euler_characteristic,
        "=",
        2 - g_f,
        "tubing-additivity",
    )

    if not hyp.both_hold:
        return ObstructionReport(
            verdict=Verdict.HYPOTHESIS_FAILURE,
            lhs=lhs,
            rhs=rhs,
            trace=tb.build(),
            failed_hypothesis=hyp.failing(),
        )

    notes: list[str] = []
    tb.add("no-cancellation", abs(e_f), "=", sum_abs_e, "same-sign-family")

    chi_n, doubled, b2_n_upper = cover_chain(m, tubed)
    tb.add("cover-euler-characteristic", chi_n, "=", chi_n, "branched-cover-euler")
    tb.add(
        "cover-signature-doubled", doubled, "=", doubled, "branched-cover-signature"
    )
    tb.add(
        "signature-defect-doubled",
        abs(doubled - 4 * m.signature),
        "=",
        abs(e_f),
        "branched-cover-signature",
    )
    if e_f % 2 == 0:
        sigma_n = doubled // 2
        tb.add("cover-signature", sigma_n, "=", sigma_n, "branched-cover-signature")
        tb.add("ramification-euler", 2 * (e_f // 2), "=", e_f, "branch-locus-halving")
        tb.add(
            "signature-defect",
            abs(sigma_n - 2 * m.signature),
            "=",
            signature_defect(e_f),
            "branched-cover-signature",
        )
    else:
        notes.append(
            "odd total euler number: cover signature recorded in doubled form only"
        )

    tb.add(
        "sum-abs-euler-vs-signatures",
        sum_abs_e,
        "<=",
        abs(doubled) + 4 * abs(m.signature),
        "triangle-bound",
    )
    tb.add("cover-rank-bound", b2_n_upper, "=", b2_n_upper, "cover-second-betti-bound")
    rank_step = tb.compare(
        "cover-signature-vs-rank",
        abs(doubled),
        2 * b2_n_upper,
        "signature-vs-rank",
    )
    tb.add("budget-forms-agree", rhs, "=", rhs, "budget-closed-forms")
    tb.compare("excess-vs-budget", lhs, rhs, "excess-bound")

    exceeds = rank_step.lhs > rank_step.rhs
    if lhs > rhs:
        verdict = Verdict.OBSTRUCTED
        # The chain guarantees the doubled comparison fails whenever the
        # final bound does, so an obstruction always has a concrete witness.
        if not exceeds:
            raise AssertionError("obstructed without a failing cover comparison")
        ending = ": no closed oriented 4-manifold has these cover invariants"
    else:
        verdict = Verdict.BOUND_SATISFIED
        ending = (
            " although the final excess bound holds;"
            " no conclusion is drawn from the interim comparison"
        )
    if exceeds:
        notes.append(
            "cover signature exceeds its rank bound"
            f" ({rank_step.lhs} > {rank_step.rhs}, doubled values){ending}"
        )
    return ObstructionReport(
        verdict=verdict,
        lhs=lhs,
        rhs=rhs,
        trace=tb.build(),
        notes=tuple(notes),
    )


def _majority_indices(family: SurfaceFamily) -> tuple[SignClass, tuple[int, ...]]:
    """Largest one-sided subfamily, ties toward NonNegative.

    Members with e = 0 sit on both sides and are counted for whichever side
    wins.
    """
    eulers = family.euler_numbers()
    nonneg = tuple([pos for pos, e in enumerate(eulers, start=1) if e >= 0])
    nonpos = tuple([pos for pos, e in enumerate(eulers, start=1) if e <= 0])
    if len(nonneg) >= len(nonpos):
        return SignClass.NON_NEGATIVE, nonneg
    return SignClass.NON_POSITIVE, nonpos


def plane_family_audit(
    m: ManifoldProfile,
    planes: SurfaceFamily,
    *,
    use_exact: bool = False,
    effort_limit: int = 0,
    workers: int = 1,
) -> PlaneAuditReport:
    """Run the staged count-bound pipeline on a genus-1 family.

    Every member must have genus 1 and |e| > 2. Stage one compares the
    member count against the plane budget B; stage two takes the majority
    sign side; stage three, when the majority overflows the mod-2 rank,
    extracts a zero-sum subfamily (constructive by default, exact maximizer
    with use_exact); stage four runs the excess check on that subfamily,
    whose hypotheses hold by construction. The verdict is Obstructed when
    either the count exceeds B or the subfamily check obstructs. With
    use_exact, an over-budget search raises EffortExceeded whose attached
    certificate numbers the majority subfamily's members 1, 2, ... in family
    order, not by family position; zero_sum_indices is by family position.
    A negative effort_limit raises ValueError before any stage runs, with
    or without use_exact. ``workers`` is accepted for compatibility and
    has no effect.
    """
    _require_effort(effort_limit)
    budget = budget_report(m)
    dim = planes.ambient_dim
    _require_dim(m, dim, "family classes live in")
    genera, eulers, masks = planes._genera, planes._eulers, planes._masks
    if genera.count(1) != len(genera):
        pos, genus = next((pos, g) for pos, g in enumerate(genera, start=1) if g != 1)
        raise NotAPlaneFamily(f"member {pos} has genus {genus}, expected 1")
    if min(map(abs, eulers)) <= 2:
        pos, size = next((pos, abs(e)) for pos, e in enumerate(eulers, start=1) if abs(e) <= 2)
        raise EulerTooSmall(
            f"member {pos} has |e| = {size} <= 2; the count bound needs |e| > 2"
        )

    count = len(planes)
    k, d, b = budget.b2_f2, budget.d_of_m, budget.b_of_m
    notes: list[str] = []

    tb = _TraceBuilder()
    count_step = tb.compare(
        "member-count-vs-plane-budget", count, b, "plane-count-bound"
    )
    majority_sign, majority = _majority_indices(planes)
    s_count = len(majority)
    tb.add("count-vs-majority", count, "<=", 2 * s_count, "majority-pigeonhole")

    zero_sum_indices: tuple[int, ...] | None = None
    subreport: ObstructionReport | None = None
    if s_count > k:
        classes = Gf2Collection(
            dim=dim, vectors=tuple([Gf2Vector(dim, masks[i - 1]) for i in majority])
        )
        if use_exact:
            cert = max_zero_sum_subset(classes, effort_limit)
            if cert.size == 0:
                # The maximizer can only improve on the constructive bound,
                # which is positive here; guard against regressions.
                raise AssertionError("exact certificate empty despite overflow")
            notes.append(
                "zero-sum subfamily chosen by the exact maximizer;"
                " the count chain itself only needs the constructive bound"
            )
        else:
            cert = zero_sum_subcollection(classes)
        zero_sum_indices = tuple([majority[i - 1] for i in cert.sorted_indices()])
        n = len(zero_sum_indices)
        tb.add(
            "majority-overflow-vs-zero-sum",
            s_count - k,
            "<=",
            n,
            "zero-sum-lower-bound",
        )
        tb.compare("zero-sum-size-vs-excess-budget", n, d, "unit-excess-per-member")
        picked = [i - 1 for i in zero_sum_indices]
        subfamily = SurfaceFamily._from_columns(
            dim,
            tuple([genera[i] for i in picked]),
            tuple([eulers[i] for i in picked]),
            tuple([masks[i] for i in picked]),
        )
        subreport = excess_check(m, subfamily)
        if subreport.verdict is Verdict.HYPOTHESIS_FAILURE:
            raise AssertionError("zero-sum subfamily failed hypotheses")
    else:
        notes.append(
            "majority subfamily fits inside the mod-2 rank"
            f" ({s_count} <= {k}); no zero-sum subfamily is forced"
        )
    tb.compare("count-vs-rank-plus-budget", count, b, "plane-count-bound")

    obstructed = count_step.lhs > count_step.rhs or (
        subreport is not None and subreport.verdict is Verdict.OBSTRUCTED
    )
    return PlaneAuditReport(
        verdict=Verdict.OBSTRUCTED if obstructed else Verdict.BOUND_SATISFIED,
        member_count=count,
        b2_f2=k,
        d_of_m=d,
        b_of_m=b,
        majority_sign=majority_sign,
        majority_indices=majority,
        zero_sum_indices=zero_sum_indices,
        exact_used=use_exact,
        subfamily_report=subreport,
        trace=tb.build(),
        notes=tuple(notes),
    )


def batch_check(
    m: ManifoldProfile,
    families: Sequence[SurfaceFamily],
    *,
    workers: int = 1,
) -> tuple[ObstructionReport, ...]:
    """Run excess_check over many families, ordered by input position.

    ``workers`` is accepted for compatibility and has no effect.
    """
    return tuple([excess_check(m, f) for f in families])
