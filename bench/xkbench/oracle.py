"""Independent oracles for the benchmark's output checks.

Nothing here imports excess_kit. Verdicts come from the closed form
(hypotheses first, then sum(|e| - 2g) > 4|sigma| + 4*b2_f2), zero-sum sets
from a subset-XOR table, and ranks from a dict-of-pivots elimination, so a
defect in the package's own arithmetic cannot hide itself here.

Members are [genus, euler_number, class bit string], as the generator
writes them. Any bijection between bit strings and ints preserves XOR and
rank, so classes are read with int(bits, 2).
"""

from __future__ import annotations


class WrongOutput(Exception):
    """An output disagrees with the oracle."""


def b2_of(profile: dict) -> int:
    """Second mod-2 Betti number, chi - 2 + 2*b1."""
    return profile["chi"] - 2 + 2 * profile["b1"]


def bits_int(bits: str) -> int:
    return int(bits, 2) if bits else 0


def rank(masks) -> int:
    rows: dict[int, int] = {}
    for v in masks:
        while v:
            top = v.bit_length() - 1
            if top not in rows:
                rows[top] = v
                break
            v ^= rows[top]
    return len(rows)


def budget(profile: dict) -> int:
    return 4 * abs(profile["signature"]) + 4 * b2_of(profile)


def excess_verdict(profile: dict, members) -> tuple[str, int, int]:
    """(verdict, lhs, rhs) of the excess check, in closed form."""
    lhs = sum(abs(e) - 2 * g for g, e, _ in members)
    rhs = budget(profile)
    mixed = any(e > 0 for _, e, _ in members) and any(e < 0 for _, e, _ in members)
    cls = 0
    for _, _, bits in members:
        cls ^= bits_int(bits)
    if mixed or cls:
        return "HypothesisFailure", lhs, rhs
    return ("Obstructed" if lhs > rhs else "BoundSatisfied"), lhs, rhs


def majority(members) -> list[int]:
    """1-based indices of the larger one-sided side, ties toward e >= 0."""
    nonneg = [i for i, (_, e, _) in enumerate(members, start=1) if e >= 0]
    nonpos = [i for i, (_, e, _) in enumerate(members, start=1) if e <= 0]
    return nonneg if len(nonneg) >= len(nonpos) else nonpos


def brute_max_zero_sum(masks: list[int]) -> tuple[int, ...]:
    """Lexicographically least among the largest zero-sum index sets."""
    m = len(masks)
    table = [0] * (1 << m)
    for s in range(1, 1 << m):
        low = s & -s
        table[s] = table[s ^ low] ^ masks[low.bit_length() - 1]
    zero = [s for s in range(1 << m) if table[s] == 0]
    size = max(s.bit_count() for s in zero)
    return min(
        tuple(j + 1 for j in range(m) if (s >> j) & 1) for s in zero if s.bit_count() == size
    )


def check_zero_sum(masks: list[int], indices, floor: int, what: str) -> None:
    """indices is a valid zero-sum set over masks, of size at least floor."""
    indices = list(indices)
    if len(set(indices)) != len(indices) or any(not 1 <= i <= len(masks) for i in indices):
        raise WrongOutput(f"{what}: index set {indices} is not a subset of 1..{len(masks)}")
    acc = 0
    for i in indices:
        acc ^= masks[i - 1]
    if acc:
        raise WrongOutput(f"{what}: certificate {sorted(indices)} does not XOR to zero")
    if len(indices) < floor:
        raise WrongOutput(f"{what}: certificate size {len(indices)} is below {floor}")


def expect(what: str, got, want) -> None:
    if got != want:
        raise WrongOutput(f"{what}: got {got!r}, expected {want!r}")


def check_report_doc(profile: dict, members, doc: dict, what: str) -> str:
    """Check an excess-check document against the closed form; return the verdict."""
    verdict, lhs, rhs = excess_verdict(profile, members)
    expect(f"{what} verdict", doc["verdict"], verdict)
    expect(f"{what} lhs", doc["lhs"], lhs)
    expect(f"{what} rhs", doc["rhs"], rhs)
    return verdict


def check_audit_doc(
    profile: dict, members, doc: dict, what: str, exact: bool, floor: int | None = None
) -> str:
    """Check a plane-audit document stage by stage; return the verdict.

    The zero-sum subfamily is taken from the document after it is checked:
    a valid set over the majority, at least as large as the rank bound (or
    `floor`), and for exact audits on at most 16 majority members the
    brute-force optimum.
    """
    k = b2_of(profile)
    d = budget(profile)
    b = 2 * (k + d)
    expect(f"{what} member_count", doc["member_count"], len(members))
    expect(f"{what} budgets", (doc["b2_f2"], doc["d_of_m"], doc["b_of_m"]), (k, d, b))
    major = majority(members)
    expect(f"{what} majority", doc["majority_indices"], major)
    expect(f"{what} exact_used", doc["exact_used"], exact)
    sub_verdict = None
    if len(major) > k:
        chosen = doc["zero_sum_indices"]
        if chosen is None or not set(chosen) <= set(major):
            raise WrongOutput(f"{what}: zero-sum set {chosen} is not inside the majority")
        pos = {idx: p for p, idx in enumerate(major, start=1)}
        masks = [bits_int(members[i - 1][2]) for i in major]
        lower = max(len(major) - rank(masks), floor or 0)
        check_zero_sum(masks, [pos[i] for i in chosen], lower, what)
        if exact and len(major) <= 16:
            best = tuple(major[p - 1] for p in brute_max_zero_sum(masks))
            expect(f"{what} exact zero-sum set", tuple(chosen), best)
        sub_members = [members[i - 1] for i in chosen]
        sub_verdict = check_report_doc(profile, sub_members, doc["subfamily_report"], what + " subfamily")
    else:
        expect(f"{what} zero_sum_indices", doc["zero_sum_indices"], None)
    obstructed = len(members) > b or sub_verdict == "Obstructed"
    verdict = "Obstructed" if obstructed else "BoundSatisfied"
    expect(f"{what} verdict", doc["verdict"], verdict)
    return verdict
