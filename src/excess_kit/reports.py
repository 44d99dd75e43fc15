"""Report documents and rendering.

Every machine-readable document is a tree of dicts, lists, strings,
integers, booleans, and nulls — floating point never appears. Canonical
serialization (sorted keys, fixed separators) makes equal documents
byte-identical, which the determinism checks rely on. canonical_json writes
the bytes itself, in the same layout as json.dumps(sort_keys=True, indent=2,
ensure_ascii=True); a float, NaN, infinity or non-str key anywhere raises
TypeError. Inside a dict or a list, a value whose type is exactly str or int
is written inline; every other value (bools, None, subclasses of str or int
such as an IntEnum, containers) goes through the general writer.

A dict's key types are checked before its keys are sorted, so a non-str
key is reported as such even beside str keys. Inside one list or tuple, an
item whose type is exactly dict and whose key set equals that of the last
such item whose keys were sorted reuses that item's sorted keys and quoted
key text; any other item sorts and quotes its own. Nothing is kept past the
list. Dict subclasses never share keys: one may redefine keys(), so only
their own iteration is trusted. Key sets compare by hash and ==, so a key
counts as the str key it equals.

A document's keys are its result type's fields, taken with vars(); only
the values JSON cannot take as they are (enums, tuples, nested reports,
bit vectors) are rewritten. The budget and certificate documents are
written out key by key, as they rename, join or add fields.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # annotations only: rendering a budget or a tube loads no engine
    from .covers import ConsistencyResult, CoverProfile
    from .engine import ObstructionReport, PlaneAuditReport, ProofTrace
    from .gf2 import SubsetCertificate
    from .manifolds import BudgetReport, ManifoldProfile
    from .surfaces import TubedSurface

__all__ = [
    "canonical_json",
    "report_document",
    "audit_document",
    "budget_document",
    "cover_document",
    "tube_document",
    "certificate_document",
    "render_report_text",
    "render_audit_text",
    "render_budget_text",
    "render_cover_text",
    "render_tube_text",
]


def canonical_json(document: Any) -> str:
    """Sorted keys, two-space indent; a float or a non-str key raises TypeError."""
    out: list[str] = []
    _write(document, "\n", out)
    return "".join(out)


def _write(value: Any, indent: str, out: list[str]) -> None:
    """Append value's JSON to out; indent is a newline and the current line's spaces."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        keys, heads = _key_heads(value, indent)
        _write_fields(value, keys, heads, indent, out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        head = "[" + inner
        shape = None  # key view of the last plain dict item whose keys were sorted
        for item in value:
            kind = type(item)
            if kind is str:
                out.append(head + _quote(item))
            elif kind is int:
                out.append(head + int.__repr__(item))
            elif kind is dict and item:
                out.append(head)
                if shape is None or item.keys() != shape:
                    shape = item.keys()
                    keys, heads = _key_heads(item, inner)
                _write_fields(item, keys, heads, inner, out)
            else:
                out.append(head)
                _write(item, inner, out)
            head = "," + inner
        out.append(indent + "]")
    else:
        raise TypeError(f"{type(value).__name__} in document — documents must be exact")


def _key_heads(value: dict, indent: str) -> tuple[list[str], list[str]]:
    """A nonempty dict's keys in sorted order, each with the text written before its value."""
    for key in value:
        if not isinstance(key, str):
            raise TypeError(f"{type(key).__name__} key in document — keys must be str")
    keys = sorted(value)
    inner = indent + "  "
    heads = ["," + inner + _quote(key) + ": " for key in keys]
    heads[0] = "{" + heads[0][1:]
    return keys, heads


def _write_fields(
    value: dict, keys: list[str], heads: list[str], indent: str, out: list[str]
) -> None:
    """Append value's JSON to out, its keys and their heads given by _key_heads."""
    inner = indent + "  "
    for key, head in zip(keys, heads):
        item = value[key]
        kind = type(item)
        if kind is str:
            out.append(head + _quote(item))
        elif kind is int:
            out.append(head + int.__repr__(item))
        else:
            out.append(head)
            _write(item, inner, out)
    out.append(indent + "}")


def _trace_document(trace: ProofTrace) -> list[dict[str, Any]]:
    return [vars(step).copy() for step in trace]


def report_document(report: ObstructionReport | PlaneAuditReport) -> dict[str, Any]:
    """Machine-readable form of an excess-check report or a plane-family audit.

    Its fields, with the four that both report types share (verdict, trace,
    assumptions, notes) made JSON-ready; audit_document adds the audit's own.
    """
    return vars(report) | {
        "verdict": report.verdict.value,
        "trace": _trace_document(report.trace),
        "assumptions": list(report.assumptions),
        "notes": list(report.notes),
    }


def audit_document(audit: PlaneAuditReport) -> dict[str, Any]:
    """Machine-readable form of a plane-family audit: its fields, JSON-ready."""
    zero_sum, subfamily = audit.zero_sum_indices, audit.subfamily_report
    return report_document(audit) | {
        "majority_sign": audit.majority_sign.value,
        "majority_indices": list(audit.majority_indices),
        "zero_sum_indices": None if zero_sum is None else list(zero_sum),
        "subfamily_report": None if subfamily is None else report_document(subfamily),
    }


def budget_document(profile: ManifoldProfile, budget: BudgetReport) -> dict[str, Any]:
    return {
        "profile": profile.name,
        "signature": profile.signature,
        "euler_characteristic": profile.euler_characteristic,
        "b1_f2": profile.b1_f2,
        "b2_f2": budget.b2_f2,
        "d_of_m": budget.d_of_m,
        "b_of_m": budget.b_of_m,
    }


def cover_document(
    cover: CoverProfile, consistency: ConsistencyResult
) -> dict[str, Any]:
    return vars(cover) | {
        "consistency_ok": consistency.ok,
        "consistency_witness": consistency.witness,
    }


def tube_document(tubed: TubedSurface) -> dict[str, Any]:
    return vars(tubed) | {"mod2_class": tubed.mod2_class.to01()}


def certificate_document(cert: SubsetCertificate) -> dict[str, Any]:
    return {"indices": list(cert.sorted_indices()), "size": cert.size}


def _render_trace(trace: ProofTrace) -> list[str]:
    lines = ["trace:"]
    for i, s in enumerate(trace, start=1):
        lines.append(f"  {i}. {s.label}: {s.lhs} {s.rel} {s.rhs}  [{s.anchor}]")
    return lines


def _render_remarks(report: ObstructionReport | PlaneAuditReport) -> list[str]:
    lines = ["assumptions:"]
    lines.extend(f"  - {a}" for a in report.assumptions)
    if report.notes:
        lines.append("notes:")
        lines.extend(f"  - {n}" for n in report.notes)
    return lines


def render_report_text(report: ObstructionReport, indent: str = "") -> str:
    lines = [f"verdict: {report.verdict.value}"]
    if report.failed_hypothesis is not None:
        lines.append(f"failed hypothesis: {report.failed_hypothesis}")
    lines.append(f"excess (lhs): {report.lhs}")
    lines.append(f"budget (rhs): {report.rhs}")
    lines.extend(_render_trace(report.trace))
    lines.extend(_render_remarks(report))
    return "\n".join(indent + line for line in lines)


def render_audit_text(audit: PlaneAuditReport) -> str:
    lines = [
        f"verdict: {audit.verdict.value}",
        f"members: {audit.member_count}",
        f"b2_f2: {audit.b2_f2}",
        f"excess budget D: {audit.d_of_m}",
        f"plane budget B: {audit.b_of_m}",
        f"majority sign: {audit.majority_sign.value}",
        "majority indices: "
        + (",".join(str(i) for i in audit.majority_indices) or "none"),
    ]
    if audit.zero_sum_indices is None:
        lines.append("zero-sum subfamily: not forced")
    else:
        lines.append(
            "zero-sum subfamily: "
            + (",".join(str(i) for i in audit.zero_sum_indices) or "none")
        )
    lines.append(f"zero-sum mode: {'exact' if audit.exact_used else 'constructive'}")
    lines.extend(_render_trace(audit.trace))
    if audit.subfamily_report is not None:
        lines.append("subfamily check:")
        lines.append(render_report_text(audit.subfamily_report, indent="  "))
    lines.extend(_render_remarks(audit))
    return "\n".join(lines)


def _render_fields(document: dict[str, Any]) -> str:
    return "\n".join(f"{key}: {value}" for key, value in document.items())


def render_budget_text(profile: ManifoldProfile, budget: BudgetReport) -> str:
    return _render_fields(budget_document(profile, budget))


def render_cover_text(cover: CoverProfile, consistency: ConsistencyResult) -> str:
    verdict = "ok" if consistency.ok else f"violated ({consistency.witness})"
    return _render_fields(vars(cover)) + f"\nconsistency: {verdict}"


def render_tube_text(tubed: TubedSurface) -> str:
    return _render_fields(vars(tubed) | {"mod2_class": tubed.mod2_class.to01() or "(empty)"})
