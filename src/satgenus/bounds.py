"""Genus bounds for satellites of analytic links.

Every evaluator works in exact integer arithmetic and returns a
:class:`BoundReport` carrying the raw value (which may be non-positive), a
copy clamped at zero, the formula identifier, and the named inputs.
Parity preconditions are enforced, never rounded away.
"""

from __future__ import annotations

from . import _Record

__all__ = [
    "FORMULA_IDS",
    "QUANTITIES",
    "BoundReport",
    "bound_reports_to_csv",
    "schubert_bound",
    "thm1_knot_bound",
    "thm1_link_bound",
    "qp_closure_genus",
    "OrevkovGapReport",
    "orevkov_gap_report",
]

FORMULA_IDS = frozenset({"schubert_1", "schubert_2", "thm1_knot", "thm1_link", "qp_euler"})
QUANTITIES = frozenset({"genus4_lower", "genus4_exact", "genus3_lower"})


class BoundReport(_Record):
    """One evaluated bound: what quantity it constrains, by which formula,
    from which inputs."""

    quantity: str
    formula_id: str
    value: int
    clamped: int
    inputs: dict[str, int]

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if self.formula_id not in FORMULA_IDS:
            raise ValueError(f"unknown formula id {self.formula_id!r}")

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "formula_id": self.formula_id,
            "value": self.value,
            "clamped": self.clamped,
            "inputs": dict(self.inputs),
        }


def _genus_report(quantity: str, formula_id: str, value: int, inputs: dict[str, int]) -> BoundReport:
    return BoundReport(quantity, formula_id, value, max(0, value), inputs)


def bound_reports_to_csv(reports: list[BoundReport] | tuple[BoundReport, ...]) -> str:
    """Render reports as CSV with columns: formula, the union of input names
    (sorted), value.  Inputs a formula does not take are left blank."""
    import csv
    import io

    keys = sorted({name for r in reports for name in r.inputs})
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["formula", *keys, "value"])
    for r in reports:
        writer.writerow([r.formula_id, *(r.inputs.get(k, "") for k in keys), r.value])
    return out.getvalue()


def schubert_bound(genus_companion: int, winding: int, genus_pattern: int | None = None) -> BoundReport:
    """Classical lower bound for the Seifert genus of a satellite:
    |winding| * g(companion), plus the pattern genus when known."""
    if genus_companion < 0:
        raise ValueError("companion genus cannot be negative")
    inputs = {"companion_genus": genus_companion, "winding": winding}
    if genus_pattern is None:
        return _genus_report("genus3_lower", "schubert_1", abs(winding) * genus_companion, inputs)
    if genus_pattern < 0:
        raise ValueError("pattern genus cannot be negative")
    inputs["pattern_genus"] = genus_pattern
    value = abs(winding) * genus_companion + genus_pattern
    return _genus_report("genus3_lower", "schubert_2", value, inputs)


def thm1_knot_bound(g4_companion: int, winding: int) -> BoundReport:
    """Smooth 4-genus bound for satellite knots of analytic companions:
    n * g4(companion) - floor((n - 1) / 2), for winding n >= 1."""
    if g4_companion < 0:
        raise ValueError("companion 4-genus cannot be negative")
    if winding < 1:
        raise ValueError("winding number must be positive")
    value = winding * g4_companion - (winding - 1) // 2
    inputs = {"companion_g4": g4_companion, "winding": winding}
    return _genus_report("genus4_lower", "thm1_knot", value, inputs)


def thm1_link_bound(g4_companion: int, winding: int) -> BoundReport:
    """Smooth 4-genus bound for satellite links of analytic companions:
    n * g4(companion) - (n - 1), for winding n >= 1."""
    if g4_companion < 0:
        raise ValueError("companion 4-genus cannot be negative")
    if winding < 1:
        raise ValueError("winding number must be positive")
    value = winding * g4_companion - (winding - 1)
    inputs = {"companion_g4": g4_companion, "winding": winding}
    return _genus_report("genus4_lower", "thm1_link", value, inputs)


def qp_closure_genus(strands: int, bands: int) -> BoundReport:
    """g4 of the knot closure of a quasipositive braid:
    (bands - strands + 1) / 2.  The caller must know the closure is a knot;
    a parity failure here proves it is not."""
    if strands < 1:
        raise ValueError("strand count must be at least 1")
    if bands < 0:
        raise ValueError("band count cannot be negative")
    if (bands - strands + 1) % 2:
        raise ValueError(
            f"bands - strands + 1 = {bands - strands + 1} is odd: "
            "such a closure cannot be a knot"
        )
    value = (bands - strands + 1) // 2
    inputs = {"strands": strands, "bands": bands}
    return _genus_report("genus4_exact", "qp_euler", value, inputs)


class OrevkovGapReport(_Record):
    """Comparison of the cabled family member against the satellite bound it
    would have to meet if it were an analytic satellite."""

    n: int
    twists: int
    bands_k1: int
    g4_k1: int
    bands_k2: int
    g4_k2: int
    satellite_bound: int
    gap: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "twists": self.twists,
            "bands_k1": self.bands_k1,
            "g4_k1": self.g4_k1,
            "bands_k2": self.bands_k2,
            "g4_k2": self.g4_k2,
            "satellite_bound": self.satellite_bound,
            "gap": self.gap,
        }


def orevkov_gap_report(n: int, twists: int | None = None) -> OrevkovGapReport:
    """Build both family members and compare g4 of the cable against the
    degree-2 satellite bound 2 * g4(companion).

    ``twists`` defaults to ``braids.suggested_twist_count(n)`` and must be odd
    (the parity check inside the genus formula rejects even values, for which
    the closure is a two-component link).
    """
    # only this report builds braid words, so only it loads the braids layer
    from .braids import closure_component_count, exponent_sum, orevkov_k1, orevkov_k2
    from .braids import suggested_twist_count

    if n < 2:
        raise ValueError("the family starts at n = 2")
    if twists is None:
        twists = suggested_twist_count(n)
    if twists < 1:
        raise ValueError("the kink count must be at least 1")
    k1 = orevkov_k1(n)
    bands_k1 = exponent_sum(k1)
    g4_k1 = qp_closure_genus(n, bands_k1).value
    k2 = orevkov_k2(n, twists)
    bands_k2 = exponent_sum(k2)
    g4_k2 = qp_closure_genus(2 * n, bands_k2).value
    if closure_component_count(k2) != 1:
        raise ValueError("the cabled closure is not a knot")
    bound = thm1_knot_bound(g4_k1, 2).value
    return OrevkovGapReport(
        n=n,
        twists=twists,
        bands_k1=bands_k1,
        g4_k1=g4_k1,
        bands_k2=bands_k2,
        g4_k2=g4_k2,
        satellite_bound=bound,
        gap=g4_k2 < bound,
    )
