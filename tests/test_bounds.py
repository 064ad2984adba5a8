import pytest
from hypothesis import given, strategies as st

from satgenus.bounds import (
    FORMULA_IDS,
    QUANTITIES,
    BoundReport,
    bound_reports_to_csv,
    orevkov_gap_report,
    qp_closure_genus,
    schubert_bound,
    thm1_knot_bound,
    thm1_link_bound,
)
from satgenus.braids import suggested_twist_count


def test_report_validation():
    with pytest.raises(ValueError, match="quantity"):
        BoundReport("genus5_lower", "thm1_knot", 0, 0, {})
    with pytest.raises(ValueError, match="formula"):
        BoundReport("genus4_lower", "thm9", 0, 0, {})


def test_report_to_json():
    r = thm1_knot_bound(1, 3)
    assert r.to_json() == {
        "quantity": "genus4_lower",
        "formula_id": "thm1_knot",
        "value": 2,
        "clamped": 2,
        "inputs": {"companion_g4": 1, "winding": 3},
    }


def test_schubert_frozen():
    r = schubert_bound(1, 3)
    assert (r.formula_id, r.quantity, r.value) == ("schubert_1", "genus3_lower", 3)
    r = schubert_bound(1, 3, genus_pattern=2)
    assert (r.formula_id, r.value) == ("schubert_2", 5)
    assert r.inputs == {"companion_genus": 1, "winding": 3, "pattern_genus": 2}
    # the classical bound uses |winding|
    assert schubert_bound(2, -3).value == 6


def test_thm1_frozen():
    assert thm1_knot_bound(1, 3).value == 2
    assert thm1_knot_bound(1, 2).value == 2
    assert thm1_knot_bound(2, 5).value == 8
    assert thm1_link_bound(1, 3).value == 1
    assert thm1_link_bound(1, 2).value == 1
    assert thm1_link_bound(2, 5).value == 6


def test_thm1_clamping():
    r = thm1_knot_bound(0, 5)
    assert r.value == -2
    assert r.clamped == 0
    r = thm1_link_bound(0, 4)
    assert (r.value, r.clamped) == (-3, 0)


def test_qp_closure_frozen():
    assert qp_closure_genus(2, 1).value == 0
    assert qp_closure_genus(2, 3).value == 1
    assert qp_closure_genus(9, 80).value == 36
    r = qp_closure_genus(3, 0)
    assert (r.value, r.clamped) == (-1, 0)


def test_qp_closure_parity_rejection():
    with pytest.raises(ValueError, match="odd"):
        qp_closure_genus(2, 2)
    with pytest.raises(ValueError, match="odd"):
        qp_closure_genus(3, 5)


def test_input_validation():
    with pytest.raises(ValueError):
        schubert_bound(-1, 2)
    with pytest.raises(ValueError):
        thm1_knot_bound(-1, 2)
    with pytest.raises(ValueError):
        thm1_knot_bound(1, -2)
    for bound in (thm1_knot_bound, thm1_link_bound):
        with pytest.raises(ValueError, match="winding number must be positive"):
            bound(5, 0)
    with pytest.raises(ValueError):
        qp_closure_genus(0, 1)


@given(st.integers(0, 5), st.integers(1, 6))
def test_knot_bound_dominates_link_bound(g, n):
    knot = thm1_knot_bound(g, n).value
    link = thm1_link_bound(g, n).value
    assert knot >= link
    assert (knot == link) == (n == 1)


@given(st.integers(0, 5), st.integers(1, 6), st.integers(0, 40))
def test_lemma1_meets_knot_bound(g, n, bands):
    # Lemma 1's exact genus of a satellite with a quasipositive pattern,
    # n g4(companion) + g4(pattern closure), never undercuts Theorem 1
    if (bands - n + 1) % 2:
        bands += 1
    exact = n * g + qp_closure_genus(n, bands).value
    assert exact >= thm1_knot_bound(g, n).value


@given(st.integers(1, 12), st.integers(0, 60))
def test_euler_and_genus_agree_on_knots(strands, bands):
    # the braided surface of a quasipositive knot closure has Euler
    # characteristic strands - bands and one boundary circle
    if (bands - strands + 1) % 2:
        bands += 1
    assert 1 - 2 * qp_closure_genus(strands, bands).value == strands - bands


def test_csv_rendering():
    reports = [
        thm1_knot_bound(1, 3),
        thm1_link_bound(1, 3),
        schubert_bound(1, 3),
    ]
    text = bound_reports_to_csv(reports)
    lines = text.splitlines()
    assert lines[0] == "formula,companion_g4,companion_genus,winding,value"
    assert lines[1] == "thm1_knot,1,,3,2"
    assert lines[2] == "thm1_link,1,,3,1"
    assert lines[3] == "schubert_1,,1,3,3"
    assert len(lines) == 4


def test_csv_no_reports():
    assert bound_reports_to_csv([]) == "formula,value\n"


def test_suggested_twist_count():
    assert suggested_twist_count(2) == 11
    assert suggested_twist_count(9) == 215
    assert suggested_twist_count(12) == 383
    for n in range(2, 30):
        t = suggested_twist_count(n)
        assert t % 2 == 1
        assert t <= (8 * n * n + 2) // 3 < t + 3


def test_gap_report_n9_frozen():
    r = orevkov_gap_report(9)
    assert r.twists == 215
    assert r.bands_k1 == 80
    assert r.g4_k1 == 36
    assert r.bands_k2 == 123
    assert r.g4_k2 == 53
    assert r.satellite_bound == 72
    assert r.gap is True


def test_gap_report_n12_frozen():
    r = orevkov_gap_report(12)
    assert r.twists == 383
    assert r.g4_k1 == 66
    assert r.g4_k2 == 95
    assert r.satellite_bound == 132
    assert r.gap is True


def test_gap_report_small_n_no_gap():
    r = orevkov_gap_report(2, twists=1)
    assert r.g4_k1 == 1
    assert r.g4_k2 == 6
    assert r.satellite_bound == 2
    assert r.gap is False


def test_gap_report_rejects_even_twists():
    with pytest.raises(ValueError):
        orevkov_gap_report(3, twists=4)
    with pytest.raises(ValueError):
        orevkov_gap_report(3, twists=0)


def test_gap_report_json_keys():
    r = orevkov_gap_report(4, twists=3)
    assert set(r.to_json()) == {
        "n",
        "twists",
        "bands_k1",
        "g4_k1",
        "bands_k2",
        "g4_k2",
        "satellite_bound",
        "gap",
    }


def test_registry_contents():
    assert FORMULA_IDS == {"schubert_1", "schubert_2", "thm1_knot", "thm1_link", "qp_euler"}
    assert QUANTITIES == {"genus4_lower", "genus4_exact", "genus3_lower"}
