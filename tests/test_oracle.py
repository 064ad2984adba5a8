import inspect
import itertools
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satgenus import oracle
from satgenus.covering import HomomorphismCover, cover_from_homomorphism
from satgenus.oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    enumerate_covers,
    realizability_table,
    verify_sharpness,
)
from satgenus import perms as perms_module
from satgenus.perms import Permutation, commutator, cycle_count, cycles_str, orbits

from _frobenius import (
    boundary_histogram,
    character,
    class_size,
    commutator_product_count,
    connected_boundary_histogram,
    content_histogram,
    partitions,
)
from _naive import (
    naive_class_product_counts,
    naive_cover_shape,
    naive_first_shape_pairs,
    naive_pair_classes,
    naive_shape_sweep,
)


def _hom(g, n, wit):
    """The oracle's witness, a tuple of image tuples, as monodromy data."""
    return HomomorphismCover(g, n, tuple(map(Permutation, wit)))


def _cycle_texts(wit):
    return [cycles_str(Permutation(images)) for images in wit]


def all_tuples(base_genus, degree):
    perms = [tuple(p) for p in itertools.permutations(range(degree))]
    return itertools.product(perms, repeat=2 * base_genus)


def _refuse_work(monkeypatch):
    """Fail the test if a count or a pair is built: what follows must be
    refused before any work."""
    def refuse(*args):
        raise AssertionError("work done for a refused request")

    monkeypatch.setattr(oracle, "_shape_histogram", refuse)
    monkeypatch.setattr(oracle, "_first_pairs", refuse)


def test_budget_default(monkeypatch):
    assert enumerate_covers(1, 3).budget == DEFAULT_BUDGET
    # no budget means DEFAULT_BUDGET in every entry point: the 4 * 10^6
    # witness entries of two million handles at degree 1 are over it
    _refuse_work(monkeypatch)
    for run in (enumerate_covers, verify_sharpness, realizability_table):
        with pytest.raises(BudgetExceededError) as default:
            run(2 * 10**6, 1)
        with pytest.raises(BudgetExceededError) as explicit:
            run(2 * 10**6, 1, budget=DEFAULT_BUDGET)
        assert str(default.value) == str(explicit.value)
        assert str(default.value).endswith(f"over the budget of {DEFAULT_BUDGET}")


def test_budget_ignores_the_environment(monkeypatch):
    # the budget comes from the argument alone; SATGENUS_BUDGET is not read
    for value in ("10", "ten", "0"):
        monkeypatch.setenv("SATGENUS_BUDGET", value)
        assert enumerate_covers(1, 3).budget == DEFAULT_BUDGET
        assert enumerate_covers(1, 3, budget=5248).total_tuples == 36


def test_budget_argument():
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_covers(1, 5, budget=100)
    assert "4676" in str(exc.value)
    assert "100" in str(exc.value)
    with pytest.raises(BudgetExceededError):
        realizability_table(1, 5, budget=100)
    with pytest.raises(BudgetExceededError):
        verify_sharpness(1, 5, budget=100)


def test_bad_parameters():
    with pytest.raises(ValueError):
        enumerate_covers(0, 3)
    with pytest.raises(ValueError):
        enumerate_covers(1, 0)
    with pytest.raises(ValueError):
        enumerate_covers(1, 3, budget=0)


def test_enumerate_genus1_degree2_frozen():
    r = enumerate_covers(1, 2)
    assert r.total_tuples == 4
    assert r.violations == ()
    assert r.min_genus_overall == 1
    assert _cycle_texts(r.min_overall_witness) == ["()", "(1 2)"]
    assert r.min_genus_connected_boundary is None
    assert r.connected_boundary_witness is None
    assert r.boundary_k_histogram == {2: 4}


def test_enumerate_genus1_degree3_frozen():
    r = enumerate_covers(1, 3)
    assert r.total_tuples == 36
    assert r.violations == ()
    assert r.min_genus_overall == 1
    assert _cycle_texts(r.min_overall_witness) == ["()", "(1 2 3)"]
    assert r.min_genus_connected_boundary == 2
    assert _cycle_texts(r.connected_boundary_witness) == ["(2 3)", "(1 2)"]
    # commutator classes in S3: 18 commuting pairs, 18 whose commutator is
    # a 3-cycle
    assert r.boundary_k_histogram == {1: 18, 3: 18}


def test_histogram_counts_every_tuple():
    for g, n in [(1, 2), (1, 3), (2, 2), (1, 4)]:
        r = enumerate_covers(g, n)
        assert sum(r.boundary_k_histogram.values()) == r.total_tuples


def test_realizability_genus1_degree3_frozen():
    table = realizability_table(1, 3)
    rendered = {key: _cycle_texts(wit) for key, wit in table.items()}
    assert rendered == {
        (1, 1, 2): ["(2 3)", "(1 2)"],
        (1, 3, 1): ["()", "(1 2 3)"],
        (2, 3, 2): ["()", "(2 3)"],
        (3, 3, 3): ["()", "()"],
    }


def test_realizability_witnesses_reproduce_their_class():
    for g, n in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]:
        for (m, k, genus), wit in realizability_table(g, n).items():
            cover = cover_from_homomorphism(_hom(g, n, wit)).cover
            assert (cover.components, cover.boundary_components, cover.genus_total) == (
                m,
                k,
                genus,
            )


def test_scan_agrees_with_naive_exhaustion():
    for g, n in [(1, 2), (1, 3), (2, 2), (1, 4)]:
        classes = {}
        hist = {}
        for images in all_tuples(g, n):
            m, k, genus = naive_cover_shape(g, images)
            classes.setdefault((m, k, genus), images)
            hist[k] = hist.get(k, 0) + 1
        table = realizability_table(g, n)
        assert set(table) == set(classes)
        # itertools.product is lexicographic, so first seen = lex first
        for key, wit in table.items():
            assert wit == classes[key]
        assert enumerate_covers(g, n).boundary_k_histogram == hist


def test_floor_for_unbranched_covers():
    for g, n in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]:
        r = enumerate_covers(g, n)
        assert r.min_genus_overall == n * g - (n - 1)
        assert r.violations == ()


def test_floor_for_connected_boundary():
    # attained for odd degree, empty for even degree
    assert enumerate_covers(1, 3).min_genus_connected_boundary == 2
    assert enumerate_covers(1, 5).min_genus_connected_boundary == 3
    assert enumerate_covers(2, 3).min_genus_connected_boundary == 5
    assert enumerate_covers(1, 2).min_genus_connected_boundary is None
    assert enumerate_covers(1, 4).min_genus_connected_boundary is None
    assert enumerate_covers(2, 2).min_genus_connected_boundary is None


def test_min_witnesses_reproduce_their_minima():
    for g, n in [(1, 3), (1, 4), (2, 3)]:
        r = enumerate_covers(g, n)
        cover = cover_from_homomorphism(_hom(g, n, r.min_overall_witness)).cover
        assert cover.genus_total == r.min_genus_overall
        if r.connected_boundary_witness is not None:
            cover = cover_from_homomorphism(_hom(g, n, r.connected_boundary_witness)).cover
            assert cover.boundary_components == 1
            assert cover.genus_total == r.min_genus_connected_boundary


def test_json_deterministic_across_runs():
    baseline = json.dumps(enumerate_covers(2, 4).to_json(), sort_keys=True)
    again = json.dumps(enumerate_covers(2, 4).to_json(), sort_keys=True)
    assert baseline == again


def test_the_oracle_keeps_no_cache():
    # every request builds its pairs and counts afresh, so no test carries
    # state into the next
    assert not [name for name, obj in vars(oracle).items() if hasattr(obj, "cache_clear")]


def test_report_json_shape():
    data = enumerate_covers(1, 3).to_json()
    assert data["base_genus"] == 1
    assert data["degree"] == 3
    assert data["budget"] == DEFAULT_BUDGET
    assert data["violations"] == []
    assert data["boundary_k_histogram"] == {"1": 18, "3": 18}
    assert isinstance(data["min_overall_witness"], list)
    json.dumps(data)  # serializable as-is


def test_sharpness_small_grid():
    for g, n in [(1, 2), (1, 3), (1, 4), (2, 2)]:
        report = verify_sharpness(g, n)
        assert report.ok, (g, n, report.checks, report.counterexamples)
        assert all(report.checks.values())
        assert report.counterexamples == ()


def test_sharpness_checks_depend_on_parity():
    odd = verify_sharpness(1, 3)
    assert "connected_boundary_floor_attained_unbranched" in odd.checks
    assert "no_branched_connected_boundary" in odd.checks
    even = verify_sharpness(1, 4)
    assert "no_unbranched_connected_boundary" in even.checks
    assert "connected_boundary_floor_attained_branched" in even.checks
    assert "connected_boundary_minimizers_merge_two_circles" in even.checks


def test_sharpness_notes_frozen():
    notes = verify_sharpness(1, 3).notes
    assert notes["unbranched_floor"] == 1
    assert notes["connected_boundary_floor"] == 2
    assert notes["min_genus_overall"] == 1
    assert notes["min_genus_connected_boundary_unbranched"] == 2
    assert notes["min_genus_connected_boundary_branched"] is None
    assert notes["floor_value_boundary_counts_unbranched"] == [1, 3]

    notes = verify_sharpness(1, 4).notes
    assert notes["unbranched_floor"] == 1
    assert notes["connected_boundary_floor"] == 3
    assert notes["min_genus_connected_boundary_unbranched"] is None
    assert notes["min_genus_connected_boundary_branched"] == 3
    assert notes["floor_value_boundary_counts_unbranched"] == [2, 4]


def test_sharpness_json_round_trip():
    report = verify_sharpness(1, 3)
    data = report.to_json()
    assert data["ok"] is True
    assert data["checks"] == report.checks
    json.dumps(data)


# the first three permutations of S_5 and of S_4, as image tuples
E5, A5, B5 = (0, 1, 2, 3, 4), (0, 1, 2, 4, 3), (0, 1, 3, 2, 4)
E4, A4, B4 = (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)


@pytest.mark.parametrize(
    "n, extra, failing, findings",
    [
        # odd degree: floors 1 and 3; a disconnected shape below the first,
        # a connected one-circle shape below the second
        (
            5,
            {(2, 5, 0): (A5, E5), (1, 1, 2): (B5, E5)},
            {
                "unbranched_floor_holds",
                "unbranched_floor_attained",
                "connected_boundary_floor_holds",
                "connected_boundary_floor_attained_unbranched",
            },
            [
                ("connected_boundary_floor", 1, 1, 2, (B5, E5), None),
                ("unbranched_floor", 2, 5, 0, (A5, E5), None),
                ("connected_boundary_equality", 1, 1, 2, (B5, E5), None),
            ],
        ),
        # even degree: floors 1 and 3; the one-circle shape sits on the
        # unbranched floor, and splitting its circle keeps it there
        (
            4,
            {(2, 4, 0): (A4, E4), (1, 1, 1): (B4, E4)},
            {
                "unbranched_floor_holds",
                "unbranched_floor_attained",
                "unbranched_floor_equality_characterized",
                "connected_boundary_floor_holds",
                "branched_stays_above_unbranched_floor",
                "no_unbranched_connected_boundary",
            },
            [
                ("connected_boundary_floor", 1, 1, 1, (B4, E4), None),
                ("unbranched_floor", 2, 4, 0, (A4, E4), None),
                ("unbranched_floor_equality", 1, 1, 1, (B4, E4), None),
                ("connected_boundary_parity", 1, 1, 1, (B4, E4), None),
                ("branched_floor_equality", 1, 2, 1, (B4, E4), "split"),
            ],
        ),
    ],
)
def test_shapes_below_the_floors_fail_their_checks(monkeypatch, n, extra, failing, findings):
    real = oracle._shape_rows
    monkeypatch.setattr(oracle, "_shape_rows", lambda g, n: {**real(g, n), **extra})
    report = verify_sharpness(1, n)
    assert not report.ok
    assert {name for name, held in report.checks.items() if not held} == failing
    assert [
        (c["check"], c["components"], c["boundary"], c["genus"], c["witness"], c.get("move"))
        for c in report.counterexamples
    ] == findings
    assert report.notes["min_genus_overall"] == 0
    assert report.notes["min_genus_connected_boundary_unbranched"] == min(
        genus for (m, k, genus) in extra if k == 1
    )
    json.dumps(report.to_json())


def test_enumeration_and_sharpness_share_one_class_table():
    # all three entry points build the same pairs; make sure they agree on them
    direct = realizability_table(2, 4)
    r1 = enumerate_covers(2, 4)
    sharp = verify_sharpness(2, 4)
    assert r1.min_genus_overall == min(genus for (_, _, genus) in direct)
    assert sharp.notes["min_genus_overall"] == r1.min_genus_overall
    assert sharp.notes["floor_value_boundary_counts_unbranched"] == sorted(
        {k for (_, k, genus) in direct if genus == sharp.notes["connected_boundary_floor"]}
    )


def test_witness_entries_are_image_tuples():
    r = enumerate_covers(1, 3)
    witnesses = [r.min_overall_witness, r.connected_boundary_witness, *realizability_table(1, 3).values()]
    for wit in witnesses:
        assert type(wit) is tuple and len(wit) == 2
        for images in wit:
            assert type(images) is tuple
            # a 0-indexed bijection of degree 3, or Permutation refuses it
            assert Permutation(images).degree == 3


def test_frobenius_oracle_matches_naive_exhaustion():
    for g, n in [(1, 1), (1, 2), (1, 3), (2, 2), (1, 4)]:
        hist = {}
        for images in all_tuples(g, n):
            k = naive_cover_shape(g, images)[1]
            hist[k] = hist.get(k, 0) + 1
        assert boundary_histogram(g, n) == hist


def test_frobenius_connected_rows_match_naive_exhaustion():
    for g, n in [(1, 1), (1, 2), (1, 3), (2, 2), (1, 4), (2, 3)]:
        hist = {}
        for images in all_tuples(g, n):
            m, k, _ = naive_cover_shape(g, images)
            if m == 1:
                hist[k] = hist.get(k, 0) + 1
        assert connected_boundary_histogram(g, n) == hist


def _frobenius_by_type(g, n):
    return {mu: class_size(mu) * commutator_product_count(g, mu) for mu in partitions(n)}


def _by_boundary_circles(counts, n):
    """Counts by cycle type, summed by the number of cycles k = 0..n."""
    hist = [0] * (n + 1)
    for kind, count in counts.items():
        hist[len(kind)] += count
    return hist


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pair_classes_match_naive_double_loop(n):
    # the pairs by the cycle type of their commutator: the double loop
    # against Murnaghan-Nakayama characters type by type, and the oracle's
    # content count against it cycle count by cycle count
    naive = {}
    for (c, _), count, _ in naive_pair_classes(n):
        kind = perms_module.cycle_type(Permutation(c))
        naive[kind] = naive.get(kind, 0) + count
    assert {kind: count for kind, count in _frobenius_by_type(1, n).items() if count} == naive
    assert oracle._boundary_histograms(1, n)[-1] == _by_boundary_circles(naive, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_boundary_histograms_match_class_products_and_genus_levels(n):
    # every cycle type, odd ones at 0, by the route of one genus level per
    # handle against the characters, and the oracle's counts against both
    # summed by cycle count
    genera = (1, 2, 3, 20) if n <= 6 else (1, 2, 3)
    for g, counts in naive_class_product_counts(n, genera).items():
        assert _frobenius_by_type(g, n) == counts
        assert oracle._boundary_histograms(g, n)[-1] == _by_boundary_circles(counts, n)


@pytest.mark.parametrize("g", [1, 2, 5, 40])
def test_the_partition_walk_matches_the_per_size_route(g):
    # one walk over the partitions of every size up to 20 against the same
    # formula computed size by size, each partition built box by box
    hists = oracle._boundary_histograms(g, 20)
    assert [len(hist) for hist in hists] == list(range(2, 22))
    for j, hist in enumerate(hists, 1):
        assert hist == content_histogram(g, j)


def test_the_partition_walk_needs_no_recursion():
    # a budget of 10^100 admits degrees in the thousands, where a recursive
    # walk would end the request in a RecursionError
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack(0))
    sys.setrecursionlimit(depth + 20)
    try:
        hists = oracle._boundary_histograms(1, 30)
    finally:
        sys.setrecursionlimit(limit)
    assert sum(hists[-1]) == math.factorial(30) ** 2


@pytest.mark.parametrize("n", range(1, 8))
def test_characters_summed_by_cycles_are_the_degree_times_the_contents(n):
    # the two identities the oracle counts by: sum over mu of |C_mu|
    # chi_lam(mu) x^len(mu) = d_lam prod (x + col - row) over the boxes of
    # lam (Jucys-Murphy), and n!/d_lam = the product of the hook lengths
    for lam in partitions(n):
        by_cycles = [0] * (n + 1)
        for mu in partitions(n):
            by_cycles[len(mu)] += class_size(mu) * character(lam, mu)
        degree = character(lam, (1,) * n)
        product, hooks = [degree], 1
        for row, part in enumerate(lam):
            for col in range(part):
                product = [lower + (col - row) * c for lower, c in zip([0] + product, product + [0])]
                hooks *= part - col + sum(below > col for below in lam[row + 1:])
        assert by_cycles == product
        assert hooks * degree == math.factorial(n)


def _shape(g, n, wit):
    """The shape of a witness by the covering layer, with the orbits and
    commutator cycles of its pair counted again by perms: every entry before
    the pair is the identity."""
    cover = cover_from_homomorphism(_hom(g, n, wit)).cover
    s, q = map(Permutation, wit[-2:])
    assert set(wit[:-2]) <= {tuple(range(n))}
    assert (len(orbits([s, q])), cycle_count(commutator(s, q))) == (cover.components, cover.boundary_components)
    return cover.components, cover.boundary_components, cover.genus_total


@pytest.mark.parametrize("n", [9, 10, 12])
def test_enumerations_past_degree_eight_match_frobenius(n):
    # neither the counts nor the witnesses build an S_n table, so degrees
    # past 8 are served in full
    for g in (1, 2, 5):
        hist = oracle._boundary_histograms(g, n)[-1]
        assert {k: count for k, count in enumerate(hist) if count} == boundary_histogram(g, n)
        connected = {k: count for (m, k), count in oracle._shape_histogram(g, n).items() if m == 1}
        assert connected == connected_boundary_histogram(g, n)
    for g in (1, 2):
        r = enumerate_covers(g, n)
        assert r.boundary_k_histogram == boundary_histogram(g, n)
        assert _shape(g, n, r.min_overall_witness)[2] == r.min_genus_overall
        table = realizability_table(g, n)
        assert len(table) == (n + 1) ** 2 // 4
        for key, wit in table.items():
            assert _shape(g, n, wit) == key


@given(g=st.integers(1, 3), n=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_every_built_witness_has_its_shape(g, n):
    table = realizability_table(g, n, budget=10**20)
    assert {(m, k) for m, k, _ in table} == {
        (m, k) for k in range(1, n + 1) if (n - k) % 2 == 0 for m in range(1, k + 1)
    }
    for key, wit in table.items():
        assert _shape(g, n, wit) == key


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_shape_witnesses_match_naive_double_loop(n):
    assert oracle._first_pairs(n) == naive_first_shape_pairs(n)


def test_each_witness_row_is_the_first_of_its_cycle_type():
    # the proof sketch of the module docstring: s = (n-j ... n) is the first
    # permutation of its cycle type, and the first pairs of all 12 shapes of
    # S_6 lie in rows s <= 3
    for n, last in [(5, 3), (6, 3), (7, 9)]:
        perms = list(itertools.permutations(range(n)))
        rows = [perms.index(s) for s, _ in oracle._first_pairs(n).values()]
        assert max(rows) == last
        types = [perms_module.cycle_type(Permutation(p)) for p in perms]
        for s in rows:
            assert types.index(types[s]) == s


def test_a_built_pair_of_another_shape_is_a_bug(monkeypatch):
    # count one orbit too many for every pair
    orbits_of = oracle._orbits
    monkeypatch.setattr(oracle, "_orbits", lambda n, *perms: [*orbits_of(n, *perms), ()])
    with pytest.raises(AssertionError, match=r"the pair built for the shape \(1, 1\) has another shape"):
        enumerate_covers(1, 3)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_shape_witnesses_match_a_naive_row_sweep(n):
    witnesses = oracle._first_pairs(n)
    first, rows = naive_shape_sweep(n, witnesses.keys())
    assert first == witnesses
    perms = list(itertools.permutations(range(n)))
    assert rows == max(perms.index(s) for s, _ in witnesses.values()) + 1


BEYOND_EXHAUSTION = [(4, 3), (2, 5), (3, 5), (10, 5), (1, 6), (1, 7), (2, 7), (7, 7)]


@pytest.mark.parametrize("g,n", BEYOND_EXHAUSTION)
def test_histogram_matches_frobenius_count(g, n):
    r = enumerate_covers(g, n)
    assert r.boundary_k_histogram == boundary_histogram(g, n)
    assert sum(r.boundary_k_histogram.values()) == r.total_tuples


@pytest.mark.parametrize("g,n", BEYOND_EXHAUSTION)
def test_every_witness_reproduces_its_class(g, n):
    def shape(wit):
        cover = cover_from_homomorphism(_hom(g, n, wit)).cover
        return cover.components, cover.boundary_components, cover.genus_total

    for key, wit in realizability_table(g, n).items():
        assert shape(wit) == key
    r = enumerate_covers(g, n)
    assert shape(r.min_overall_witness)[2] == r.min_genus_overall
    if r.connected_boundary_witness is not None:
        _, k, genus = shape(r.connected_boundary_witness)
        assert (k, genus) == (1, r.min_genus_connected_boundary)


@pytest.mark.parametrize("g,n", BEYOND_EXHAUSTION)
def test_connected_rows_match_frobenius_count(g, n):
    connected = {k for (m, k, _) in realizability_table(g, n) if m == 1}
    assert connected == set(connected_boundary_histogram(g, n))


def test_enumeration_at_degree_eight():
    r = enumerate_covers(1, 8)
    assert r.boundary_k_histogram == boundary_histogram(1, 8)
    assert r.total_tuples == math.factorial(8) ** 2
    cover = cover_from_homomorphism(_hom(1, 8, r.min_overall_witness)).cover
    assert cover.genus_total == r.min_genus_overall == 1
    # even degree: no unbranched cover has connected boundary
    assert r.connected_boundary_witness is r.min_genus_connected_boundary is None
    # genus 2, and its shape check over degrees 1..8
    assert enumerate_covers(2, 8).boundary_k_histogram == boundary_histogram(2, 8)
    table = realizability_table(2, 8)
    assert len(table) == 20
    for key, wit in table.items():
        cover = cover_from_homomorphism(_hom(2, 8, wit)).cover
        assert (cover.components, cover.boundary_components, cover.genus_total) == key


@pytest.mark.parametrize("degree", [10**12, 10**400])
@pytest.mark.parametrize("budget,reach", [(None, 30), (10**20, 110)])
def test_huge_degrees_are_refused_before_any_work(monkeypatch, degree, budget, reach):
    # the character counts of degrees 2, 3, ... pass the budget within a
    # few dozen terms, before n! or a partition of n is formed
    _refuse_work(monkeypatch)
    factorial = math.factorial
    monkeypatch.setattr(math, "factorial", lambda n: factorial(n) if n <= 1000 else pytest.fail("formed n!"))
    for run in (enumerate_covers, verify_sharpness, realizability_table):
        with pytest.raises(BudgetExceededError, match=f"character counts of degrees up to {reach} alone"):
            run(1, degree, budget=budget)


def test_the_default_budget_reaches_degree_29_at_genus_1_and_27_at_genus_2():
    assert oracle._check_budget(1, 29, None) == oracle._check_budget(2, 27, None) == DEFAULT_BUDGET
    for g, n in ((1, 30), (2, 28)):
        with pytest.raises(BudgetExceededError):
            oracle._check_budget(g, n, None)


@pytest.mark.parametrize("g,n", [(1, 20), (2, 27), (1, 29)])
def test_sharpness_past_degree_eight(g, n):
    # the witnesses reach as far as the budget: the floors hold and are
    # attained where the paper says, at even and odd degree
    report = verify_sharpness(g, n)
    assert report.ok, (report.checks, report.counterexamples)
    assert report.notes["min_genus_overall"] == n * g - (n - 1)


def test_sharpness_at_degree_seven():
    report = verify_sharpness(1, 7)
    assert report.ok, (report.checks, report.counterexamples)
    assert report.notes["connected_boundary_floor"] == 4


@pytest.mark.parametrize("n", range(1, 8))
def test_budget_counts_the_shapes_the_rule_builds(n):
    # the budget charges one witness tuple per shape (m, k), m <= k <= n,
    # k = n mod 2, before any pair exists
    assert len(oracle._first_pairs(n)) == (n + 1) ** 2 // 4


def test_partition_counts_match_the_partitions():
    # the budget counts p(j) by recurrence, the reference route lists them
    counts = [1, 1]
    for j in range(2, 30):
        assert oracle._next_partition_count(counts) == len(partitions(j))
    assert counts[-1] == 4565


@pytest.mark.parametrize("g,n", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
def test_shape_histogram_matches_naive_exhaustion(g, n):
    shapes = {}
    for images in all_tuples(g, n):
        m, k, _ = naive_cover_shape(g, images)
        shapes[m, k] = shapes.get((m, k), 0) + 1
    assert oracle._shape_histogram(g, n) == shapes


def test_a_shape_missing_past_genus_one_is_a_bug(monkeypatch):
    # the shapes an enumeration counts at any genus, genus 1 too, must be
    # those of the pairs; drop one
    counted = oracle._shape_histogram

    def drop_one(g, n):
        shapes = counted(g, n)
        del shapes[max(shapes)]
        return shapes

    monkeypatch.setattr(oracle, "_shape_histogram", drop_one)
    for g in (1, 2):
        with pytest.raises(AssertionError, match=f"shapes at genus {g} are not those of the pairs"):
            enumerate_covers(g, 3)


def test_sharpness_and_the_table_read_no_histogram(monkeypatch):
    # neither reads a histogram, so a deep genus costs them no count
    def refuse(g, n):
        raise AssertionError("counted tuples that no report reads")

    monkeypatch.setattr(oracle, "_boundary_histograms", refuse)
    assert verify_sharpness(400, 5).ok
    assert len(realizability_table(400, 5)) == 9


def test_budget_counts_work_not_tuples():
    # (3, 5) has 120^6 tuples, far over the default budget, but the estimate
    # charges 256 for each of nine shapes' six witness entries, and 1 per 8
    # bits of the character counts of each degree j = 2..5, p(j) + p(j)^2
    # numbers of 5 log2 j! bits; its 13-digit counts print for nothing
    work = 256 * 54 + (3 + 19 + 85 + 241)
    assert work == 14172
    assert enumerate_covers(3, 5, budget=work).total_tuples == 120**6 > DEFAULT_BUDGET
    with pytest.raises(BudgetExceededError):
        enumerate_covers(3, 5, budget=work - 1)


def test_budget_at_genus_one_charges_the_witnesses_and_counts():
    # 256 for each of two entries of a witness per shape, and 1 per 8 bits
    # of p(j) + p(j)^2 character counts of log2 j! bits for each degree
    # j <= n: 0, 3 and 3 + 17
    for n, shapes, counts in ((2, 2, 0), (3, 4, 3), (4, 6, 20)):
        work = 256 * 2 * shapes + counts
        assert enumerate_covers(1, n, budget=work).total_tuples == math.factorial(n) ** 2
        with pytest.raises(BudgetExceededError):
            enumerate_covers(1, n, budget=work - 1)


def test_budget_is_checked_before_any_work(monkeypatch):
    _refuse_work(monkeypatch)
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_covers(2, 5, budget=9424)
    assert "estimated 9425 work units" in str(exc.value)


def test_the_digit_limit_changes_no_report_or_refusal():
    # the budget alone refuses an enumeration: the interpreter's limit on
    # int digits, whatever it is, changes no report and no refusal; the
    # first three tuple counts have 1001, 4301 and 4302 digits
    cases = ((1661, 2), (2763, 3), (467, 8), (10**400, 3))
    saved = sys.get_int_max_str_digits()
    outcomes = {case: [] for case in cases}
    try:
        for limit in (640, 4300, 0):
            sys.set_int_max_str_digits(limit)
            for g, n in cases:
                try:
                    outcomes[g, n].append(enumerate_covers(g, n))
                except BudgetExceededError as exc:
                    outcomes[g, n].append(str(exc))
    finally:
        sys.set_int_max_str_digits(saved)
    for (g, n), (first, *rest) in outcomes.items():
        assert rest == [first, first]
        if g < 10**400:
            assert first.total_tuples == math.factorial(n) ** (2 * g)
        else:
            assert "work units" in first


def test_budget_refuses_one_more_handle_before_any_work(monkeypatch):
    # genus 2 (9425 units) fits, genus 3 does not: its estimate, nine
    # witnesses two entries longer (4608 units) and character counts
    # 2 log2 j! bits longer (139), is refused before any pair or count
    _refuse_work(monkeypatch)
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_covers(3, 5, budget=9425)
    assert f"estimated {9425 + 256 * 18 + 139} work units" in str(exc.value)


def test_a_deep_genus_is_refused_before_any_work(monkeypatch):
    # a billion handles at degree 1, and a genus of a million or of 401
    # digits at degree 3
    _refuse_work(monkeypatch)
    for g, n in ((10**9, 1), (10**6, 3), (10**400, 3)):
        for run in (enumerate_covers, verify_sharpness, realizability_table):
            with pytest.raises(BudgetExceededError, match="work units"):
                run(g, n)
