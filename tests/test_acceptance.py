"""End-to-end acceptance checks.

One test per criterion.  Each prints a single pass/fail line (visible under
``pytest -s`` or ``-rA``) and enforces its own wall-clock limit, so a slow
regression fails loudly instead of quietly eating the suite's time.
"""

import itertools
import time
from contextlib import contextmanager

import pytest

from satgenus.bounds import orevkov_gap_report
from satgenus.braids import (
    closure_component_count,
    concat,
    exponent_sum,
    half_twist,
    orevkov_k1,
)
from satgenus.covering import (
    HomomorphismCover,
    SurfaceShape,
    add_branch_point,
    cover_from_homomorphism,
    cyclic_cover,
)
from satgenus.oracle import enumerate_covers, verify_sharpness
from satgenus.perms import (
    Permutation,
    commutator,
    cycle_type,
    example1_pair,
    example2_pair,
    is_even,
    is_transitive,
    ore_commutator_search,
)


@contextmanager
def criterion(name, seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {name}: PASS ({elapsed:.3f}s, limit {seconds:.0f}s)")
    if elapsed >= seconds:
        pytest.fail(f"criterion {name} took {elapsed:.3f}s, over the {seconds:.0f}s limit")


def test_knot_family_exponent_growth():
    with criterion("knot family exponent growth", 1.0):
        for n in range(2, 11):
            assert exponent_sum(orevkov_k1(n)) == n * n - 1


def test_closure_component_counts():
    with criterion("closure component counts", 1.0):
        for n in range(2, 9):
            twist = half_twist(n)
            assert closure_component_count(concat(twist, twist)) == n
            assert closure_component_count(orevkov_k1(n)) == 1


def test_involution_pair_commutators():
    with criterion("involution pair commutators", 1.0):
        for m in range(1, 11):
            s1, s2 = example1_pair(m)
            assert s1.degree == 2 * m + 1
            assert cycle_type(commutator(s1, s2)) == (2 * m + 1,)
            assert is_transitive([s1, s2])
        for m in range(2, 11):
            s1, s2 = example2_pair(m)
            assert s1.degree == 2 * m
            assert cycle_type(commutator(s1, s2)) == (m, m)
            assert is_transitive([s1, s2])


def test_cover_ledger():
    with criterion("cover ledger", 1.0):
        for g in range(1, 4):
            for n in range(1, 7):
                assert cyclic_cover(g, n).cover == SurfaceShape(1, n * g - (n - 1), n)
        s1, s2 = example1_pair(3)
        odd = cover_from_homomorphism(HomomorphismCover(1, 7, (s1, s2)))
        assert odd.cover == SurfaceShape(1, 4, 1)
        assert odd.cover.genus_total == 7 * 1 - (7 - 1) // 2
        s1, s2 = example2_pair(4)
        even = cover_from_homomorphism(HomomorphismCover(1, 8, (s1, s2)))
        assert even.cover == SurfaceShape(1, 4, 2)
        merged = add_branch_point(even, merge=(0, 1))
        assert merged.cover == SurfaceShape(1, 5, 1)
        assert merged.cover.genus_total == 8 * 1 - (8 - 2) // 2


def test_exhaustive_floors_and_sharpness():
    grid = [(g, n) for g in (1, 2) for n in (2, 3, 4)] + [(1, 5)]
    with criterion("exhaustive floors and sharpness", 60.0):
        for g, n in grid:
            report = enumerate_covers(g, n)
            assert report.violations == (), (g, n)
            assert report.min_genus_overall == n * g - (n - 1)
            sharp = verify_sharpness(g, n)
            assert sharp.ok, (g, n, sharp.checks, sharp.counterexamples)


def test_cable_genus_gap():
    with criterion("cable genus gap", 1.0):
        for n in (9, 12):
            r = orevkov_gap_report(n)
            assert r.gap, r
            assert r.g4_k2 < r.satellite_bound == 2 * r.g4_k1
            # g4 of the cable sits in the window [0.55, 0.8] * n^2, checked
            # without floats
            assert 55 * n * n <= 100 * r.g4_k2 <= 80 * n * n


def test_commutator_witness_search():
    with criterion("commutator witness search", 30.0):
        for degree in (4, 5):
            for images in itertools.permutations(range(degree)):
                target = Permutation(images)
                witness = ore_commutator_search(target)
                if is_even(target):
                    assert witness is not None
                    a, b = witness
                    assert commutator(a, b) == target
                else:
                    assert witness is None
