import itertools
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from satgenus import covering
from satgenus.covering import (
    CoverData,
    HomomorphismCover,
    SurfaceShape,
    add_branch_point,
    boundary_permutation,
    cover_data_to_json,
    cover_from_homomorphism,
    cyclic_cover,
    euler_characteristic,
    rh_euler,
)
from satgenus.perms import (
    Permutation,
    example1_pair,
    example2_pair,
    identity,
    is_even,
    parse_cycles,
)

from _naive import naive_cover_shape, naive_cycles


@st.composite
def monodromy(draw, max_genus=2, max_degree=5):
    g = draw(st.integers(1, max_genus))
    n = draw(st.integers(1, max_degree))
    images = tuple(
        Permutation(tuple(draw(st.permutations(range(n))))) for _ in range(2 * g)
    )
    return HomomorphismCover(g, n, images)


def test_surface_shape_validation():
    with pytest.raises(ValueError):
        SurfaceShape(0, 0, 1)
    with pytest.raises(ValueError):
        SurfaceShape(1, -1, 1)
    with pytest.raises(ValueError):
        SurfaceShape(1, 0, -1)


def test_euler_characteristic():
    assert euler_characteristic(SurfaceShape(1, 0, 1)) == 1  # disc
    assert euler_characteristic(SurfaceShape(1, 1, 1)) == -1  # one-holed torus
    assert euler_characteristic(SurfaceShape(1, 2, 0)) == -2  # closed genus 2
    assert euler_characteristic(SurfaceShape(3, 0, 3)) == 3  # three discs


def test_rh_euler():
    assert rh_euler(1, -1, 0) == -1
    assert rh_euler(7, -1, 0) == -7
    assert rh_euler(8, -1, 1) == -9
    with pytest.raises(ValueError):
        rh_euler(0, -1, 0)
    with pytest.raises(ValueError):
        rh_euler(2, -1, -1)


def test_cover_data_validation():
    base = SurfaceShape(1, 1, 1)  # chi = -1
    CoverData(3, base, 0, SurfaceShape(1, 1, 3))
    with pytest.raises(ValueError, match="Euler"):
        CoverData(3, base, 0, SurfaceShape(1, 1, 2))
    with pytest.raises(ValueError, match="component count"):
        CoverData(3, base, 0, SurfaceShape(4, 1, 9))  # chi -3 but 4 pieces
    with pytest.raises(ValueError, match="outnumber"):
        CoverData(3, base, 0, SurfaceShape(1, 0, 5))  # chi -3 but 5 circles
    with pytest.raises(ValueError, match="connected"):
        CoverData(2, SurfaceShape(2, 2, 2), 0, SurfaceShape(1, 1, 8))


@pytest.mark.parametrize("degree, base, cover", [
    (1, SurfaceShape(1, 0, 2), SurfaceShape(1, 0, 2)),  # the identity cover of an annulus
    (1, SurfaceShape(1, 2, 0), SurfaceShape(1, 2, 0)),  # a closed base
    (3, SurfaceShape(1, 1, 2), SurfaceShape(1, 3, 2)),
])
def test_cover_data_accepts_bases_without_exactly_one_boundary_circle(degree, base, cover):
    # the parity rule reads -degree * chi(base), whatever the base boundary
    assert CoverData(degree, base, 0, cover).cover == cover


def test_homomorphism_validation():
    with pytest.raises(ValueError):
        HomomorphismCover(0, 3, ())
    with pytest.raises(ValueError):
        HomomorphismCover(1, 3, (identity(3),))
    with pytest.raises(ValueError):
        HomomorphismCover(1, 3, (identity(3), identity(4)))


def test_boundary_permutation_single_handle():
    s1, s2 = example1_pair(3)
    b = boundary_permutation(HomomorphismCover(1, 7, (s1, s2)))
    assert b.degree == 7
    assert sorted(len(c) for c in naive_cycles(b.images)) == [7]


def test_boundary_permutation_two_handles():
    a = parse_cycles("(1 2 3)", 3)
    h = HomomorphismCover(2, 3, (a, identity(3), identity(3), a))
    # both commutators are trivial, so the boundary is trivial
    assert boundary_permutation(h) == identity(3)

    s1, s2 = example1_pair(1)
    h = HomomorphismCover(2, 3, (s1, s2, identity(3), identity(3)))
    assert boundary_permutation(h) == parse_cycles("(1 3 2)", 3)


@given(monodromy())
def test_boundary_permutation_is_even(h):
    assert is_even(boundary_permutation(h))


def test_cover_from_homomorphism_frozen_cases():
    # one handle, full 7-cycle commutator: connected boundary, genus 7-3
    s1, s2 = example1_pair(3)
    cover = cover_from_homomorphism(HomomorphismCover(1, 7, (s1, s2)))
    assert cover.cover == SurfaceShape(1, 4, 1)
    assert cover.branch_total == 0

    # one handle, commutator a pair of 4-cycles: two boundary circles
    s1, s2 = example2_pair(4)
    cover = cover_from_homomorphism(HomomorphismCover(1, 8, (s1, s2)))
    assert cover.cover == SurfaceShape(1, 4, 2)

    # trivial images: n disjoint copies of the base
    cover = cover_from_homomorphism(HomomorphismCover(1, 5, (identity(5), identity(5))))
    assert cover.cover == SurfaceShape(5, 5, 5)


@given(monodromy())
def test_cover_from_homomorphism_matches_naive(h):
    cover = cover_from_homomorphism(h).cover
    images = tuple(p.images for p in h.generator_images)
    m, k, genus = naive_cover_shape(h.base_genus, images)
    assert (cover.components, cover.boundary_components, cover.genus_total) == (m, k, genus)


def test_cyclic_cover_grid():
    for g in range(1, 4):
        for n in range(1, 7):
            data = cyclic_cover(g, n)
            assert data.cover.components == 1
            assert data.cover.boundary_components == n
            assert data.cover.genus_total == n * g - (n - 1)
            assert data.branch_total == 0
            assert euler_characteristic(data.cover) == n * (1 - 2 * g)


@pytest.mark.parametrize("g, n", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3)])
def test_every_homomorphism_cover_has_a_positive_integer_genus(g, n):
    # the docstring's bound: twice the genus is even and at least 2
    images = [Permutation(p) for p in itertools.permutations(range(n))]
    for data in itertools.product(images, repeat=2 * g):
        genus = cover_from_homomorphism(HomomorphismCover(g, n, data)).cover.genus_total
        assert type(genus) is int and genus >= 1


def test_cyclic_cover_checks_its_closed_form(monkeypatch):
    wrong = CoverData(3, SurfaceShape(1, 1, 1), 0, SurfaceShape(3, 3, 3))
    monkeypatch.setattr(covering, "cover_from_homomorphism", lambda h: wrong)
    with pytest.raises(AssertionError, match="this is a bug"):
        cyclic_cover(1, 3)


def test_cyclic_cover_checks_its_closed_form_under_optimization():
    # python -O strips assert statements, not this check
    code = ("from satgenus import covering\n"
            "covering.cover_from_homomorphism = lambda h: covering.CoverData(\n"
            "    3, covering.SurfaceShape(1, 1, 1), 0, covering.SurfaceShape(3, 3, 3))\n"
            "try:\n"
            "    covering.cyclic_cover(1, 3)\n"
            "except AssertionError as error:\n"
            "    print(error)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("; this is a bug\n")


def test_add_branch_point_merge():
    s1, s2 = example2_pair(4)
    cover = cover_from_homomorphism(HomomorphismCover(1, 8, (s1, s2)))
    merged = add_branch_point(cover, merge=(0, 1))
    assert merged.branch_total == 1
    assert merged.cover == SurfaceShape(1, 5, 1)
    assert euler_characteristic(merged.cover) == euler_characteristic(cover.cover) - 1


def test_add_branch_point_split():
    s1, s2 = example1_pair(3)
    cover = cover_from_homomorphism(HomomorphismCover(1, 7, (s1, s2)))
    split = add_branch_point(cover)
    assert split.branch_total == 1
    assert split.cover == SurfaceShape(1, 4, 2)  # genus unchanged, one more circle


def test_add_branch_point_errors():
    disconnected = cover_from_homomorphism(HomomorphismCover(1, 3, (identity(3), identity(3))))
    with pytest.raises(ValueError, match="connected"):
        add_branch_point(disconnected)
    cyclic = cyclic_cover(1, 3)  # boundary already has degree many circles
    with pytest.raises(ValueError, match="split"):
        add_branch_point(cyclic)
    with pytest.raises(ValueError, match="out of range"):
        add_branch_point(cyclic, merge=(0, 3))
    with pytest.raises(ValueError, match="distinct"):
        add_branch_point(cyclic, merge=(1, 1))


def test_branch_points_stack():
    cover = cyclic_cover(1, 4)  # shape (1, 1, 4)
    once = add_branch_point(cover, merge=(0, 1))
    twice = add_branch_point(once, merge=(0, 1))
    assert twice.branch_total == 2
    assert twice.cover == SurfaceShape(1, 3, 2)


def test_cover_json_round_trip():
    data = cyclic_cover(2, 3)
    encoded = cover_data_to_json(data)
    assert encoded == {
        "degree": 3,
        "base": {"genus": 2, "boundary": 1},
        "branch": 0,
        "cover": {"components": 1, "genus": 4, "boundary": 3},
    }


def test_exhaustive_shapes_agree_with_naive_for_degree_3():
    perms_all = [Permutation(p) for p in itertools.permutations(range(3))]
    for s in perms_all:
        for t in perms_all:
            cover = cover_from_homomorphism(HomomorphismCover(1, 3, (s, t))).cover
            m, k, genus = naive_cover_shape(1, (s.images, t.images))
            assert (cover.components, cover.boundary_components, cover.genus_total) == (m, k, genus)
