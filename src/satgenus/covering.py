"""Euler-characteristic bookkeeping for branched covers of bounded surfaces.

A compact surface with boundary is tracked by the triple (components, total
genus, boundary circles); a covering of such surfaces by its degree, number
of simple branch points, and the two shapes.  Covers of a connected one-holed
surface are produced from their monodromy data: one permutation per standard
generator of the free fundamental group, the boundary going to the product
of commutators.
"""

from __future__ import annotations

from . import _Record, _rough
from .perms import Permutation, check_size, commutator, compose, cycle_count, identity, orbits

__all__ = [
    "SurfaceShape",
    "CoverData",
    "HomomorphismCover",
    "euler_characteristic",
    "rh_euler",
    "boundary_permutation",
    "cover_from_homomorphism",
    "cyclic_cover",
    "add_branch_point",
    "cover_data_to_json",
]


class SurfaceShape(_Record):
    """(components, total genus, boundary circles) of a compact surface."""

    components: int
    genus_total: int
    boundary_components: int

    def __post_init__(self) -> None:
        if self.components < 1:
            raise ValueError("a surface has at least one component")
        if self.genus_total < 0:
            raise ValueError("total genus cannot be negative")
        if self.boundary_components < 0:
            raise ValueError("boundary count cannot be negative")


def euler_characteristic(s: SurfaceShape) -> int:
    return 2 * s.components - 2 * s.genus_total - s.boundary_components


def rh_euler(degree: int, chi_base: int, branch_total: int) -> int:
    """Euler characteristic of a degree-n cover with simple branch points:
    n * chi(base) - branch_total."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if branch_total < 0:
        raise ValueError("branch count cannot be negative")
    return degree * chi_base - branch_total


class CoverData(_Record):
    """A branched cover of a connected base surface, by the numbers."""

    degree: int
    base: SurfaceShape
    branch_total: int
    cover: SurfaceShape

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if self.branch_total < 0:
            raise ValueError("branch count cannot be negative")
        if self.base.components != 1:
            raise ValueError("the base surface must be connected")
        expected_chi = rh_euler(self.degree, euler_characteristic(self.base), self.branch_total)
        if euler_characteristic(self.cover) != expected_chi:
            raise ValueError(
                f"cover has Euler characteristic {euler_characteristic(self.cover)}, "
                f"but degree and branching force {expected_chi}"
            )
        if not 1 <= self.cover.components <= self.degree:
            raise ValueError("component count must lie between 1 and the degree")
        if self.cover.boundary_components > self.degree * self.base.boundary_components:
            raise ValueError("boundary circles cannot outnumber degree times base boundary")
        parity = (
            -self.degree * euler_characteristic(self.base)
            + self.branch_total
            + 2 * self.cover.components
            - self.cover.boundary_components
        )
        if parity % 2:
            raise ValueError("genus bookkeeping is inconsistent (parity check failed)")


class HomomorphismCover(_Record):
    """Monodromy data for an unbranched cover of a one-holed genus-g surface:
    images (s1, t1, ..., sg, tg) of the standard free generators."""

    base_genus: int
    degree: int
    generator_images: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        if self.base_genus < 1:
            raise ValueError("the base surface needs genus at least 1")
        if len(self.generator_images) != 2 * self.base_genus:
            raise ValueError(
                f"expected {_rough(2 * self.base_genus)} generator images, "
                f"got {len(self.generator_images)}"
            )
        for p in self.generator_images:
            if p.degree != self.degree:
                raise ValueError(f"image of degree {p.degree} does not match cover degree {self.degree}")


def boundary_permutation(h: HomomorphismCover) -> Permutation:
    """Image of the boundary circle: the product of the g commutators
    [s_i, t_i], multiplied left to right."""
    result = identity(h.degree)
    images = h.generator_images
    for i in range(h.base_genus):
        result = compose(result, commutator(images[2 * i], images[2 * i + 1]))
    return result


def cover_from_homomorphism(h: HomomorphismCover) -> CoverData:
    """Shape of the unbranched cover encoded by the monodromy data.

    Components are the point orbits of the image subgroup, boundary circles
    the cycles of the boundary permutation, and the genus falls out of the
    Euler count chi(cover) = degree * (1 - 2 * base_genus).  Every input
    gives a genus of at least 1: twice the genus is 2m - k + n(2g - 1) >= 2
    for m >= 1 components, k <= n circles and g >= 1, and it is even, as
    n - k is even for the boundary, a product of commutators.
    """
    base = SurfaceShape(1, h.base_genus, 1)
    m = len(orbits(list(h.generator_images), degree=h.degree))
    k = cycle_count(boundary_permutation(h))
    chi = rh_euler(h.degree, euler_characteristic(base), 0)
    return CoverData(h.degree, base, 0, SurfaceShape(m, (2 * m - k - chi) // 2, k))


def cyclic_cover(base_genus: int, degree: int) -> CoverData:
    """The connected unramified cover obtained by sending one generator to
    the full cycle (1 2 ... n) and every other generator to the identity.

    Its boundary has n circles and its genus is n*g - (n - 1), the floor
    allowed by the Euler count for unbranched covers.
    """
    if base_genus < 1:
        raise ValueError("the base surface needs genus at least 1")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    check_size(degree, "degree")
    check_size(2 * base_genus * degree, "the image entry count")
    n = degree
    full_cycle = Permutation(tuple((x + 1) % n for x in range(n)))
    images = [identity(n)] * (2 * base_genus)
    images[0] = full_cycle
    data = cover_from_homomorphism(HomomorphismCover(base_genus, n, tuple(images)))
    if data.cover != SurfaceShape(1, n * base_genus - (n - 1), n):
        raise AssertionError(f"the cyclic cover has the shape {data.cover}, "
                             "not the closed form's; this is a bug")
    return data


def add_branch_point(c: CoverData, merge: tuple[int, int] | None = None) -> CoverData:
    """Add one simple branch point to a connected cover.

    ``merge=(i, j)`` joins the boundary circles with those (0-based) indices
    into one, raising the genus by one; ``merge=None`` splits a boundary
    circle in two, leaving the genus alone.  Either way the Euler
    characteristic drops by one, which ``CoverData`` checks.
    """
    if c.cover.components != 1:
        raise ValueError("branch points are only added to connected covers here")
    k, genus = c.cover.boundary_components, c.cover.genus_total
    if merge is None:
        new_k = k + 1
        if new_k > c.degree * c.base.boundary_components:
            raise ValueError(
                "no boundary circle is long enough to split: the boundary "
                "already covers the base circle with maximal circle count"
            )
    else:
        i, j = merge
        if not (0 <= i < k and 0 <= j < k):
            raise ValueError(f"merge indices {merge} out of range for {k} boundary circles")
        if i == j:
            raise ValueError("merging needs two distinct boundary circles")
        new_k, genus = k - 1, genus + 1
    return CoverData(c.degree, c.base, c.branch_total + 1, SurfaceShape(1, genus, new_k))


def cover_data_to_json(c: CoverData) -> dict:
    return {
        "degree": c.degree,
        "base": {
            "genus": c.base.genus_total,
            "boundary": c.base.boundary_components,
        },
        "branch": c.branch_total,
        "cover": {
            "components": c.cover.components,
            "genus": c.cover.genus_total,
            "boundary": c.cover.boundary_components,
        },
    }
