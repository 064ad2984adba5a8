"""Frobenius-Mednykh counts of commutator products, used as a test oracle.

The number of tuples (a_1, b_1, ..., a_g, b_g) in G^(2g) whose product of
commutators is a given element z is

    |G|^(2g-1) * sum over irreducible characters chi of chi(z) / chi(1)^(2g-1)

(Frobenius 1896; Mednykh 1978, counting coverings of surfaces).  For the
symmetric group the characters come from the Murnaghan-Nakayama rule.  The
count is a class function, so it gives the boundary-circle histogram of the
oracle for any genus without enumerating a single tuple.

This is an independent route to the oracle's counts.  The oracle builds no
character: it sums each character over the permutations with k cycles at
once, as the degree times a polynomial in the contents of the partition,
and takes the degree from the hook lengths.  This module evaluates every
character on every class by the Murnaghan-Nakayama rule, in ``Fraction``
arithmetic, without touching the package, and counts class by class.  The
other routes are brute force and the class products and genus levels of
``_naive.naive_class_product_counts``.

``content_histogram`` is the oracle's formula computed the plain way, size
by size: each partition of n rebuilds its content product box by box and
its hook product from the column heights.  It checks the oracle's single
walk over the partitions of every size past the degrees where characters
stay cheap.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def partitions(n, largest=None):
    """Partitions of n as non-increasing tuples, largest first."""
    if largest is None:
        largest = n
    if n == 0:
        return ((),)
    return tuple(
        (part,) + rest
        for part in range(min(n, largest), 0, -1)
        for rest in partitions(n - part, part)
    )


@lru_cache(maxsize=None)
def character(shape, cycle_type):
    """Value of the irreducible character ``shape`` on the class
    ``cycle_type`` by Murnaghan-Nakayama: remove a rim hook of the first
    cycle length in every possible way, with sign (-1)^(height).

    On beta numbers (first-column hook lengths) removing a rim hook of
    length r moves one bead from b to an empty b - r; the hook's height is
    the number of beads strictly between.
    """
    if not cycle_type:
        return 1
    r, rest = cycle_type[0], cycle_type[1:]
    rows = len(shape)
    beta = [part + rows - 1 - i for i, part in enumerate(shape)]
    total = 0
    for i, b in enumerate(beta):
        if b < r or b - r in beta:
            continue
        height = sum(1 for c in beta if b - r < c < b)
        moved = sorted(beta[:i] + [b - r] + beta[i + 1:], reverse=True)
        smaller = tuple(x - (rows - 1 - j) for j, x in enumerate(moved))
        total += (-1) ** height * character(tuple(p for p in smaller if p), rest)
    return total


def class_size(cycle_type):
    """Number of permutations with the given cycle type."""
    n = sum(cycle_type)
    centralizer = 1
    for length in set(cycle_type):
        mult = cycle_type.count(length)
        centralizer *= length**mult * factorial(mult)
    return factorial(n) // centralizer


def commutator_product_count(g, cycle_type):
    """Tuples in S_n^(2g) whose commutator product is one fixed permutation
    of the given cycle type."""
    n = sum(cycle_type)
    shapes = partitions(n)
    total = sum(
        Fraction(character(lam, cycle_type), character(lam, (1,) * n) ** (2 * g - 1))
        for lam in shapes
    )
    count = factorial(n) ** (2 * g - 1) * total
    if count.denominator != 1:
        raise AssertionError(f"non-integral Frobenius count at g={g}, type {cycle_type}")
    return count.numerator


def boundary_histogram(g, n):
    """Tuples in S_n^(2g) by the number of cycles of their commutator
    product, which is the number of boundary circles of the cover."""
    hist = {}
    for mu in partitions(n):
        count = class_size(mu) * commutator_product_count(g, mu)
        if count:
            hist[len(mu)] = hist.get(len(mu), 0) + count
    return hist


def content_histogram(g, n):
    """Tuples in S_n^(2g) by the number k = 0..n of cycles of their
    commutator product, as a list: each partition lam adds H^(2g-1) *
    (n!/H) times the coefficients of prod (x + col - row) over its boxes
    (row, col), H the product of its hook lengths."""
    order = factorial(n)
    hist = [0] * (n + 1)
    for lam in partitions(n):
        heights = [sum(part > col for part in lam) for col in range(lam[0])]
        hooks = 1
        poly = [1] + [0] * n  # lowest power first
        for row, part in enumerate(lam):
            for col in range(part):
                hooks *= part - col + heights[col] - row - 1
                poly = [(col - row) * c + lower for c, lower in zip(poly, [0, *poly])]
        weight = hooks ** (2 * g - 1) * (order // hooks)
        hist = [total + weight * c for total, c in zip(hist, poly)]
    return hist


def connected_boundary_histogram(g, n):
    """Transitive tuples in S_n^(2g), the connected covers, by the number
    of boundary circles.

    The orbit of the first point has some j points, chosen in C(n-1, j-1)
    ways, and carries a transitive tuple; the other n - j points carry any
    tuple, and the boundary circles add up.  So the exponential formula

        F_n = sum over j of C(n-1, j-1) * (T_j conv F_{n-j})

    with conv the convolution in the boundary count, solved for T_n, gives
    the connected counts from the Frobenius histograms F alone.
    """
    full = [boundary_histogram(g, size) for size in range(n + 1)]
    transitive = {}
    for size in range(1, n + 1):
        hist = dict(full[size])
        for j in range(1, size):
            ways = comb(size - 1, j - 1)
            for k, count in transitive[j].items():
                for rest, other in full[size - j].items():
                    hist[k + rest] = hist.get(k + rest, 0) - ways * count * other
        if any(count < 0 for count in hist.values()):
            raise AssertionError(f"negative connected count at g={g}, n={size}")
        transitive[size] = {k: count for k, count in hist.items() if count}
    return transitive[n]
