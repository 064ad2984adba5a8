"""Symmetric-group arithmetic for monodromy computations.

Permutations are stored as 0-indexed image tuples but every piece of text
I/O (cycle notation) is 1-indexed, matching the usual convention for
braid-strand and sheet labels.  Composition is left-to-right throughout:
``compose(a, b)`` means "apply a first, then b".  The package builds its
permutations from image tuples; cycle text is parsed only when it comes
from outside, through ``parse_cycles``.

The exhaustive commutator search (``ore_commutator_search``) walks S_n in
rank order, the lexicographic order of image tuples, and builds no table;
it refuses degrees above ``MAX_TABLE_DEGREE``.

:class:`Permutation`, like the record classes of the other layers, derives
from the frozen-value base ``satgenus._Record``.  The oracle needs no
arithmetic, so it imports nothing from here: its witnesses are bare image
tuples, which ``Permutation`` wraps, and it formats them and counts their
orbits with the package's ``_cycle_notation`` and ``_orbits``, as
``cycles_str`` and ``orbits`` do.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator, Sequence

from . import _Record, _cycle_notation, _orbits, _rough

# Multiset of cycle lengths, fixed points included, sorted descending.
CycleType = tuple[int, ...]

# Degrees, strand counts and image-entry totals above this are refused with
# ValueError before any list of that size is built.
MAX_DEGREE = 10**6

# The largest degree of the exhaustive commutator search, which walks S_n in
# rank order: at degree 8 it answers in at most about 0.05 s.
MAX_TABLE_DEGREE = 8


class Permutation(_Record):
    """An element of the symmetric group on ``{1, ..., degree}``."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        # compared lazily: range(n) as a list would be n more fresh ints
        if any(map(operator.ne, sorted(self.images), range(len(self.images)))):
            raise ValueError(f"images {self.images!r} do not describe a bijection")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __repr__(self) -> str:
        return f"Permutation({cycles_str(self)!r}, degree={self.degree})"


def check_size(size: int, what: str) -> None:
    """Refuse ``size`` points or image entries over MAX_DEGREE, naming a
    size of 15 digits or more by its power of ten."""
    if size > MAX_DEGREE:
        raise ValueError(f"{what} {_rough(size)} is over the limit of {MAX_DEGREE}")


def identity(degree: int) -> Permutation:
    if degree < 1:
        raise ValueError("degree must be at least 1")
    check_size(degree, "degree")
    return Permutation(tuple(range(degree)))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Apply ``a`` first, then ``b``."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return Permutation(tuple(b.images[x] for x in a.images))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.degree
    for x, y in enumerate(p.images):
        inv[y] = x
    return Permutation(tuple(inv))


def commutator(a: Permutation, b: Permutation) -> Permutation:
    """The product a b a^-1 b^-1, applied left to right."""
    return compose(compose(a, b), compose(inverse(a), inverse(b)))


def _cycle_lengths(p: Permutation) -> Iterator[int]:
    """Each cycle's length, fixed points included, by least point."""
    images, seen = p.images, bytearray(p.degree)
    for start in range(p.degree):
        if not seen[start]:
            length, x = 0, start
            while not seen[x]:
                seen[x] = 1
                length += 1
                x = images[x]
            yield length


def cycle_count(p: Permutation) -> int:
    return sum(1 for _ in _cycle_lengths(p))


def cycle_type(p: Permutation) -> CycleType:
    """Cycle lengths, fixed points included, sorted descending."""
    return tuple(sorted(_cycle_lengths(p), reverse=True))


def is_even(p: Permutation) -> bool:
    """Parity via degree minus number of cycles."""
    return (p.degree - cycle_count(p)) % 2 == 0


def cycles_str(p: Permutation) -> str:
    """Cycle notation with fixed points omitted; the identity prints as '()'."""
    return _cycle_notation(p.images)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-indexed cycle notation such as ``(2 3)(4 5)``.

    Fixed points are omitted from the notation, so the degree must be given
    separately.  Cycles must be disjoint.  ``()`` and the empty string both
    denote the identity.  The text is read in one pass: each ``)`` closes
    the group after the last ``(`` before it, if there is one, and what no
    group takes up must be blank.  A message names a group by at most its
    first 20 characters.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    check_size(degree, "degree")
    *pieces, rest = text.split(")")
    # a piece with no "(" is all in group, and its ")" closes nothing
    split = [piece.rpartition("(") for piece in pieces]
    left = "".join(before if paren else group + ")" for before, paren, group in split) + rest
    if left.strip():
        raise ValueError(f"cycle notation syntax error near {left.strip()[:20]!r}")
    images = list(range(degree))
    used: set[int] = set()
    for _, paren, group in split:
        if not paren or not group.strip():
            continue
        shown = group if len(group) <= 20 else group[:20] + "..."
        try:
            points = [int(tok) for tok in group.split()]
        except ValueError:
            raise ValueError(f"non-integer entry in cycle ({shown})") from None
        here: set[int] = set()
        for pt in points:
            if not 1 <= pt <= degree:
                raise ValueError(f"point {_rough(pt)} outside 1..{degree}")
            if pt in here:
                raise ValueError(f"point {pt} appears twice in the cycle ({shown})")
            if pt in used:
                raise ValueError(f"point {pt} appears in two cycles")
            here.add(pt)
        used |= here
        for src, dst in zip(points, points[1:] + points[:1]):
            images[src - 1] = dst - 1
    return Permutation(tuple(images))


def orbits(gens: Sequence[Permutation], degree: int | None = None) -> list[tuple[int, ...]]:
    """Orbits of ``{1..degree}`` under the group generated by ``gens``.

    Computed by one walk along the generators' images, the package's
    ``satgenus._orbits``; the group itself is never enumerated.
    An empty generator list needs an explicit degree and yields singletons.
    """
    if gens:
        n = gens[0].degree
        for g in gens[1:]:
            if g.degree != n:
                raise ValueError("generators act on different degrees")
        if degree is not None and degree != n:
            raise ValueError(f"degree {degree} does not match generators of degree {n}")
    elif degree is None:
        raise ValueError("degree is required when the generator list is empty")
    else:
        n = degree
    if n < 1:
        raise ValueError("degree must be at least 1")
    return _orbits(n, *(g.images for g in gens))


def is_transitive(gens: Sequence[Permutation], degree: int | None = None) -> bool:
    return len(orbits(gens, degree)) == 1


def _swap_pair(n: int) -> tuple[Permutation, Permutation]:
    """(s1, s2) on n points: the products of the swaps (x, x+1) of 0-indexed
    points x below n - 1, s1 of those with x odd and s2 with x even."""
    check_size(n, "degree")
    s1, s2 = list(range(n)), list(range(n))
    for x in range(n - 1):
        swaps = s1 if x % 2 else s2
        swaps[x], swaps[x + 1] = x + 1, x
    return Permutation(tuple(s1)), Permutation(tuple(s2))


def example1_pair(m: int) -> tuple[Permutation, Permutation]:
    """Involutions s1 = (2 3)(4 5)...(2m 2m+1), s2 = (1 2)(3 4)...(2m-1 2m)
    on 2m+1 points; their commutator is a full (2m+1)-cycle."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return _swap_pair(2 * m + 1)


def example2_pair(m: int) -> tuple[Permutation, Permutation]:
    """Involutions s1 = (2 3)...(2m-2 2m-1), s2 = (1 2)...(2m-1 2m) on 2m
    points; their commutator splits into two disjoint m-cycles while the pair
    still generates a transitive group."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return _swap_pair(2 * m)


def check_search_degree(degree: int) -> None:
    """Refuse an exhaustive search above MAX_TABLE_DEGREE."""
    if degree > MAX_TABLE_DEGREE:
        raise ValueError(
            f"degree {_rough(degree)} exceeds the search limit {MAX_TABLE_DEGREE} "
            "of the exhaustive commutator search"
        )


def ore_commutator_search(target: Permutation) -> tuple[Permutation, Permutation] | None:
    """Exhaustive search for (a, b) with ``commutator(a, b) == target``.

    Returns the lexicographically first witness pair, or None when the target
    is not a commutator (odd permutations are rejected up front).  Both a and
    b are walked in rank order, the order of ``itertools.permutations``, one
    at a time; no row and no table is built.  The first a whose row (a, all
    b) holds the target t is found without walking b: with products left to
    right, a b a^-1 b^-1 = t exactly when b a^-1 b^-1 = a^-1 t, so row a
    holds t exactly when a^-1 t is a conjugate of a^-1, that is, has the
    cycle type of a.  The first b of that row with [a, b] = t completes the
    pair.  By Ore's theorem every even permutation is a commutator, so some
    row holds it.  Degrees above ``MAX_TABLE_DEGREE`` are refused with
    ValueError.
    """
    check_search_degree(target.degree)
    if not is_even(target):
        return None
    points, goal = range(target.degree), target.images
    for a in itertools.permutations(points):
        a_inv = tuple(sorted(points, key=a.__getitem__))
        # a^-1 t applies a^-1, then t
        if cycle_type(Permutation(tuple(goal[x] for x in a_inv))) == cycle_type(Permutation(a)):
            for b in itertools.permutations(points):
                # [a, b] takes x through a, b and a^-1 to a_inv[b[a[x]]],
                # then through b^-1, to t(x) exactly when that is b[t(x)]
                if all(a_inv[b[a[x]]] == b[goal[x]] for x in points):
                    return Permutation(a), Permutation(b)
    return None
