"""Small independent reimplementations used as test oracles.

Everything here favors directness over speed and deliberately takes a
different route than the package: orbits by breadth-first search along
images and inverse images, or by the union-find the package once used,
instead of one walk along forward images, boundary permutations by pointwise application instead of table
products, braid permutations by composing transposition maps, and tuple
counts by class products and one genus level per handle instead of hook
lengths and contents, and cycle notation by a regular expression instead
of one pass over the brackets.
"""

import itertools
import re
from collections import deque

from satgenus import _rough

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def naive_parse_cycles(text, degree):
    """The image tuple of 1-indexed cycle notation, read through a regular
    expression as ``perms.parse_cycles`` once read it, with its messages."""
    stripped = _CYCLE_RE.sub("", text).strip()
    if stripped:
        raise ValueError(f"cycle notation syntax error near {stripped[:20]!r}")
    images = list(range(degree))
    used = set()
    for group in _CYCLE_RE.findall(text):
        if not group.strip():
            continue
        shown = group if len(group) <= 20 else group[:20] + "..."
        try:
            points = [int(tok) for tok in group.split()]
        except ValueError:
            raise ValueError(f"non-integer entry in cycle ({shown})") from None
        for i, pt in enumerate(points):
            if not 1 <= pt <= degree:
                raise ValueError(f"point {_rough(pt)} outside 1..{degree}")
            if pt in points[:i]:
                raise ValueError(f"point {pt} appears twice in the cycle ({shown})")
            if pt in used:
                raise ValueError(f"point {pt} appears in two cycles")
        used.update(points)
        for src, dst in zip(points, points[1:] + points[:1]):
            images[src - 1] = dst - 1
    return tuple(images)


def naive_compose(a, b):
    """Image tuple of 'apply a, then b' for 0-indexed image tuples."""
    return tuple(b[a[x]] for x in range(len(a)))


def naive_inverse(a):
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def naive_commutator(a, b):
    ai, bi = naive_inverse(a), naive_inverse(b)
    return tuple(bi[ai[b[a[x]]]] for x in range(len(a)))


def naive_first_commutator_pairs(n):
    """Every commutator of S_n with its first (a, b) in lexicographic image
    order, by a plain double loop over S_n x S_n."""
    first = {}
    for a in itertools.permutations(range(n)):
        for b in itertools.permutations(range(n)):
            first.setdefault(naive_commutator(a, b), (a, b))
    return first


def naive_pair_classes(n):
    """Every class (commutator, orbit partition of <a, b>) of S_n x S_n with
    its pair count and first (a, b) in lexicographic image order, listed in
    the order of those first pairs, by a plain double loop."""
    classes = {}
    for a in itertools.permutations(range(n)):
        for b in itertools.permutations(range(n)):
            key = (naive_commutator(a, b), frozenset(naive_orbits([a, b], n)))
            entry = classes.setdefault(key, [0, (a, b)])
            entry[0] += 1
    return [(key, count, first) for key, (count, first) in classes.items()]


def naive_class_product_counts(n, genera):
    """{g: tuples of S_n^(2g) by the cycle type of their boundary product}
    for each g in ``genera``, by class products and genus levels.

    [s, q] = s (q s^-1 q^-1), and as q runs over S_n the conjugate
    q s^-1 q^-1 runs over the class of s, n!/size times each; so composing
    the first permutation of each cycle type with every member of its class
    counts the pairs by the type of their commutator.  A further handle
    takes a boundary product b to b c, with the pairs of c counted by its
    type; conjugating b and c together keeps the types of c and of b c, so
    the first b of each type stands for its class (Frobenius's class-algebra
    count, done by composition).
    """
    perms = list(itertools.permutations(range(n)))
    kind = {p: tuple(sorted(map(len, naive_cycles(p)), reverse=True)) for p in perms}
    classes = {}
    for p in perms:
        classes.setdefault(kind[p], []).append(p)
    pairs = dict.fromkeys(classes, 0)
    for members in classes.values():
        for x in members:
            pairs[kind[naive_compose(members[0], x)]] += len(perms)
    # the pairs whose commutator is one given permutation of each type
    shares = {t: pairs[t] // len(members) for t, members in classes.items()}
    level = {t: dict.fromkeys(classes, 0) for t in classes}
    for t, members in classes.items():
        for c in perms:
            level[t][kind[naive_compose(members[0], c)]] += shares[kind[c]]
    counts, totals = {}, pairs
    for g in range(1, max(genera) + 1):
        if g in genera:
            counts[g] = totals
        totals = {u: sum(totals[t] * level[t][u] for t in classes) for u in classes}
    return counts


def naive_first_shape_pairs(n):
    """Every shape (orbits of <a, b>, cycles of [a, b]) of S_n x S_n with
    its first (a, b) in lexicographic image order, by a plain double loop."""
    first = {}
    for a in itertools.permutations(range(n)):
        for b in itertools.permutations(range(n)):
            shape = (len(naive_orbits([a, b], n)), len(naive_cycles(naive_commutator(a, b))))
            first.setdefault(shape, (a, b))
    return first


def naive_shape_sweep(n, shapes):
    """The first (a, b) in lexicographic image order of every shape (orbits
    of <a, b>, cycles of [a, b]), by a sweep of whole rows (a, all b) in that
    order that stops after the row by which every shape in ``shapes`` has
    been found.  Returns the first pairs and the number of rows swept."""
    perms = list(itertools.permutations(range(n)))
    first = {}
    for rows, a in enumerate(perms, 1):
        for b in perms:
            shape = (len(naive_orbits([a, b], n)), len(naive_cycles(naive_commutator(a, b))))
            first.setdefault(shape, (a, b))
        if shapes <= first.keys():
            break
    return first, rows


def naive_first_commutator_pair(target):
    """The first (a, b) in lexicographic image order with [a, b] == target,
    by a row-major double loop that returns at the first hit; None if the
    target is not a commutator."""
    n = len(target)
    for a in itertools.permutations(range(n)):
        for b in itertools.permutations(range(n)):
            if naive_commutator(a, b) == target:
                return a, b
    return None


def naive_cycles(p):
    """The 1-indexed cycles of an image tuple, fixed points included, each
    from its least point, in order of least point."""
    n = len(p)
    seen = set()
    out = []
    for start in range(n):
        if start in seen:
            continue
        cyc = []
        x = start
        while x not in seen:
            seen.add(x)
            cyc.append(x + 1)
            x = p[x]
        out.append(tuple(cyc))
    return out


def union_find_orbits(n, *perms):
    """``satgenus._orbits`` by a union-find whose roots stay the least points
    of their blocks, the route the package took before its labelled walk."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for images in perms:
        for x, y in enumerate(images):
            x, y = find(x), find(y)
            if x != y:
                root[max(x, y)] = min(x, y)
    blocks = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x + 1)
    return [tuple(block) for block in blocks.values()]


def naive_orbits(images, degree):
    """Orbits of 0..degree-1 under a list of image tuples, by BFS."""
    remaining = set(range(degree))
    orbits = []
    while remaining:
        start = min(remaining)
        orbit = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for g in images:
                for y in (g[x], naive_inverse(g)[x]):
                    if y not in orbit:
                        orbit.add(y)
                        queue.append(y)
        orbits.append(frozenset(orbit))
        remaining -= orbit
    return orbits


def naive_boundary_map(genus, images):
    """Boundary image of x computed by walking the commutator word of every
    handle pair, one application at a time."""
    n = len(images[0])
    inverses = [naive_inverse(g) for g in images]

    def boundary(x):
        for i in range(genus):
            s, t = images[2 * i], images[2 * i + 1]
            si, ti = inverses[2 * i], inverses[2 * i + 1]
            x = ti[si[t[s[x]]]]
        return x

    return tuple(boundary(x) for x in range(n))


def naive_cover_shape(genus, images):
    """(components, boundary circles, total genus) of the unbranched cover
    with the given monodromy images, from first principles."""
    n = len(images[0])
    m = len(naive_orbits(list(images), n))
    k = len(naive_cycles(naive_boundary_map(genus, images)))
    chi = n * (1 - 2 * genus)
    two_genus = 2 * m - k - chi
    assert two_genus % 2 == 0
    return m, k, two_genus // 2


def naive_word_permutation(letters, strands):
    """Strand permutation of a braid word, by composing transposition maps."""
    current = tuple(range(strands))
    for letter in letters:
        i = abs(letter) - 1
        swap = list(range(strands))
        swap[i], swap[i + 1] = i + 1, i
        current = tuple(swap[x] for x in current)
    return current
