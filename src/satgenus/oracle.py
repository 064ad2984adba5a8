"""Exhaustive ground truth for the covering-genus floors.

For a one-holed base surface of genus g and a covering degree n, every
monodromy tuple in S_n^(2g) is accounted for and its cover shape is known:
components from point orbits, boundary circles from the cycles of the
commutator product, genus from the Euler count.  The scan checks the two
genus floors

    genus >= n*g - (n - 1)                 (all covers)
    genus >= n*g - floor((n - 1) / 2)      (covers with connected boundary)

records minima with witnesses, and characterizes the equality cases, also
after adding one simple branch point.  Everything is exact and deterministic;
reports serialize to byte-identical JSON across runs.

The shape of a tuple depends only on its state: the running boundary
product b of the handle commutators and the orbit partition of the images.
So the scan never visits tuples.  The generator pairs of S_n x S_n fall
into classes (commutator, pair partition), each with its pair count, and
one pass over rows (s, all q) serves the scan without visiting every pair.
Conjugation permutes the classes, keeps their counts and carries the shapes
of row s onto row s^h, so one row per cycle type of s (7 of the 120 rows of
S_5, 22 of the 40320 of S_8) gives the counts by orbit-stabilizer and the
first pair of every cover shape (components, boundary circles): the first
row that holds a shape is the first permutation of its type.  By Hurwitz
existence for bases of positive genus (Husemoller 1962; Edmonds-Kulkarni-
Stong 1984) the reachable states are the pair classes at every genus; the
identity pair keeps every state, so a shape's first tuple at genus g is
2g - 2 identities and its first pair.  Counts are constant on conjugation
orbits (27 at S_6, 47 at S_7), so a genus level multiplies the orbit totals
by one transfer row per orbit; (2, 7) takes about 0.9 s.

Shapes agree with ``covering.cover_from_homomorphism`` by construction; the
tests cross-check the scan against brute force on small groups and against
the Frobenius-Mednykh character count on larger ones.  Violations and
counterexamples (none are expected) are reported once per shape class, with
the lexicographically first witness tuple.

Every refusal is decided by ``_check_budget`` before any table is built;
degrees above ``perms.MAX_TABLE_DEGREE`` (8) are refused whatever the
budget (the class pass of degree 9 peaks at about 430 MB).  The caches hold
only constants of the degree: the tables, the classes, the transfer rows.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from functools import cached_property, lru_cache
from operator import add, mul

from . import BudgetExceededError, _Record
from .perms import MAX_TABLE_DEGREE, Permutation, cycles_str, sn_tables

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "EnumerationReport",
    "SharpnessReport",
    "enumerate_covers",
    "verify_sharpness",
    "realizability_table",
]

DEFAULT_BUDGET = 10**9

_CLASS_COUNTS = (0, 1, 2, 7, 34, 206, 1486, 12412, 117692)  # len(_classes(n).keys), n = 0..8


def _check_budget(base_genus: int, degree: int, budget: int | None) -> int:
    """Validate the request and return the work limit, refusing it before
    any table is built.  Work is the (n!)^2 pair pass, then plus classes x
    classes per genus level: the cost of the state-by-class scan the
    transfer rows replaced, so that refusals stay where they were."""
    if base_genus < 1:
        raise ValueError("the base surface needs genus at least 1")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    limit = DEFAULT_BUDGET if budget is None else budget
    if limit < 1:
        raise ValueError("budget must be positive")
    if degree > MAX_TABLE_DEGREE:
        raise BudgetExceededError(
            f"degree {degree} exceeds the enumeration limit {MAX_TABLE_DEGREE}, "
            "the largest degree whose S_n tables fit in memory"
        )
    _check_printable(base_genus, degree)
    size = math.factorial(degree)
    for work in (size**2, size**2 + (base_genus - 1) * _CLASS_COUNTS[degree] ** 2):
        if work > limit:
            raise BudgetExceededError(
                f"enumerating S_{degree}^{2 * base_genus} needs an estimated {work} work units "
                f"(the {size}^2-pair class pass plus states x pair classes per genus level), "
                f"over the budget of {limit}"
            )
    return limit


def _check_printable(base_genus: int, degree: int) -> None:
    """Refuse a tuple count (n!)^(2g) with more decimal digits than the
    interpreter converts to text (``sys.get_int_max_str_digits``, 0 for no
    limit).  The histogram counts never exceed that total.

    The digit count floor(2g log10 n!) + 1 comes from a log estimate; the
    power is formed only near the limit, where the estimate may be one off.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or degree == 1:
        return
    exponent = 2 * base_genus
    # exact rational arithmetic on the float log, so no genus overflows it
    num, den = math.log10(math.factorial(degree)).as_integer_ratio()
    digits = exponent * num // den + 1
    if digits < limit - 1:
        return
    if digits <= limit + 2:
        total = math.factorial(degree) ** exponent
        while total >= 10**digits:
            digits += 1
        while total < 10 ** (digits - 1):
            digits -= 1
    if digits <= limit:
        return
    exponent_text = _rough(exponent)
    if not exponent_text.isdigit():
        exponent_text = f"({exponent_text})"
    raise BudgetExceededError(
        f"the tuple count of S_{degree}^{exponent_text} has {_rough(digits)} decimal digits, "
        f"over this interpreter's limit of {limit} for printing an integer"
    )


def _rough(x: int) -> str:
    """x in decimal up to 15 digits, its power of ten above.

    Past 15 digits the digit estimate is no longer exact, and a genus of
    thousands of digits would give an exponent and a digit count too long to
    print at all.
    """
    if x < 10**15:
        return str(x)
    return f"about 10^{math.floor(math.log10(x))}"


class _Partitions:
    """Every set partition of range(n), with joins built one row at a time.

    A partition is its label tuple, each point labelled by the least point of
    its block.  Ids run in breadth-first order from the discrete partition
    (id 0), each new partition reached from an earlier one by merging the
    blocks of two points, so ``join(a)[p]`` follows from ``join(a)`` at p's
    parent with one more merge.  ``merge[p][step]`` is that merge for the
    point pair ``(i, j)``, i < j, taken in the order (0, 1), (0, 2), (1, 2),
    (0, 3), ...; ``step[i][j]`` and ``step[j][i]`` give its step.

    Two points of one block merge to p itself, and each pair of blocks is
    merged once: its first point pair is the pair of the blocks' least
    points, and every later pair reads that merge back from the row.
    """

    def __init__(self, n: int):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        labels = [tuple(range(n))]
        self.index = {labels[0]: 0}
        self.parent: list[tuple[int, int]] = [(0, 0)]
        self.merge: list[list[int]] = []
        self.step = steps = [[0] * n for _ in range(n)]
        for step, (i, j) in enumerate(pairs):
            steps[i][j] = steps[j][i] = step
        for pid, labs in enumerate(labels):  # labels grows while we walk it
            row = []
            for step, (i, j) in enumerate(pairs):
                lo, hi = labs[i], labs[j]
                if lo == hi:
                    target = pid
                elif lo != i or hi != j:
                    target = row[steps[lo][hi]]
                else:
                    merged = tuple([lo if x == hi else x for x in labs])
                    target = self.index.get(merged)
                    if target is None:
                        target = self.index[merged] = len(labels)
                        labels.append(merged)
                        self.parent.append((pid, step))
                row.append(target)
            self.merge.append(row)
        self.blocks = [len(set(labs)) for labs in labels]

    def join(self, a: int) -> list[int]:
        """The join of partition a with every partition, by id."""
        row = [a]
        merge = self.merge
        for up, step in self.parent[1:]:
            row.append(merge[row[up]][step])
        return row


class _PairClasses:
    """S_n x S_n collapsed into classes (commutator, pair partition).

    Permutations are ranked in lexicographic order of their image tuples
    (``perms.sn_tables``).  A class, and later a scan state (boundary
    product, orbit partition), is coded as one integer ``rank * width +
    partition id``; ``code`` maps an image tuple to ``rank * width``.
    ``keys`` lists the classes in the order the orbit closure meets them,
    with their pair ``counts``; ``witnesses`` maps every cover shape (m, k),
    the blocks of the pair partition and the cycles of the commutator, to
    its lexicographically first pair (s, q) as ranks.

    One pass over whole rows (s, all q), one row for the first permutation
    of each cycle type of s in rank order, gives all of those without
    visiting every pair.  Conjugating by h maps the pair (s, q) to
    (s^h, q^h) and its class (c, P) to (c^h, P^h), so a class count is
    constant on its conjugation orbit, and row s^h holds the shapes of row s.
    Each row is counted as it is built, scaled by the size of its type; the
    classes found are closed into orbits under a transposition and the
    n-cycle (which generate S_n), and each orbit's pair total is shared
    evenly among its classes.  The first row holding a shape is the first
    permutation of some type, so the first pair of each shape in the rows
    counted is its first pair overall.  For the genus levels, ``orbit_of``,
    ``orbit_reps`` and ``orbit_pairs`` keep the orbits, one class of each
    and their pair totals.

    The set-up around the rows stays small: the cycle partition of p is
    walked through ``_Partitions.merge``, one merge per moved point, and the
    conjugate h^-1 p h of every p is two calls of the shared composers of
    ``sn_tables``, ``then_h_inv(then_p(h))``.
    """

    def __init__(self, n: int):
        tables = sn_tables(n)
        perms = tables.perms
        parts = _Partitions(n)
        width = len(parts.blocks)
        code = {p: rank * width for rank, p in enumerate(perms)}
        merge, step = parts.merge, parts.step
        cycle_part = []
        for p in perms:  # the cycle partition of p merges the blocks of x and p(x)
            pid = 0
            for x, y in enumerate(p):
                if x != y:
                    pid = merge[pid][step[x][y]]
            cycle_part.append(pid)
        cycles = [parts.blocks[c] for c in cycle_part]

        def row(s: int) -> list[int]:
            """The class of every pair (s, q), in the rank order of q."""
            # the orbits of <s, q> join the cycle partitions of s and q
            joined = parts.join(cycle_part[s])
            comms = tables.commutator_row(s)
            return list(map(add, map(code.__getitem__, comms), map(joined.__getitem__, cycle_part)))

        # one row for the first permutation of each cycle type, in rank order
        labels = list(parts.index)  # partition ids follow insertion order
        part_types = [tuple(sorted(map(labs.count, set(labs)))) for labs in labels]
        perm_types = list(map(part_types.__getitem__, cycle_part))
        type_size = Counter(perm_types)  # in order of each type's first permutation
        pairs: dict[int, int] = {}
        witnesses: dict[tuple[int, int], tuple[int, int]] = {}
        for kind, scale in type_size.items():
            s = perm_types.index(kind)
            keys = row(s)
            for key, hits in Counter(keys).items():
                pairs[key] = pairs.get(key, 0) + scale * hits
                shape = (parts.blocks[key % width], cycles[key // width])
                if shape not in witnesses:
                    witnesses[shape] = (s, keys.index(key))

        conjugators = [tuple(range(1, n)) + (0,)]
        if n > 1:
            conjugators.append((1, 0) + tuple(range(2, n)))
        moves = []
        for h in conjugators:
            # h^-1 p h applies h^-1, p, h in turn; a block of P^h is named
            # by its least point, the first position of its name
            h_inv = tables.inverses[code[h] // width]
            then_h_inv = tables.composers[code[h_inv] // width]
            moves.append((
                [code[then_h_inv(then_p(h))] for then_p in tables.composers],
                [parts.index[tuple(map(names.index, names))] for names in map(then_h_inv, labels)],
            ))
        orbit_of: dict[int, int] = {}
        orbit_reps: list[int] = []
        orbit_sizes: list[int] = []
        for start in pairs:
            if start in orbit_of:
                continue
            orbit = [start]
            orbit_of[start] = len(orbit_reps)
            orbit_reps.append(start)
            for key in orbit:  # orbit grows while we walk it
                rank, pid = divmod(key, width)
                for perm_move, part_move in moves:
                    image = perm_move[rank] + part_move[pid]
                    if image not in orbit_of:
                        orbit_of[image] = len(orbit_sizes)
                        orbit.append(image)
            orbit_sizes.append(len(orbit))
        orbit_pairs = [0] * len(orbit_sizes)
        for key, weight in pairs.items():
            orbit_pairs[orbit_of[key]] += weight
        if any(total % size for total, size in zip(orbit_pairs, orbit_sizes)):
            raise AssertionError("an orbit total does not divide by its size; this is a bug")
        shapes = {(parts.blocks[key % width], cycles[key // width]) for key in orbit_of}
        if witnesses.keys() != shapes:
            raise AssertionError("the witnesses and the pair classes disagree; this is a bug")

        self.perms = perms
        self.composers = tables.composers
        self.code = code
        self.width = width
        self.join = parts.join
        self.cycles = cycles
        self.witnesses = witnesses
        self.keys = list(orbit_of)
        shares = [total // size for total, size in zip(orbit_pairs, orbit_sizes)]
        self.counts = list(map(shares.__getitem__, orbit_of.values()))
        self.comms = [perms[key // width] for key in self.keys]
        self.pair_parts = [key % width for key in self.keys]
        self.orbit_of = orbit_of
        self.orbit_reps = orbit_reps
        self.orbit_pairs = orbit_pairs
        if sum(self.counts) != len(perms) ** 2:
            raise AssertionError("the class counts miss pairs; this is a bug")

    @cached_property
    def columns(self) -> list[tuple[int, ...]]:
        """The transfer rows (``_transfer``) transposed, built on first use."""
        return list(zip(*_transfer(self)))


@lru_cache(maxsize=None)
def _classes(n: int) -> _PairClasses:
    return _PairClasses(n)


def _transfer(pc: _PairClasses) -> list[list[int]]:
    """One more handle, orbit to orbit: ``rows[o][p]`` counts the pairs that
    take the representative state of orbit o into orbit p.

    Conjugating a state and a pair together conjugates the state they reach,
    so every state of an orbit has its representative's row, and one check
    here covers every genus: classes only ever reach classes.
    """
    code, width = pc.code, pc.width
    rows = []
    for rep in pc.orbit_reps:
        rank, pid = divmod(rep, width)
        joined = pc.join(pid)
        targets = map(
            add,
            map(code.__getitem__, map(pc.composers[rank], pc.comms)),
            map(joined.__getitem__, pc.pair_parts),
        )
        row = [0] * len(pc.orbit_reps)
        for target, weight in zip(targets, pc.counts):
            if target not in pc.orbit_of:
                raise AssertionError("a genus level left the pair classes; this is a bug")
            row[pc.orbit_of[target]] += weight
        rows.append(row)
    return rows


def _shape_rows(g: int, n: int) -> dict[tuple[int, int, int], tuple[int, ...]]:
    """Every cover shape (components, boundary circles, genus) with its
    first tuple as ranks: 2g - 2 identities and its first pair.  Past genus
    1 that rests on the levels staying in the pair classes, which the
    transfer rows check as they are built."""
    pc = _classes(n)
    if g > 1:
        pc.columns  # builds the transfer rows and their check
    base_odd = n * (2 * g - 1)
    identities = (0,) * (2 * g - 2)
    return {
        (m, k, (base_odd + 2 * m - k) >> 1): identities + pair
        for (m, k), pair in pc.witnesses.items()
    }


def _boundary_histogram(g: int, n: int) -> list[int]:
    """How many tuples give k boundary circles, k = 0..n: the orbit totals
    of the pairs times the transfer rows once per further genus level."""
    pc = _classes(n)
    totals = pc.orbit_pairs
    for _ in range(g - 1):
        totals = [sum(map(mul, totals, column)) for column in pc.columns]
    khist = [0] * (n + 1)
    for rep, total in zip(pc.orbit_reps, totals):
        khist[pc.cycles[rep // pc.width]] += total
    if sum(khist) != math.factorial(n) ** (2 * g):
        raise AssertionError("scan lost tuples; this is a bug")
    return khist


def _class_finding(check: str, key: tuple[int, int, int], wit: tuple, **extra) -> dict:
    m, k, genus = key
    finding = {"check": check, "components": m, "boundary": k, "genus": genus, "witness": wit}
    finding.update(extra)
    return finding


def _analyze(base_genus: int, degree: int, rows: dict) -> dict:
    """Floor checks and minima over the achieved shape classes.

    Every check is a function of the shape class alone, so verifying classes
    is equivalent to verifying tuples; witnesses are the class witnesses.
    """
    g, n = base_genus, degree
    bound_all = n * g - (n - 1)
    bound_k1 = n * g - (n - 1) // 2
    violations: list[dict] = []
    counterexamples: list[dict] = []
    min_overall: tuple | None = None
    min_k1: tuple | None = None
    for key in sorted(rows):
        m, k, genus = key
        wit = rows[key]
        if genus < bound_all:
            violations.append(_class_finding("unbranched_floor", key, wit))
        if (genus == bound_all) != (m == 1 and k == n):
            counterexamples.append(_class_finding("unbranched_floor_equality", key, wit))
        if k == 1:
            if genus < bound_k1:
                violations.append(_class_finding("connected_boundary_floor", key, wit))
            if n % 2 == 0:
                counterexamples.append(_class_finding("connected_boundary_parity", key, wit))
            elif genus != bound_k1 or m != 1:
                counterexamples.append(_class_finding("connected_boundary_equality", key, wit))
            if min_k1 is None or (genus, wit) < min_k1:
                min_k1 = (genus, wit)
        if min_overall is None or (genus, wit) < min_overall:
            min_overall = (genus, wit)
    return {
        "bound_all": bound_all,
        "bound_k1": bound_k1,
        "violations": violations,
        "counterexamples": counterexamples,
        "min_overall": min_overall,
        "min_k1": min_k1,
        "connected": {
            (k, genus): wit for (m, k, genus), wit in sorted(rows.items()) if m == 1
        },
        "floor_value_ks": sorted({k for (m, k, genus) in rows if genus == bound_k1}),
    }


def _witness_perms(degree: int, wit: tuple) -> tuple[Permutation, ...]:
    perms = sn_tables(degree).perms
    return tuple(Permutation(perms[i]) for i in wit)


def _finding_json(degree: int, finding: dict) -> dict:
    out = dict(finding)
    out["witness"] = [cycles_str(p) for p in _witness_perms(degree, finding["witness"])]
    return out


class EnumerationReport(_Record):
    """Aggregate of one full scan of S_degree^(2*base_genus)."""

    base_genus: int
    degree: int
    total_tuples: int
    budget: int
    violations: tuple[dict, ...]
    min_genus_overall: int
    min_overall_witness: tuple[Permutation, ...]
    min_genus_connected_boundary: int | None
    connected_boundary_witness: tuple[Permutation, ...] | None
    boundary_k_histogram: dict[int, int]

    def to_json(self) -> dict:
        return {
            "base_genus": self.base_genus,
            "degree": self.degree,
            "total_tuples": self.total_tuples,
            "budget": self.budget,
            "violations": [_finding_json(self.degree, v) for v in self.violations],
            "min_genus_overall": self.min_genus_overall,
            "min_overall_witness": [cycles_str(p) for p in self.min_overall_witness],
            "min_genus_connected_boundary": self.min_genus_connected_boundary,
            "connected_boundary_witness": (
                None
                if self.connected_boundary_witness is None
                else [cycles_str(p) for p in self.connected_boundary_witness]
            ),
            "boundary_k_histogram": {
                str(k): v for k, v in sorted(self.boundary_k_histogram.items())
            },
        }


def enumerate_covers(base_genus: int, degree: int, budget: int | None = None) -> EnumerationReport:
    """Account for every monodromy tuple and report minima, histogram and any
    violations of the two genus floors (there should never be any).

    ``budget`` caps the work units (default 10^9): the pair pass, charged at
    (n!)^2, plus states x pair classes per genus level.  At genus 1 that is
    the tuple count.  Degrees above ``MAX_TABLE_DEGREE`` are refused with
    BudgetExceededError whatever the budget.
    """
    limit = _check_budget(base_genus, degree, budget)
    a = _analyze(base_genus, degree, _shape_rows(base_genus, degree))
    khist = _boundary_histogram(base_genus, degree)
    min_k1 = a["min_k1"]
    return EnumerationReport(
        base_genus=base_genus,
        degree=degree,
        total_tuples=math.factorial(degree) ** (2 * base_genus),
        budget=limit,
        violations=tuple(a["violations"]),
        min_genus_overall=a["min_overall"][0],
        min_overall_witness=_witness_perms(degree, a["min_overall"][1]),
        min_genus_connected_boundary=None if min_k1 is None else min_k1[0],
        connected_boundary_witness=(
            None if min_k1 is None else _witness_perms(degree, min_k1[1])
        ),
        boundary_k_histogram={k: v for k, v in enumerate(khist) if v},
    )


class SharpnessReport(_Record):
    """Equality analysis for the genus floors at one (base genus, degree)."""

    base_genus: int
    degree: int
    ok: bool
    checks: dict[str, bool]
    counterexamples: tuple[dict, ...]
    notes: dict

    def to_json(self) -> dict:
        return {
            "base_genus": self.base_genus,
            "degree": self.degree,
            "ok": self.ok,
            "checks": dict(self.checks),
            "counterexamples": [_finding_json(self.degree, c) for c in self.counterexamples],
            "notes": dict(self.notes),
        }


def verify_sharpness(base_genus: int, degree: int, budget: int | None = None) -> SharpnessReport:
    """Confirm by exhaustion where the genus floors are attained.

    Unbranched covers: the floor n*g - (n - 1) holds, is attained, and
    equality happens exactly for connected covers with the full n boundary
    circles.  Connected-boundary covers: the floor n*g - floor((n-1)/2)
    holds; for odd degree it is attained unbranched, with equality exactly on
    connected covers; for even degree no unbranched cover has connected
    boundary, and the minimum over one-branch-point covers (built by merging
    two boundary circles of a connected cover) equals n*g - (n-2)/2.  The
    one-branch-point stratum never attains the unbranched floor.

    Which boundary counts happen to share the connected-boundary floor value
    is recorded in the notes without being asserted.
    """
    g, n = base_genus, degree
    _check_budget(g, n, budget)
    a = _analyze(g, n, _shape_rows(g, n))
    bound_all, bound_k1 = a["bound_all"], a["bound_k1"]
    counterexamples = list(a["violations"]) + list(a["counterexamples"])

    # One simple branch point on top of each connected cover shape: merging
    # two boundary circles (k >= 2) raises the genus by one, splitting one
    # circle (possible while k < n) keeps the genus.  Either move drops the
    # Euler characteristic by one and keeps the cover connected.
    branched: dict[tuple[int, int], dict] = {}
    for (k, genus) in sorted(a["connected"]):
        wit = a["connected"][(k, genus)]
        if k >= 2:
            branched.setdefault(
                (k - 1, genus + 1), {"from": (k, genus), "move": "merge", "witness": wit}
            )
        if k + 1 <= n:
            branched.setdefault(
                (k + 1, genus), {"from": (k, genus), "move": "split", "witness": wit}
            )

    checks: dict[str, bool] = {
        "unbranched_floor_holds": not any(
            v["check"] == "unbranched_floor" for v in a["violations"]
        ),
        "unbranched_floor_attained": a["min_overall"][0] == bound_all,
        "unbranched_floor_equality_characterized": not any(
            c["check"] == "unbranched_floor_equality" for c in a["counterexamples"]
        ),
        "connected_boundary_floor_holds": not any(
            v["check"] == "connected_boundary_floor" for v in a["violations"]
        ),
    }

    for (k, genus), info in sorted(branched.items()):
        if genus <= bound_all:
            check = "branched_floor_equality" if genus == bound_all else "branched_floor"
            counterexamples.append(
                _class_finding(check, (1, k, genus), info["witness"], move=info["move"])
            )
        if k == 1 and genus < bound_k1:
            counterexamples.append(
                _class_finding(
                    "branched_connected_boundary_floor", (1, k, genus), info["witness"],
                    move=info["move"],
                )
            )
    checks["branched_stays_above_unbranched_floor"] = not any(
        c["check"] in ("branched_floor", "branched_floor_equality") for c in counterexamples
    )

    branched_k1 = sorted(genus for (k, genus) in branched if k == 1)
    min_k1_branched = branched_k1[0] if branched_k1 else None
    min_k1_unbranched = None if a["min_k1"] is None else a["min_k1"][0]
    if n % 2:
        checks["connected_boundary_floor_attained_unbranched"] = min_k1_unbranched == bound_k1
        checks["no_branched_connected_boundary"] = min_k1_branched is None
    else:
        checks["no_unbranched_connected_boundary"] = min_k1_unbranched is None
        checks["connected_boundary_floor_attained_branched"] = min_k1_branched == bound_k1
        checks["connected_boundary_minimizers_merge_two_circles"] = all(
            info["move"] == "merge" and info["from"][0] == 2
            for (k, genus), info in branched.items()
            if k == 1 and genus == min_k1_branched
        )

    ok = all(checks.values()) and not counterexamples
    notes = {
        "unbranched_floor": bound_all,
        "connected_boundary_floor": bound_k1,
        "min_genus_overall": a["min_overall"][0],
        "min_genus_connected_boundary_unbranched": min_k1_unbranched,
        "min_genus_connected_boundary_branched": min_k1_branched,
        "floor_value_boundary_counts_unbranched": a["floor_value_ks"],
    }
    return SharpnessReport(
        base_genus=g,
        degree=n,
        ok=ok,
        checks=checks,
        counterexamples=tuple(counterexamples),
        notes=notes,
    )


def realizability_table(
    base_genus: int, degree: int, budget: int | None = None
) -> dict[tuple[int, int, int], tuple[Permutation, ...]]:
    """Every achievable (components, boundary circles, genus) triple of an
    unbranched cover, with the lexicographically first witness tuple."""
    _check_budget(base_genus, degree, budget)
    rows = _shape_rows(base_genus, degree)
    return {key: _witness_perms(degree, wit) for key, wit in sorted(rows.items())}
