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

The scan never visits tuples.  Hook lengths and contents count them by
boundary circles at any genus, one exact integer power per partition of n,
with no character table (``_boundary_histogram``).  Rows (s, all q) of
S_n x S_n for the first permutations s of the cycle types, walked in rank
order until every cover shape has its first pair, give the witnesses
(``_CountRows``): 5 of the 40320 rows of S_8.

The shapes at genus g are exactly those of the pairs.  Padding a pair with
identities keeps its shape, so a shape's first tuple at genus g is 2g - 2
identities and its first pair.  Each orbit carries an even boundary
product, so every tuple has k = n mod 2 and m <= k, and the witness walk
asserts that the pairs show every such shape.

The exponential formula turns the histograms of degrees 1..n into the count
of every shape, whose support must be the shapes of the pairs; that checks
the tuple counts against the witness walk at run time in every
enumeration.  The sharpness check and the realizability table read no
histogram.

Shapes agree with ``covering.cover_from_homomorphism`` by construction; the
tests cross-check the scan against brute force on small groups and against
class products and Murnaghan-Nakayama characters on larger ones.  Violations
and counterexamples (none are expected) are reported once per shape class,
with the lexicographically first witness tuple.  A witness is a tuple of
0-indexed image tuples, shared wherever entries repeat; wrap an entry in
``perms.Permutation`` for arithmetic.  The oracle imports no other layer.

Every refusal is decided by ``_check_budget`` before any table is built;
degrees above ``satgenus.MAX_TABLE_DEGREE`` (8) are refused whatever the
budget.  The walk's S_n tables are local to it and freed when it ends; the
caches hold only its witnesses, constants of the degree.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache
from operator import add, itemgetter
from typing import Iterator

from . import MAX_TABLE_DEGREE, BudgetExceededError, _Record, _cycle_notation

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


def _check_budget(g: int, n: int, budget: int | None) -> int:
    """Validate the request and return the work limit, refusing it before
    any table is built.

    The estimate counts what the request builds, in units of about 30 ns on
    a 2-CPU host, so that the default 10^9 is about half a minute:

    - 16 per entry of p(n) rows of n!: the S_n tables and at most p(n) - 1
      witness rows, with p(n) the number of cycle types;
    - 256 per witness entry: 2g for each cover shape (m, k), m <= k <= n and
      k = n mod 2, of which there are floor((n + 1)^2 / 4).  An entry takes
      under 1 us, but about 90 bytes at the peak of a report's JSON, so the
      weight keeps the default's deepest witnesses near 370 MB;
    - 1 per 8 bits of the character counts: for each degree j <= n, p(j)
      + p(j)^2 numbers of about (2g - 1) log2 j! bits, which the exponential
      formula then multiplies by shape.  The content route forms p(j) powers
      and about p(j) (j + 1) products, but the weights of the character
      table it replaced are kept, so that no refusal moves;
    - d^2 / 1024 for each of the tuple count and the at most (n + 1) // 2
      histogram counts, of up to d = 2g log10 n! + 1 digits: Python turns
      an int into decimal text in quadratic time, and a report is printed
      as text and as JSON.
    """
    if g < 1:
        raise ValueError("the base surface needs genus at least 1")
    if n < 1:
        raise ValueError("degree must be at least 1")
    limit = DEFAULT_BUDGET if budget is None else budget
    if limit < 1:
        raise ValueError("budget must be positive")
    if n > MAX_TABLE_DEGREE:
        raise BudgetExceededError(
            f"degree {n} exceeds the enumeration limit {MAX_TABLE_DEGREE}, "
            "the largest degree whose S_n tables fit in memory"
        )
    _check_printable(g, n)
    work = 16 * len(_partitions(n)) * math.factorial(n) + 256 * 2 * g * ((n + 1) ** 2 // 4)
    # exact rational arithmetic on the float logs, so no genus overflows them
    for j in range(2, n + 1):
        types = len(_partitions(j))
        num, den = math.log2(math.factorial(j)).as_integer_ratio()
        work += (types + types**2) * (2 * g - 1) * num // (8 * den)
    num, den = math.log10(math.factorial(n)).as_integer_ratio()
    work += ((n + 1) // 2 + 1) * (2 * g * num // den + 1) ** 2 // 1024
    if work > limit:
        raise BudgetExceededError(
            f"enumerating {_power(n, 2 * g)} needs an estimated {_rough(work)} work units "
            f"(witness rows, witnesses and character counts), over the budget of {limit}"
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
    if not limit:
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
    raise BudgetExceededError(
        f"the tuple count of {_power(degree, exponent)} has {_rough(digits)} decimal digits, "
        f"over this interpreter's limit of {limit} for printing an integer"
    )


def _power(degree: int, exponent: int) -> str:
    """S_n^e, the exponent as ``_rough`` gives it."""
    text = _rough(exponent)
    return f"S_{degree}^{text}" if text.isdigit() else f"S_{degree}^({text})"


def _rough(x: int) -> str:
    """x in decimal up to 15 digits, its power of ten above: a longer count
    may be an estimate, or too long to print at all."""
    if x < 10**15:
        return str(x)
    return f"about 10^{math.floor(math.log10(x))}"


def _join(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The join of the set partition a, given as labels (each point labelled
    by the least point of its block), with the links x ~ b[x], as labels: the
    join of a and b when b is labels too, the cycle partition of b when a is
    discrete and b a permutation.  A plain union-find whose roots stay the
    least points of their blocks, so one pass in point order flattens it."""
    root = list(a)
    for x, y in enumerate(b):
        while root[x] != x:
            x = root[x]
        while root[y] != y:
            y = root[y]
        if x < y:
            root[y] = x
        elif y < x:
            root[x] = y
    for x, up in enumerate(root):
        root[x] = root[up]
    return root


def _commutator_row(s: int, perms: list, inverses: list, composers: list) -> Iterator[tuple[int, ...]]:
    """The commutator [s, q] of every q, in rank order of q, one at a time:
    ``perms`` is S_n in rank order, ``inverses`` their inverses, and
    ``composers[r]`` maps q to "apply perms[r], then q"."""
    then_s, then_s_inv = composers[s], composers[perms.index(inverses[s])]
    # [s, q] applies s, q, s^-1, q^-1 in turn
    return (then_s(then_q(then_s_inv(q_inv))) for then_q, q_inv in zip(composers, inverses))


class _CountRows:
    """The witness walk of S_n x S_n: the first pair of every cover shape.

    Permutations are ranked in lexicographic order of their image tuples,
    and cycle types are numbered in the order of their first permutations:
    ``firsts[t]`` is the rank of the first permutation of type t.
    ``witnesses`` maps every cover shape (m, k), the orbits of the pair and
    the cycles of its commutator, to its lexicographically first pair (s, q)
    as image tuples.

    The witnesses come from rows (s, all q).  Conjugating by h maps the pair
    (s, q) to (s^h, q^h), keeps its shape and conjugates its commutator, so
    row s^h holds the shapes of row s, and the first row holding a shape is
    the first permutation of some type.  Those rows are walked in rank
    order until every shape (m, k), 1 <= m <= k <= n and k = n mod 2 (the
    commutator is even), has its first pair; the orbits of <s, q> join the
    cycle partitions of s and q, one join per partition.  The tables of
    S_n, n! permutations with their inverses and composers, live only while
    the walk runs.
    """

    def __init__(self, n: int):
        perms = list(itertools.permutations(range(n)))
        inverses = [tuple(sorted(range(n), key=p.__getitem__)) for p in perms]
        # itemgetter with a single index returns a bare item; the one
        # permutation of S_1 composes to itself
        composers = [itemgetter(*p) for p in perms] if n > 1 else [tuple]
        discrete = tuple(range(n))
        partitions: dict[tuple[int, ...], int] = {}  # cycle partitions, in order of first permutation
        part_of = [partitions.setdefault(tuple(_join(discrete, p)), len(partitions)) for p in perms]
        first_part = {}  # the first cycle partition of each cycle type
        for part, labs in enumerate(partitions):
            first_part.setdefault(tuple(sorted(map(labs.count, set(labs)))), part)
        self.firsts = firsts = list(map(part_of.index, first_part.values()))
        cycles = [len(set(labs)) for labs in partitions]
        cycles_of = dict(zip(perms, map(cycles.__getitem__, part_of)))

        shapes = {(m, k) for k in range(2 - n % 2, n + 1, 2) for m in range(1, k + 1)}
        self.witnesses = witnesses = {}
        labels = list(partitions)
        for s in firsts:
            # a pair is coded as one integer, orbits * (n + 1) + commutator cycles
            orbit_keys = [(n + 1) * len(set(_join(labels[part_of[s]], part))) for part in labels]
            comms = map(cycles_of.__getitem__, _commutator_row(s, perms, inverses, composers))
            row = list(map(add, map(orbit_keys.__getitem__, part_of), comms))
            for key in dict.fromkeys(row):
                shape = divmod(key, n + 1)
                if shape not in witnesses:
                    if shape not in shapes:
                        raise AssertionError(f"the pairs show a cover shape {shape} out of range; this is a bug")
                    witnesses[shape] = (perms[s], perms[row.index(key)])
            if len(witnesses) == len(shapes):
                break
        else:
            raise AssertionError("the witness rows end before every cover shape has a pair; this is a bug")


@lru_cache(maxsize=None)
def _classes(n: int) -> _CountRows:
    return _CountRows(n)


def _shape_rows(g: int, n: int) -> dict[tuple[int, int, int], tuple[tuple[int, ...], ...]]:
    """Every cover shape (components, boundary circles, genus) with its
    first tuple as image tuples: 2g - 2 identities and its first pair.
    These are all the shapes at genus g: every tuple has k = n mod 2 and
    m <= k, one even boundary product per orbit, and the pairs show every
    such shape."""
    pc = _classes(n)
    base_odd = n * (2 * g - 1)
    identities = (tuple(range(n)),) * (2 * g - 2)
    return {
        (m, k, (base_odd + 2 * m - k) >> 1): identities + pair
        for (m, k), pair in pc.witnesses.items()
    }


def _partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """The partitions of n, the cycle types of S_n, as non-increasing
    tuples in lexicographic order from the largest: (n) first, 1^n last."""
    if n == 0:
        return [()]
    return [
        (part, *rest)
        for part in range(min(n, largest or n), 0, -1)
        for rest in _partitions(n - part, part)
    ]


def _boundary_histogram(g: int, n: int) -> list[int]:
    """How many tuples of S_n^(2g) have k boundary circles, the cycles of
    their boundary product, as a list indexed by k = 0..n.

    By Frobenius and Mednykh a tuple count is a sum over the characters of
    S_n, and summing a character over the permutations with k cycles takes
    the coefficient of x^k in d_lam * prod (x + col - row) over the boxes
    (row, col) of lam (Jucys 1974; Murphy 1981).  With the hook length
    formula n!/d_lam = H_lam, the product of the hook lengths of lam, each
    partition adds H_lam^(2g - 1) * (n!/H_lam) times those coefficients.
    """
    order = math.factorial(n)
    hist = [0] * (n + 1)
    for lam in _partitions(n):
        heights = [sum(part > col for part in lam) for col in range(lam[0])]
        hooks = 1
        poly = [1] + [0] * n  # prod (x + content), lowest power first
        for row, part in enumerate(lam):
            for col in range(part):
                hooks *= part - col + heights[col] - row - 1
                poly = [(col - row) * c + lower for c, lower in zip(poly, [0, *poly])]
        weight = hooks ** (2 * g - 1) * (order // hooks)
        hist = [total + weight * c for total, c in zip(hist, poly)]
    if sum(hist) != order ** (2 * g):
        raise AssertionError("scan lost tuples; this is a bug")
    return hist


def _report_histogram(g: int, n: int) -> list[int]:
    """The boundary histogram of an enumeration: the sum over components
    of the shape counts, whose support must be the shapes of the pairs."""
    shapes = _shape_histogram(g, n)
    if shapes.keys() != _classes(n).witnesses.keys():
        raise AssertionError(f"the shapes at genus {g} are not those of the pairs; this is a bug")
    khist = [0] * (n + 1)
    for (_, k), count in shapes.items():
        khist[k] += count
    return khist


def _shape_histogram(g: int, n: int) -> dict[tuple[int, int], int]:
    """How many tuples give each cover shape (components, boundary
    circles), from the boundary histograms of degrees 1..n.

    By the exponential formula: the orbit of the first point has some j
    points, chosen in C(size - 1, j - 1) ways, and carries a transitive
    tuple; the other points carry any tuple, and components and boundary
    circles add up.  What the smaller first orbits leave of a histogram are
    the transitive tuples of its size.
    """
    full = [{(0, 0): 1}]
    transitive: list[dict[int, int]] = []
    for size in range(1, n + 1):
        shapes: dict[tuple[int, int], int] = {}
        connected = _boundary_histogram(g, size)
        for j, counts in enumerate(transitive, 1):
            ways = math.comb(size - 1, j - 1)
            for k, count in counts.items():
                for (m, rest), other in full[size - j].items():
                    tuples = ways * count * other
                    shapes[m + 1, k + rest] = shapes.get((m + 1, k + rest), 0) + tuples
                    connected[k + rest] -= tuples
        transitive.append({k: count for k, count in enumerate(connected) if count})
        shapes.update(((1, k), count) for k, count in transitive[-1].items())
        full.append(shapes)
    return {shape: count for shape, count in full[n].items() if count}


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
    return {
        "bound_all": bound_all,
        "bound_k1": bound_k1,
        "violations": violations,
        "counterexamples": counterexamples,
        "min_overall": min((genus, wit) for (_, _, genus), wit in rows.items()),
        "min_k1": min(((genus, wit) for (_, k, genus), wit in rows.items() if k == 1), default=None),
    }


def _witness_json(witness: tuple[tuple[int, ...], ...]) -> list[str]:
    """The witness in cycle notation, each distinct image tuple converted
    once: past genus 1 all but two entries are the identity."""
    text = {images: _cycle_notation(images) for images in set(witness)}
    return list(map(text.__getitem__, witness))


def _finding_json(finding: dict) -> dict:
    out = dict(finding)
    out["witness"] = _witness_json(finding["witness"])
    return out


class EnumerationReport(_Record):
    """Aggregate of one full scan of S_degree^(2*base_genus)."""

    base_genus: int
    degree: int
    total_tuples: int
    budget: int
    violations: tuple[dict, ...]
    min_genus_overall: int
    min_overall_witness: tuple[tuple[int, ...], ...]
    min_genus_connected_boundary: int | None
    connected_boundary_witness: tuple[tuple[int, ...], ...] | None
    boundary_k_histogram: dict[int, int]

    def to_json(self) -> dict:
        overall = _witness_json(self.min_overall_witness)
        connected = self.connected_boundary_witness
        if connected is not None:  # at degree 1 both minima share one witness: render it once
            connected = overall if connected is self.min_overall_witness else _witness_json(connected)
        return {
            "base_genus": self.base_genus,
            "degree": self.degree,
            "total_tuples": self.total_tuples,
            "budget": self.budget,
            "violations": [_finding_json(v) for v in self.violations],
            "min_genus_overall": self.min_genus_overall,
            "min_overall_witness": overall,
            "min_genus_connected_boundary": self.min_genus_connected_boundary,
            "connected_boundary_witness": connected,
            "boundary_k_histogram": {
                str(k): v for k, v in sorted(self.boundary_k_histogram.items())
            },
        }


def enumerate_covers(base_genus: int, degree: int, budget: int | None = None) -> EnumerationReport:
    """Account for every monodromy tuple and report minima, histogram and any
    violations of the two genus floors (there should never be any).

    ``budget`` caps the work units that ``_check_budget`` estimates (default
    10^9); degrees above ``MAX_TABLE_DEGREE`` are refused whatever it is.
    """
    limit = _check_budget(base_genus, degree, budget)
    a = _analyze(base_genus, degree, _shape_rows(base_genus, degree))
    khist = _report_histogram(base_genus, degree)
    min_k1 = a["min_k1"]
    return EnumerationReport(
        base_genus=base_genus,
        degree=degree,
        total_tuples=math.factorial(degree) ** (2 * base_genus),
        budget=limit,
        violations=tuple(a["violations"]),
        min_genus_overall=a["min_overall"][0],
        min_overall_witness=a["min_overall"][1],
        min_genus_connected_boundary=None if min_k1 is None else min_k1[0],
        connected_boundary_witness=None if min_k1 is None else min_k1[1],
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
            "counterexamples": [_finding_json(c) for c in self.counterexamples],
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
    rows = _shape_rows(g, n)
    a = _analyze(g, n, rows)
    bound_all, bound_k1 = a["bound_all"], a["bound_k1"]
    counterexamples = a["violations"] + a["counterexamples"]

    # One simple branch point on top of each connected cover shape: merging
    # two boundary circles (k >= 2) raises the genus by one, splitting one
    # circle (possible while k < n) keeps the genus.  Either move drops the
    # Euler characteristic by one and keeps the cover connected.  Each
    # (k, genus) keeps the first (source k, move, witness) that reaches it.
    branched: dict[tuple[int, int], tuple[int, str, tuple]] = {}
    for (m, k, genus), wit in sorted(rows.items()):
        if m == 1 and k >= 2:
            branched.setdefault((k - 1, genus + 1), (k, "merge", wit))
        if m == 1 and k < n:
            branched.setdefault((k + 1, genus), (k, "split", wit))

    for (k, genus), (_, move, wit) in sorted(branched.items()):
        if genus <= bound_all:
            check = "branched_floor_equality" if genus == bound_all else "branched_floor"
            counterexamples.append(_class_finding(check, (1, k, genus), wit, move=move))
        if k == 1 and genus < bound_k1:
            counterexamples.append(
                _class_finding("branched_connected_boundary_floor", (1, k, genus), wit, move=move)
            )

    found = {c["check"] for c in counterexamples}
    min_k1_branched = min((genus for (k, genus) in branched if k == 1), default=None)
    min_k1_unbranched = None if a["min_k1"] is None else a["min_k1"][0]
    checks: dict[str, bool] = {
        "unbranched_floor_holds": "unbranched_floor" not in found,
        "unbranched_floor_attained": a["min_overall"][0] == bound_all,
        "unbranched_floor_equality_characterized": "unbranched_floor_equality" not in found,
        "connected_boundary_floor_holds": "connected_boundary_floor" not in found,
        "branched_stays_above_unbranched_floor": not found & {"branched_floor", "branched_floor_equality"},
    }
    if n % 2:
        checks["connected_boundary_floor_attained_unbranched"] = min_k1_unbranched == bound_k1
        checks["no_branched_connected_boundary"] = min_k1_branched is None
    else:
        checks["no_unbranched_connected_boundary"] = min_k1_unbranched is None
        checks["connected_boundary_floor_attained_branched"] = min_k1_branched == bound_k1
        checks["connected_boundary_minimizers_merge_two_circles"] = (
            min_k1_branched is None or branched[1, min_k1_branched][:2] == (2, "merge")
        )

    ok = all(checks.values()) and not counterexamples
    notes = {
        "unbranched_floor": bound_all,
        "connected_boundary_floor": bound_k1,
        "min_genus_overall": a["min_overall"][0],
        "min_genus_connected_boundary_unbranched": min_k1_unbranched,
        "min_genus_connected_boundary_branched": min_k1_branched,
        "floor_value_boundary_counts_unbranched": sorted(
            {k for (_, k, genus) in rows if genus == bound_k1}
        ),
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
) -> dict[tuple[int, int, int], tuple[tuple[int, ...], ...]]:
    """Every achievable (components, boundary circles, genus) triple of an
    unbranched cover, with the lexicographically first witness tuple as
    image tuples."""
    _check_budget(base_genus, degree, budget)
    return dict(sorted(_shape_rows(base_genus, degree).items()))
