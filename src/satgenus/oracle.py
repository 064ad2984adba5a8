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

The scan never visits tuples and builds no character table.  By Frobenius and
Mednykh a tuple count is a sum over the characters of S_j; summing a
character over the permutations with k cycles takes the coefficient of x^k in
d_lam * prod (x + col - row) over the boxes (row, col) of lam (Jucys 1974;
Murphy 1981), where j!/d_lam = H_lam, the product of the hook lengths.  One
walk over the partitions of every size j <= n counts degrees 1..n by boundary
circles (``_boundary_histograms``), and the exponential formula turns them
into the counts of every cover shape (m components, k boundary circles).
Each orbit carries an even boundary product, so every tuple has k = n mod 2
and m <= k.  The sharpness check and the realizability table read no counts.

The witnesses are built by a rule (``_first_pairs``), with no table of S_n.
Padding a pair with identities keeps its shape, so a shape's first tuple at
genus g is 2g - 2 identities and its first pair (s, q).  For k = n - 2j and
a = k - m + 1, on the points 1..n, s is the (j + 1)-cycle (n-j ... n), and
q fixes the first m - 1 points and is, on the a + 2j after them numbered
from 1, (1 ... a, a+j)(a+1, a+1+j) ... (a+j-1, a+2j-1), or the a-cycle
(1 ... a) at j = 0: at degree 8 the shape (1, 2) has s = (5 6 7 8) and
q = (1 2 5)(3 6)(4 7).  Every pair built is checked to have its shape, and
every enumeration checks that its counts have the rule's shapes.

Why s is first: a permutation ranked before (n-j ... n) fixes the first
n - j points, so its length, n minus its cycle count, is below j.  [s, q]
is s times q s^-1 q^-1, a conjugate of s^-1, and length is subadditive and
constant on classes, so for such an s the commutator has more than k
cycles: no earlier row (s, all q) reaches k, and the row of (n-j ... n)
reaches every (m, k).  That q is then the first of its row is not proved;
it is checked against exhaustion of S_n x S_n through n = 11 (161 shapes).

Violations and counterexamples (none are expected) are reported once per
shape class, with the lexicographically first witness tuple.  A witness is
a tuple of 0-indexed image tuples, shared wherever entries repeat; wrap an
entry in ``perms.Permutation`` for arithmetic.  Shapes agree with
``covering.cover_from_homomorphism`` by construction; the tests cross-check
the scan against brute force on small groups and against class products and
Murnaghan-Nakayama characters on larger ones.  The oracle imports no other
layer, only the package root, and keeps no cache.  ``_check_budget``
decides every refusal before any work, and the budget alone sets how far
the degree reaches: at the default 10^9, degree 29 at genus 1 and 27 at
genus 2.
"""

from __future__ import annotations

import math

from . import BudgetExceededError, _Record, _cycle_notation, _orbits, _rough

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
# The largest budget taken, far past any request that finishes.  The reach
# loop of ``_check_budget`` runs until genus 1 passes the budget: about 1 s at
# 10^400, twelve times longer with each doubling of the budget's digits.
MAX_BUDGET = 10**100


def _check_budget(g: int, n: int, budget: int | None) -> int:
    """Validate the request and return the work limit, refusing it before
    any work.

    The estimate counts what the request builds, in units of about 30 ns on
    a 2-CPU host, so that the default 10^9 is about half a minute:

    - 1 per 8 bits of the character counts: for each degree j <= n, p(j)
      + p(j)^2 numbers of about (2g - 1) log2 j! bits, p(j) the partitions
      of j: the weights of the character table that the content route, p(j)
      powers and about p(j) (j + 1) products, replaced;
    - 256 per witness entry: 2g for each cover shape (m, k), m <= k <= n and
      k = n mod 2, of which there are floor((n + 1)^2 / 4).  An entry takes
      under 1 us, but about 90 bytes at the peak of a report's JSON, so the
      weight keeps the default's deepest witnesses near 370 MB;
    - d^2 / 1024 for each of the tuple count and the at most (n + 1) // 2
      histogram counts, of up to d = 2g log10 n! + 1 digits: Python turns
      an int into decimal text in quadratic time, and a request does so
      once per count, for its human lines or its JSON, or twice when
      ``--out`` writes the JSON beside the human lines.

    The character counts come first, also at the weights of genus 1, which
    no genus undercuts: a degree past the budget's reach is refused at the
    first j where they pass it, before n! or a partition of n is formed.
    This is the only rule that refuses an enumeration, under any setting of
    the interpreter: the print term bounds the digits of the counts, which
    the command line prints in full.
    """
    if g < 1:
        raise ValueError("the base surface needs genus at least 1")
    if n < 1:
        raise ValueError("degree must be at least 1")
    limit = DEFAULT_BUDGET if budget is None else budget
    if limit < 1:
        raise ValueError("budget must be positive")
    if limit > MAX_BUDGET:
        raise ValueError("budget must be at most 10^100")
    counts = [1, 1]  # p(0), p(1)
    order, reach, work = 1, 0, 256 * 2 * g * ((n + 1) ** 2 // 4)
    for j in range(2, n + 1):
        order *= j
        types = _next_partition_count(counts)
        # exact rational arithmetic on the float logs, so no genus overflows them
        num, den = math.log2(order).as_integer_ratio()
        reach += (types + types**2) * num // (8 * den)
        work += (types + types**2) * (2 * g - 1) * num // (8 * den)
        if reach > limit:
            raise BudgetExceededError(
                f"enumerating {_power(n, 2 * g)} needs an estimated {_rough(reach)} work units "
                f"for the character counts of degrees up to {j} alone, over the budget of {limit}"
            )
    num, den = math.log10(order).as_integer_ratio()
    work += ((n + 1) // 2 + 1) * (2 * g * num // den + 1) ** 2 // 1024
    if work > limit:
        raise BudgetExceededError(
            f"enumerating {_power(n, 2 * g)} needs an estimated {_rough(work)} work units "
            f"(witnesses and character counts), over the budget of {limit}"
        )
    return limit


def _next_partition_count(counts: list[int]) -> int:
    """Append p(j), the number of partitions of j = len(counts), to the
    counts p(0), ..., p(j - 1), and return it.  Euler's pentagonal number
    recurrence lists no partition."""
    j = len(counts)
    total, k = 0, 1
    while (pentagonal := k * (3 * k - 1) // 2) <= j:
        pair = counts[j - pentagonal] + (counts[j - pentagonal - k] if pentagonal + k <= j else 0)
        total += pair if k % 2 else -pair
        k += 1
    counts.append(total)
    return total


def _power(degree: int, exponent: int) -> str:
    """S_n^e, n and e as ``_rough`` gives them, bracketed when shortened."""
    texts = [text if text.isdigit() else f"({text})" for text in map(_rough, (degree, exponent))]
    return f"S_{texts[0]}^{texts[1]}"


def _first_pairs(n: int) -> dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]]:
    """The first pair (s, q) of every cover shape (m, k), 1 <= m <= k <= n
    and k = n mod 2, as image tuples, by the rule of the module docstring:
    in 0-indexed points s is the cycle (k+j-1 ... n-1), and q the cycle
    (m-1 ... k-1, k+j-1) and the swaps (x, x+j), k <= x < k+j-1."""
    pairs = {}
    for k in range(2 - n % 2, n + 1, 2):
        j = (n - k) // 2
        s = (*range(k + j - 1), *range(k + j, n), k + j - 1)
        s_inv = sorted(range(n), key=s.__getitem__)
        for m in range(1, k + 1):
            images = list(range(n))
            cycle = [*range(m - 1, k), k + j - 1] if j else [*range(m - 1, k)]
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                images[x] = y
            for x in range(k, k + j - 1):
                images[x], images[x + j] = x + j, x
            q = tuple(images)
            q_inv = sorted(range(n), key=q.__getitem__)
            # [s, q] applies s, q, s^-1, q^-1 in turn
            commutator = [q_inv[s_inv[q[s[x]]]] for x in range(n)]
            if (len(_orbits(n, s, q)), len(_orbits(n, commutator))) != (m, k):
                raise AssertionError(f"the pair built for the shape {(m, k)} has another shape; this is a bug")
            pairs[m, k] = (s, q)
    return pairs


def _shape_rows(g: int, n: int) -> dict[tuple[int, int, int], tuple[tuple[int, ...], ...]]:
    """Every cover shape (components, boundary circles, genus) at genus g
    with its first tuple as image tuples: 2g - 2 identities and its first
    pair."""
    base_odd = n * (2 * g - 1)
    identities = (tuple(range(n)),) * (2 * g - 2)
    return {
        (m, k, (base_odd + 2 * m - k) >> 1): identities + pair
        for (m, k), pair in _first_pairs(n).items()
    }


def _boundary_histograms(g: int, n: int) -> list[list[int]]:
    """How many tuples of S_j^(2g) have k boundary circles, as lists indexed
    by k = 0..j, for j = 1..n: each partition lam of j adds H_lam^(2g - 1) *
    (j!/H_lam) times the coefficients of its content product.  One
    depth-first walk visits each partition of each size once, as its parent
    and a last row r of p boxes, no longer than the row above: the box
    (r, p - 1) extends the product of the row of p - 1, and H_lam = H_parent
    * p! * prod b / prod (b - p) over b = lam_i + r - i for the rows i < r."""
    orders = [math.factorial(j) for j in range(n + 1)]
    hists = [[0] * (j + 1) for j in range(n + 1)]
    stack = [((), [1], 1)]  # a partition, prod (x + content) lowest power first, H_lam
    while stack:
        lam, poly, hooks = stack.pop()
        r, size = len(lam), len(poly) - 1
        betas = [part + r - i for i, part in enumerate(lam)]
        above, child = hooks * math.prod(betas), poly
        for p in range(1, min(lam[-1] if lam else n, n - size) + 1):
            child = [(p - 1 - r) * c + lower for c, lower in zip([*child, 0], [0, *child])]
            child_hooks = above * orders[p] // math.prod(b - p for b in betas)
            weight = child_hooks ** (2 * g - 1) * (orders[size + p] // child_hooks)
            hists[size + p] = [total + weight * c for total, c in zip(hists[size + p], child)]
            stack.append(((*lam, p), child, child_hooks))
    if any(sum(hists[j]) != orders[j] ** (2 * g) for j in range(1, n + 1)):
        raise AssertionError("scan lost tuples; this is a bug")
    return hists[1:]


def _report_histogram(g: int, n: int, rows: dict) -> list[int]:
    """The boundary histogram of an enumeration: the shape counts summed
    over components, whose support must be the shapes of ``rows``."""
    shapes = _shape_histogram(g, n)
    if shapes.keys() != {(m, k) for m, k, _ in rows}:
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
    for size, connected in enumerate(_boundary_histograms(g, n), 1):
        shapes: dict[tuple[int, int], int] = {}
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
    10^9).
    """
    limit = _check_budget(base_genus, degree, budget)
    rows = _shape_rows(base_genus, degree)
    a = _analyze(base_genus, degree, rows)
    khist = _report_histogram(base_genus, degree, rows)
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
    # (k, genus) keeps the first (move, witness) that reaches it.
    branched: dict[tuple[int, int], tuple[str, tuple]] = {}
    for (m, k, genus), wit in sorted(rows.items()):
        if m == 1 and k >= 2:
            branched.setdefault((k - 1, genus + 1), ("merge", wit))
        if m == 1 and k < n:
            branched.setdefault((k + 1, genus), ("split", wit))

    for (k, genus), (move, wit) in sorted(branched.items()):
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
