"""Output checks for benchmark requests, each by a route independent of the
code path that produced the output.

* Oracle histograms are compared with the Frobenius count of tuples with a
  given commutator product, ``|G|^(2g-1) * sum_chi chi(z) / chi(1)^(2g-1)``,
  with characters from the Murnaghan-Nakayama rule.
* Oracle witnesses are re-derived through
  ``satgenus.covering.cover_from_homomorphism``.
* Permutation results are recomputed with the small image-list arithmetic
  below; braid and bound results against their closed forms.

The checks read only the keys they need, so extra keys in an envelope (such
as a future ``stats`` block) never fail a request.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

from satgenus.covering import HomomorphismCover, cover_from_homomorphism
from satgenus.perms import parse_cycles

from workloads import cycle_lengths, cycle_text

ENVELOPE_KEYS = ("command", "format_version", "inputs", "results")


class CheckError(Exception):
    """An output differs from what the independent route predicts."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- permutations as 0-indexed image lists, composed left to right ---------

def parse_perm(text: str, degree: int) -> list[int]:
    images = list(range(degree))
    for group in text.replace(")", "").split("(")[1:]:
        points = [int(tok) - 1 for tok in group.split()]
        for x, y in zip(points, points[1:] + points[:1]):
            images[x] = y
    return images


def compose(a: list[int], b: list[int]) -> list[int]:
    """Apply a first, then b."""
    return [b[x] for x in a]


def invert(p: list[int]) -> list[int]:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return inv


def commutator(a: list[int], b: list[int]) -> list[int]:
    return compose(compose(a, b), compose(invert(a), invert(b)))


def orbit_lists(gens: list[list[int]], degree: int) -> list[list[int]]:
    """1-indexed point orbits of the group the generators span, by least point."""
    label = list(range(degree))
    changed = True
    while changed:
        changed = False
        for g in gens:
            for x in range(degree):
                low = min(label[x], label[g[x]])
                if label[x] != low or label[g[x]] != low:
                    label[x] = label[g[x]] = low
                    changed = True
    orbits: dict[int, list[int]] = {}
    for x in range(degree):
        orbits.setdefault(label[x], []).append(x + 1)
    return [orbits[key] for key in sorted(orbits)]


# --- Frobenius histogram of boundary circle counts -----------------------

def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, largest), 0, -1)
            for rest in partitions(n - first, first)]


@lru_cache(maxsize=None)
def _character(beta: frozenset, mu: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama on beta-sets: removing a rim hook of length r moves
    one bead from b to b - r; the sign counts the beads jumped over."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    total = 0
    for b in beta:
        if b - r >= 0 and b - r not in beta:
            jumped = sum(1 for c in beta if b - r < c < b)
            total += (-1) ** jumped * _character(beta - {b} | {b - r}, rest)
    return total


def character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Value of the irreducible S_n character ``lam`` on cycle type ``mu``."""
    n = sum(lam)
    padded = lam + (0,) * (n - len(lam))
    return _character(frozenset(part + n - 1 - i for i, part in enumerate(padded)), mu)


def class_size(mu: tuple[int, ...]) -> int:
    n = sum(mu)
    z = 1
    for length in set(mu):
        mult = mu.count(length)
        z *= length ** mult * math.factorial(mult)
    return math.factorial(n) // z


@lru_cache(maxsize=None)
def frobenius_histogram(g: int, n: int) -> dict[int, int]:
    """Tuples in S_n^(2g) by the cycle count of their commutator product."""
    order = math.factorial(n)
    lams = partitions(n)
    dims = {lam: character(lam, (1,) * n) for lam in lams}
    hist: dict[int, int] = {}
    for mu in partitions(n):
        per_element = order ** (2 * g - 1) * sum(
            Fraction(character(lam, mu), dims[lam] ** (2 * g - 1)) for lam in lams
        )
        expect(per_element.denominator == 1, "non-integral Frobenius count")
        count = class_size(mu) * int(per_element)
        if count:
            hist[len(mu)] = hist.get(len(mu), 0) + count
    return hist


# --- per-kind result checks ----------------------------------------------

def _cover_shape(g: int, n: int, witness: list[str]) -> tuple[int, int, int]:
    """(components, genus, boundary circles) through the covering module."""
    hom = HomomorphismCover(g, n, tuple(parse_cycles(text, n) for text in witness))
    cover = cover_from_homomorphism(hom).cover
    return cover.components, cover.genus_total, cover.boundary_components


def _check_enumerate(p: dict, env: dict, stdout: str) -> None:
    g, n = p["g"], p["n"]
    r = env["results"]
    expect(env["command"] == "cover enumerate", "wrong command")
    expect(r["violations"] == [], "violations reported")
    floor_all = n * g - (n - 1)
    expect(r["min_genus_overall"] == floor_all, "min_genus_overall off the floor")
    total = math.factorial(n) ** (2 * g)
    expect(r["total_tuples"] == total, "total_tuples is not (n!)^(2g)")
    hist = {int(k): v for k, v in r["boundary_k_histogram"].items()}
    expect(sum(hist.values()) == total, "histogram does not sum to (n!)^(2g)")
    expect(hist == frobenius_histogram(g, n), "histogram differs from the Frobenius count")
    expect(_cover_shape(g, n, r["min_overall_witness"]) == (1, floor_all, n),
           "min_overall_witness does not give a connected floor cover with n circles")
    if n % 2:
        floor_k1 = n * g - (n - 1) // 2
        expect(r["min_genus_connected_boundary"] == floor_k1, "connected-boundary minimum off")
        expect(_cover_shape(g, n, r["connected_boundary_witness"]) == (1, floor_k1, 1),
               "connected_boundary_witness gives another class")
    else:
        expect(r["min_genus_connected_boundary"] is None, "even degree with connected boundary")
        expect(r["connected_boundary_witness"] is None, "even degree with a boundary witness")
    if p["sharp"]:
        expect(r["sharpness"]["ok"] is True, "sharpness.ok is not true")
        expect(r["sharpness"]["counterexamples"] == [], "sharpness counterexamples reported")


def _check_ore(p: dict, env: dict, stdout: str) -> None:
    r = env["results"]
    n = p["degree"]
    expect(r["found"] is True, "no witness for an even target")
    target = parse_perm(p["target"], n)
    expect(parse_perm(r["target"], n) == target, "target echoed wrongly")
    a, b = parse_perm(r["witness"]["a"], n), parse_perm(r["witness"]["b"], n)
    expect(commutator(a, b) == target, "[a, b] differs from the target")


def _check_word(r: dict, strands: int, letters: list[int] | None, length: int,
                exp_sum: int, perm_type: list[int]) -> None:
    expect(r["strands"] == strands, "strand count")
    expect(r["length"] == length, "word length")
    expect(r["exponent_sum"] == exp_sum, "exponent sum")
    words = [int(tok) for tok in r["word"].split()]
    expect(len(words) == length, "word text length")
    if letters is not None:
        expect(words == letters, "word letters")
    expect(cycle_lengths(parse_perm(r["permutation"], strands)) == perm_type,
           "strand permutation cycle type")
    expect(r["closure_components"] == len(perm_type), "closure component count")


def _check_analyze(p: dict, env: dict, stdout: str) -> None:
    letters = p["letters"]
    arrangement = list(range(p["strands"]))
    for letter in letters:
        i = abs(letter) - 1
        arrangement[i], arrangement[i + 1] = arrangement[i + 1], arrangement[i]
    _check_word(env["results"], p["strands"], letters, len(letters),
                sum(1 if x > 0 else -1 for x in letters), cycle_lengths(arrangement))


def _check_halftwist(p: dict, env: dict, stdout: str) -> None:
    s = p["strands"]
    length = s * (s - 1) // 2
    _check_word(env["results"], max(s, 1), None, length, length,
                [2] * (s // 2) + [1] * (s % 2))


def _check_k1(p: dict, env: dict, stdout: str) -> None:
    n = p["n"]
    _check_word(env["results"], n, None, n * n - 1, n * n - 1, [n])


def suggested_twists(n: int) -> int:
    cap = (8 * n * n + 2) // 3
    return cap if cap % 2 else cap - 1


def _k2_counts(n: int, twists: int) -> tuple[int, int]:
    """(length, exponent sum) of the cabled word with ``twists`` kinks."""
    positive = 4 * (n - 1) + 2 * n * (2 * n - 1)
    return twists + positive, positive - twists


def _check_k2(p: dict, env: dict, stdout: str) -> None:
    n = p["n"]
    twists = suggested_twists(n) if p["twists"] is None else p["twists"]
    expect(env["inputs"]["twists"] == twists, "kink count")
    length, exp_sum = _k2_counts(n, twists)
    _check_word(env["results"], 2 * n, None, length, exp_sum, [2 * n])


def _check_bounds(p: dict, env: dict, stdout: str) -> None:
    g, w, pg = p["g4k"], p["winding"], p["pattern_genus"]
    expected = [("schubert_1", abs(w) * g)]
    if pg is not None:
        expected.append(("schubert_2", abs(w) * g + pg))
    expected += [("thm1_knot", w * g - (w - 1) // 2), ("thm1_link", w * g - (w - 1))]
    got = env["results"]["bounds"]
    expect([(b["formula_id"], b["value"]) for b in got] == expected, "bound values")
    expect(all(b["clamped"] == max(0, b["value"]) for b in got), "clamped values")
    if p["csv"]:
        rows = list(csv.reader(io.StringIO(stdout)))
        expect(rows[0][0] == "formula" and rows[0][-1] == "value", "CSV header")
        expect([(row[0], int(row[-1])) for row in rows[1:]] == expected, "CSV rows")


def _check_examples_orevkov(p: dict, env: dict, stdout: str) -> None:
    n = p["n"]
    twists = suggested_twists(n)
    _, bands_k2 = _k2_counts(n, twists)
    g4_k1 = n * (n - 1) // 2
    g4_k2 = (bands_k2 - 2 * n + 1) // 2
    expected = {"n": n, "twists": twists, "bands_k1": n * n - 1, "g4_k1": g4_k1,
                "bands_k2": bands_k2, "g4_k2": g4_k2, "satellite_bound": 2 * g4_k1,
                "gap": True}
    r = env["results"]
    expect(all(r[key] == value for key, value in expected.items()), "gap report values")


def _check_cyclic(p: dict, env: dict, stdout: str) -> None:
    g, n = p["g"], p["n"]
    r = env["results"]
    expect(r["degree"] == n and r["branch"] == 0, "degree or branch count")
    expect(r["base"] == {"genus": g, "boundary": 1}, "base shape")
    expect(r["cover"] == {"components": 1, "genus": n * g - (n - 1), "boundary": n},
           "cyclic cover shape")


def _check_from_hom(p: dict, env: dict, stdout: str) -> None:
    g, n = p["g"], p["n"]
    images = [parse_perm(text, n) for text in p["images"]]
    boundary = list(range(n))
    for i in range(g):
        boundary = compose(boundary, commutator(images[2 * i], images[2 * i + 1]))
    orbits = orbit_lists(images, n)
    k, m = len(cycle_lengths(boundary)), len(orbits)
    r = env["results"]
    expect(r["boundary_permutation"] == cycle_text(boundary), "boundary permutation")
    expect(r["orbits"] == orbits, "orbits")
    expect(r["cover"]["cover"] == {"components": m, "genus": (2 * m - k - n * (1 - 2 * g)) // 2,
                                   "boundary": k}, "cover shape")


def _check_commutator(p: dict, env: dict, stdout: str) -> None:
    n = p["degree"]
    c = commutator(parse_perm(p["a"], n), parse_perm(p["b"], n))
    r = env["results"]
    expect(r["commutator"] == cycle_text(c), "commutator")
    expect(r["cycle_type"] == cycle_lengths(c), "cycle type")
    expect(r["even"] == ((n - len(cycle_lengths(c))) % 2 == 0), "parity")


def _check_perm_examples(p: dict, env: dict, stdout: str) -> None:
    m = p["m"]
    if p["type"] == "odd":
        n, s1_pairs, c_type = 2 * m + 1, range(1, m + 1), [2 * m + 1]
    else:
        n, s1_pairs, c_type = 2 * m, range(1, m), [m, m]
    s1 = "".join(f"({2 * i} {2 * i + 1})" for i in s1_pairs)
    s2 = "".join(f"({2 * i - 1} {2 * i})" for i in range(1, m + 1))
    r = env["results"]
    expect(r["degree"] == n and r["s1"] == s1 and r["s2"] == s2, "involution pair")
    c = commutator(parse_perm(s1, n), parse_perm(s2, n))
    expect(r["commutator"] == cycle_text(c), "commutator")
    expect(r["cycle_type"] == c_type == cycle_lengths(c), "commutator cycle type")
    expect(r["transitive"] is True, "pair is not transitive")


CHECKS = {
    "cover-enumerate": _check_enumerate,
    "perm-ore": _check_ore,
    "braid-analyze": _check_analyze,
    "braid-halftwist": _check_halftwist,
    "braid-k1": _check_k1,
    "braid-k2": _check_k2,
    "bounds": _check_bounds,
    "examples-orevkov": _check_examples_orevkov,
    "cover-cyclic": _check_cyclic,
    "cover-from-hom": _check_from_hom,
    "perm-commutator": _check_commutator,
    "perm-examples": _check_perm_examples,
}


def check(req: dict, returncode: int, stdout: str, out_file: str | None) -> str | None:
    """None when the request's output is right, else why it is not.

    ``out_file`` is the text of the ``--out`` file, or None when the request
    wrote none.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        if req["mode"] == "out":
            expect(bool(stdout.strip()) and not stdout.lstrip().startswith("{"),
                   "no human-readable text on stdout")
            env = json.loads(out_file)
        else:
            env = json.loads(stdout)
            if req["mode"] == "json-out":
                expect(out_file == stdout, "--out file differs from --json stdout")
        expect(all(key in env for key in ENVELOPE_KEYS), "envelope keys missing")
        CHECKS[req["kind"]](req["params"], env, stdout)
    except CheckError as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
