"""Seeded request lists for the three benchmark workloads.

A request is a dict with

    kind    what the output checks expect (see checks.py)
    argv    the satgenus arguments, without output flags
    mode    "json" (--json), "out" (--out FILE, human text on stdout) or
            "json-out" (--json --out FILE, the file must equal stdout)
    params  the generated inputs, for the checks

The program sees only ``argv`` plus the output flags.  A workload's request
list is generated once per run from the seed and then replayed pass after
pass, so every pass does the same work.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("s6-cold", "deep-genus", "toolkit-mix")

# Non-identity even cycle types of S_6.  The ore sweep costs the same for
# every target, so the seed only changes which classes get covered.
S6_EVEN_TYPES = ((2, 2, 1, 1), (3, 1, 1, 1), (3, 3), (4, 2), (5, 1))

DEEP_GENUS_CASES = ((2, 3), (3, 3), (4, 3), (2, 4), (1, 5))

# Requests of each kind in one toolkit-mix pass; 100 in all, so that one
# pass already has ten samples beyond its 90th percentile.
TOOLKIT_MIX = {
    "braid-analyze": 12,
    "braid-halftwist": 8,
    "braid-k1": 8,
    "braid-k2": 8,
    "bounds": 14,
    "examples-orevkov": 8,
    "cover-cyclic": 8,
    "cover-from-hom": 12,
    "perm-commutator": 8,
    "perm-examples": 6,
    "perm-ore": 8,
}
MODES = ("json", "out", "json-out")


def cycle_text(images: list[int]) -> str:
    """1-indexed cycle notation of a 0-indexed image list, fixed points
    omitted, the identity as '()'."""
    seen = [False] * len(images)
    parts = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = images[x]
        if len(cyc) > 1:
            parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def cycle_lengths(images: list[int]) -> list[int]:
    """Cycle lengths, fixed points included, sorted descending."""
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            length += 1
            x = images[x]
        if length:
            lengths.append(length)
    return sorted(lengths, reverse=True)


def _random_perm(rng: random.Random, degree: int) -> list[int]:
    images = list(range(degree))
    rng.shuffle(images)
    return images


def _perm_of_type(rng: random.Random, cycle_type: tuple[int, ...]) -> list[int]:
    points = list(range(sum(cycle_type)))
    rng.shuffle(points)
    images = [0] * len(points)
    pos = 0
    for length in cycle_type:
        cyc = points[pos:pos + length]
        for x, y in zip(cyc, cyc[1:] + cyc[:1]):
            images[x] = y
        pos += length
    return images


def _random_even_perm(rng: random.Random, degree: int) -> list[int]:
    images = _random_perm(rng, degree)
    if (degree - len(cycle_lengths(images))) % 2:
        images[0], images[1] = images[1], images[0]
    return images


def _request(kind: str, argv: list, mode: str = "json", **params) -> dict:
    return {"kind": kind, "argv": [str(a) for a in argv], "mode": mode, "params": params}


def enumerate_request(g: int, n: int, sharp: bool) -> dict:
    argv = ["cover", "enumerate", "--genus", g, "--degree", n]
    if sharp:
        argv.append("--sharpness")
    return _request("cover-enumerate", argv, g=g, n=n, sharp=sharp)


def ore_request(target: list[int]) -> dict:
    text = cycle_text(target)
    return _request("perm-ore", ["perm", "ore", "--target", text, "--degree", len(target)],
                    target=text, degree=len(target))


def s6_cold(rng: random.Random) -> list[dict]:
    """Cold S_6 table builds, with and without the sharpness pass, plus one
    degree-6 ore sweep on an even target of a seeded cycle type."""
    reqs = [enumerate_request(1, 6, False), enumerate_request(1, 6, True),
            ore_request(_perm_of_type(rng, rng.choice(S6_EVEN_TYPES)))]
    rng.shuffle(reqs)
    return reqs


def deep_genus(rng: random.Random) -> list[dict]:
    """Scan-dominated enumerations, each case with and without sharpness."""
    reqs = [enumerate_request(g, n, sharp) for g, n in DEEP_GENUS_CASES for sharp in (False, True)]
    rng.shuffle(reqs)
    return reqs


def _braid_word(rng: random.Random) -> tuple[int, list[int], str]:
    strands = rng.randint(2, 10)
    letters: list[int] = []
    tokens = []
    length = rng.randint(1, 40)
    while len(letters) < length:
        base = rng.randint(1, strands - 1) * rng.choice((1, -1))
        power = rng.choice((1, 1, 1, 2, 3, -1, -2))
        letter = base if power > 0 else -base
        letters.extend([letter] * abs(power))
        tokens.append(str(base) if power == 1 else f"{base}^{power}")
    return strands, letters, " ".join(tokens)


def _toolkit_request(kind: str, rng: random.Random, mode: str) -> dict:
    if kind == "braid-analyze":
        strands, letters, text = _braid_word(rng)
        return _request(kind, ["braid", "analyze", f"--word={text}", "--strands", strands],
                        mode, strands=strands, letters=letters)
    if kind == "braid-halftwist":
        strands = rng.randint(1, 60)
        return _request(kind, ["braid", "halftwist", "--strands", strands], mode,
                        strands=strands)
    if kind == "braid-k1":
        n = rng.randint(2, 60)
        return _request(kind, ["braid", "orevkov", "--family", "k1", "--n", n], mode, n=n)
    if kind == "braid-k2":
        n = rng.randint(2, 60)
        argv = ["braid", "orevkov", "--family", "k2", "--n", n]
        twists = None
        if rng.random() < 0.5:
            twists = 2 * rng.randint(0, 50) + 1
            argv += ["--twists", twists]
        return _request(kind, argv, mode, n=n, twists=twists)
    if kind == "bounds":
        g4k, winding = rng.randint(0, 20), rng.randint(1, 15)
        argv = ["bounds", "--g4k", g4k, "--winding", winding]
        pattern_genus = None
        if rng.random() < 0.5:
            pattern_genus = rng.randint(0, 10)
            argv += ["--pattern-genus", pattern_genus]
        csv = mode == "out" and rng.random() < 0.5
        if csv:
            argv.append("--csv")
        return _request(kind, argv, mode, g4k=g4k, winding=winding,
                        pattern_genus=pattern_genus, csv=csv)
    if kind == "examples-orevkov":
        n = rng.randint(2, 60)
        return _request(kind, ["examples", "orevkov", "--n", n], mode, n=n)
    if kind == "cover-cyclic":
        g, n = rng.randint(1, 10), rng.randint(1, 12)
        return _request(kind, ["cover", "cyclic", "--genus", g, "--degree", n], mode, g=g, n=n)
    if kind == "cover-from-hom":
        g, n = rng.randint(1, 3), rng.randint(2, 9)
        images = [cycle_text(_random_perm(rng, n)) for _ in range(2 * g)]
        argv = ["cover", "from-hom", "--genus", g, "--degree", n, "--images", ";".join(images)]
        return _request(kind, argv, mode, g=g, n=n, images=images)
    if kind == "perm-commutator":
        n = rng.randint(2, 9)
        a, b = cycle_text(_random_perm(rng, n)), cycle_text(_random_perm(rng, n))
        return _request(kind, ["perm", "commutator", "--a", a, "--b", b, "--degree", n],
                        mode, a=a, b=b, degree=n)
    if kind == "perm-examples":
        kind_type = rng.choice(("odd", "even"))
        m = rng.randint(1 if kind_type == "odd" else 2, 20)
        return _request(kind, ["perm", "examples", "--type", kind_type, "--m", m], mode,
                        type=kind_type, m=m)
    if kind == "perm-ore":
        req = ore_request(_random_even_perm(rng, rng.randint(2, 5)))
        req["mode"] = mode
        return req
    raise ValueError(f"unknown toolkit request kind {kind!r}")


def toolkit_mix(rng: random.Random) -> list[dict]:
    """Short requests over every subcommand but the oracle, in a fixed
    proportion per kind, with the output modes spread evenly over each kind."""
    reqs = []
    for kind, count in TOOLKIT_MIX.items():
        offset = rng.randrange(len(MODES))
        for i in range(count):
            reqs.append(_toolkit_request(kind, rng, MODES[(i + offset) % len(MODES)]))
    rng.shuffle(reqs)
    return reqs


def generate(workload: str, seed: int) -> list[dict]:
    """The request list of ``workload`` for ``seed``; same seed, same list."""
    builders = {"s6-cold": s6_cold, "deep-genus": deep_genus, "toolkit-mix": toolkit_mix}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return builders[workload](random.Random(f"{workload}:{seed}"))


def digest(requests: list[dict]) -> str:
    """SHA-256 of the request list, to tell runs with equal inputs apart."""
    blob = json.dumps([[r["argv"], r["mode"]] for r in requests], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
