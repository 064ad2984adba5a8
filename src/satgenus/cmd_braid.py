"""Handlers of ``satgenus braid analyze|halftwist|orevkov``.

See :mod:`satgenus.cli` for what a handler module may import and what a
handler returns.
"""

from __future__ import annotations

from . import EXIT_OK


def _word_report(w):
    """A braid word's exit code, results and human lines."""
    from .braids import braid_text, exponent_sum, permutation_of
    from .perms import cycle_count, cycles_str

    perm = permutation_of(w)
    results = {
        "word": braid_text(w),
        "strands": w.strands,
        "length": len(w),
        "exponent_sum": exponent_sum(w),
        "permutation": cycles_str(perm),
        "closure_components": cycle_count(perm),
    }
    return EXIT_OK, results, [
        f"strands:            {results['strands']}",
        f"word:               {results['word'] or '(empty)'}",
        f"length:             {results['length']}",
        f"exponent sum:       {results['exponent_sum']}",
        f"strand permutation: {results['permutation']}",
        f"closure components: {results['closure_components']}",
    ]


def braid_analyze(args):
    from .braids import parse_braid

    return _word_report(parse_braid(args.word, args.strands))


def braid_halftwist(args):
    from .braids import half_twist

    return _word_report(half_twist(args.strands))


def braid_orevkov(args):
    from .braids import orevkov_k1, orevkov_k2, suggested_twist_count

    if args.family == "k1":
        if args.twists is not None:
            raise ValueError("--twists only applies to family k2")
        return _word_report(orevkov_k1(args.n))
    if args.twists is None:
        args.twists = suggested_twist_count(args.n)
    return _word_report(orevkov_k2(args.n, args.twists))
