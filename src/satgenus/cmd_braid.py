"""Handlers of ``satgenus braid analyze|halftwist|orevkov``.

Like every handler module of :mod:`satgenus.cli`, this one is imported only
when its command runs, imports the layers a handler calls inside it, and
never imports ``satgenus.cli``.  A handler takes the parsed arguments and
returns its exit code with the envelope parts ``(command, inputs, results,
human lines)``, which ``cli.main`` prints.  It raises ValueError for a usage
or validation error and ``BudgetExceededError`` for a refused request, each
printed as one ``error:`` line.
"""

from __future__ import annotations

from . import EXIT_OK


def _word_results(w) -> dict:
    from .braids import braid_text, exponent_sum, permutation_of
    from .perms import cycle_count, cycles_str

    perm = permutation_of(w)
    return {
        "word": braid_text(w),
        "strands": w.strands,
        "length": len(w),
        "exponent_sum": exponent_sum(w),
        "permutation": cycles_str(perm),
        "closure_components": cycle_count(perm),
    }


def _word_human(results: dict) -> list[str]:
    return [
        f"strands:            {results['strands']}",
        f"word:               {results['word'] or '(empty)'}",
        f"length:             {results['length']}",
        f"exponent sum:       {results['exponent_sum']}",
        f"strand permutation: {results['permutation']}",
        f"closure components: {results['closure_components']}",
    ]


def braid_analyze(args):
    from .braids import parse_braid

    w = parse_braid(args.word, args.strands)
    results = _word_results(w)
    return EXIT_OK, ("braid analyze", {"word": args.word, "strands": args.strands},
                     results, _word_human(results))


def braid_halftwist(args):
    from .braids import half_twist

    w = half_twist(args.strands)
    results = _word_results(w)
    return EXIT_OK, ("braid halftwist", {"strands": args.strands}, results, _word_human(results))


def braid_orevkov(args):
    from .braids import orevkov_k1, orevkov_k2

    inputs = {"family": args.family, "n": args.n}
    if args.family == "k1":
        if args.twists is not None:
            raise ValueError("--twists only applies to family k2")
        w = orevkov_k1(args.n)
    else:
        twists = args.twists
        if twists is None:
            from .bounds import suggested_twist_count

            twists = suggested_twist_count(args.n)
        inputs["twists"] = twists
        w = orevkov_k2(args.n, twists)
    results = _word_results(w)
    return EXIT_OK, ("braid orevkov", inputs, results, _word_human(results))
