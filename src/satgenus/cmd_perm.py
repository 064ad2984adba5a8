"""Handlers of ``satgenus perm commutator|examples|ore``.

See :mod:`satgenus.cli` for what a handler module may import and what a
handler returns.
"""

from __future__ import annotations

from . import EXIT_OK


def perm_commutator(args):
    from .perms import commutator, cycle_type, cycles_str, is_even, parse_cycles

    a = parse_cycles(args.a, args.degree)
    b = parse_cycles(args.b, args.degree)
    c = commutator(a, b)
    results = {
        "a": cycles_str(a),
        "b": cycles_str(b),
        "commutator": cycles_str(c),
        "cycle_type": list(cycle_type(c)),
        "even": is_even(c),
    }
    human = [
        f"a:          {results['a']}",
        f"b:          {results['b']}",
        f"[a, b]:     {results['commutator']}",
        f"cycle type: {results['cycle_type']}",
        f"even:       {results['even']}",
    ]
    return EXIT_OK, results, human


def perm_examples(args):
    from .perms import (
        commutator,
        cycle_type,
        cycles_str,
        example1_pair,
        example2_pair,
        is_transitive,
    )

    if args.type == "odd":
        s1, s2 = example1_pair(args.m)
    else:
        s1, s2 = example2_pair(args.m)
    c = commutator(s1, s2)
    results = {
        "degree": s1.degree,
        "s1": cycles_str(s1),
        "s2": cycles_str(s2),
        "commutator": cycles_str(c),
        "cycle_type": list(cycle_type(c)),
        "transitive": is_transitive([s1, s2]),
    }
    human = [
        f"degree:     {results['degree']}",
        f"s1:         {results['s1']}",
        f"s2:         {results['s2']}",
        f"[s1, s2]:   {results['commutator']}",
        f"cycle type: {results['cycle_type']}",
        f"transitive: {results['transitive']}",
    ]
    return EXIT_OK, results, human


def perm_ore(args):
    from .perms import (
        check_search_degree,
        commutator,
        cycles_str,
        ore_commutator_search,
        parse_cycles,
    )

    # refuse before parse_cycles builds a list of args.degree images
    check_search_degree(args.degree)
    target = parse_cycles(args.target, args.degree)
    witness = ore_commutator_search(target)
    results = {
        "target": cycles_str(target),
        "degree": args.degree,
        "found": witness is not None,
        "witness": None,
    }
    if witness is None:
        human = [f"target: {results['target']}", "witness: none (target is not a commutator)"]
    else:
        a, b = witness
        results["witness"] = {"a": cycles_str(a), "b": cycles_str(b)}
        human = [
            f"target:  {results['target']}",
            f"a:       {results['witness']['a']}",
            f"b:       {results['witness']['b']}",
            f"[a, b]:  {cycles_str(commutator(a, b))}",
        ]
    return EXIT_OK, results, human
