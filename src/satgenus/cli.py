"""Command-line front end.

Every subcommand assembles an output envelope

    {"command": ..., "inputs": ..., "results": ..., "format_version": ...}

printed as human-readable lines by default, as canonical JSON (two-space
indent, sorted keys) under ``--json``, and written atomically to a file with
``--out``.  Exit codes: 0 success, 2 bad usage or validation error (a closed
stdout included), 3 budget or degree ceiling exceeded, 4 internal invariant
violation found by the enumeration oracle.

Each handler imports the library layers it calls when it runs, so a process
loads only what its subcommand needs: building the parser loads no layer,
only ``cover enumerate`` loads the oracle, and only ``--json`` and ``--out``
load ``json``.

``main`` returns the exit code and is what in-process callers use.  The
process entry point ``run`` calls it, flushes stdout and stderr and ends the
process with ``os._exit``: once the last byte is written nothing is left to
do, and tearing the interpreter down (module teardown, the final collection,
freeing every object) would add 7-15 ms to each request on a 2-CPU machine.
``--out`` closes its file before the rename, so nothing is lost.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys

FORMAT_VERSION = "0.1.0"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file and one rename.

    A symlink is followed, so the file it points to is replaced and the link
    kept.  An existing target that is not a regular file (a directory, a
    FIFO, a device) is refused before anything is written.  A replaced file
    keeps its mode; a new one gets the umask default.
    """
    import tempfile  # only --out needs it, and it imports shutil and random

    if not path:
        raise FileNotFoundError(errno.ENOENT, "empty path")
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(mode):
            raise OSError(errno.EEXIST, "exists and is not a regular file")
        mode = stat.S_IMODE(mode)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".satgenus-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), mode)
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, command: str, inputs: dict, results: dict, human: list[str]) -> None:
    if args.json or args.out is not None:
        import json  # human output without --out needs no serializing

        envelope = {
            "command": command,
            "format_version": FORMAT_VERSION,
            "inputs": inputs,
            "results": results,
        }
        text = json.dumps(envelope, indent=2, sort_keys=True)
    if args.out is not None:
        try:
            _write_atomic(args.out, text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    if args.json:
        print(text)
    else:
        for line in human:
            print(line)


def _word_results(w) -> dict:
    from .braids import braid_text, closure_component_count, exponent_sum, permutation_of
    from .perms import cycles_str

    perm = permutation_of(w)
    return {
        "word": braid_text(w),
        "strands": w.strands,
        "length": len(w),
        "exponent_sum": exponent_sum(w),
        "permutation": cycles_str(perm),
        "closure_components": closure_component_count(w),
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


def _cmd_braid_analyze(args) -> int:
    from .braids import parse_braid

    w = parse_braid(args.word, args.strands)
    results = _word_results(w)
    _emit(args, "braid analyze", {"word": args.word, "strands": args.strands},
          results, _word_human(results))
    return EXIT_OK


def _cmd_braid_halftwist(args) -> int:
    from .braids import half_twist

    w = half_twist(args.strands)
    results = _word_results(w)
    _emit(args, "braid halftwist", {"strands": args.strands}, results, _word_human(results))
    return EXIT_OK


def _cmd_braid_orevkov(args) -> int:
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
    _emit(args, "braid orevkov", inputs, results, _word_human(results))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from .bounds import bound_reports_to_csv, schubert_bound, thm1_knot_bound, thm1_link_bound

    reports = [
        schubert_bound(args.g4k, args.winding),
        thm1_knot_bound(args.g4k, args.winding),
        thm1_link_bound(args.g4k, args.winding),
    ]
    if args.pattern_genus is not None:
        reports.insert(1, schubert_bound(args.g4k, args.winding, args.pattern_genus))
    inputs = {"g4k": args.g4k, "winding": args.winding}
    if args.pattern_genus is not None:
        inputs["pattern_genus"] = args.pattern_genus
    results = {"bounds": [r.to_json() for r in reports]}
    if args.csv:
        human = bound_reports_to_csv(reports).splitlines()
    else:
        width = max(len(r.formula_id) for r in reports)
        human = [
            f"{r.formula_id:<{width}}  {r.quantity:<13} value {r.value:>4}  clamped {r.clamped:>4}"
            for r in reports
        ]
    _emit(args, "bounds", inputs, results, human)
    return EXIT_OK


def _cmd_examples_orevkov(args) -> int:
    from .bounds import orevkov_gap_report

    report = orevkov_gap_report(args.n, args.twists)
    results = report.to_json()
    human = [
        f"n:                          {report.n}",
        f"negative kinks:             {report.twists}",
        f"companion bands (strands {report.n}):  {report.bands_k1}",
        f"companion g4:               {report.g4_k1}",
        f"cable bands (strands {2 * report.n}):     {report.bands_k2}",
        f"cable g4:                   {report.g4_k2}",
        f"analytic satellite bound:   {report.satellite_bound}",
        f"gap (cable beats bound):    {'yes' if report.gap else 'no'}",
    ]
    _emit(args, "examples orevkov", {"n": args.n, "twists": report.twists}, results, human)
    return EXIT_OK


def _cover_human(data: dict) -> list[str]:
    return [
        f"degree:           {data['degree']}",
        f"base:             genus {data['base']['genus']}, boundary {data['base']['boundary']}",
        f"branch points:    {data['branch']}",
        f"cover components: {data['cover']['components']}",
        f"cover genus:      {data['cover']['genus']}",
        f"cover boundary:   {data['cover']['boundary']}",
    ]


def _cmd_cover_cyclic(args) -> int:
    from .covering import cover_data_to_json, cyclic_cover

    data = cover_data_to_json(cyclic_cover(args.genus, args.degree))
    _emit(args, "cover cyclic", {"genus": args.genus, "degree": args.degree},
          data, _cover_human(data))
    return EXIT_OK


def _cmd_cover_from_hom(args) -> int:
    from .covering import (
        HomomorphismCover,
        boundary_permutation,
        cover_data_to_json,
        cover_from_homomorphism,
    )
    from .perms import cycles_str, orbits, parse_cycles

    texts = [part.strip() for part in args.images.split(";")]
    images = tuple(parse_cycles(text, args.degree) for text in texts)
    hom = HomomorphismCover(args.genus, args.degree, images)
    data = cover_data_to_json(cover_from_homomorphism(hom))
    results = {
        "cover": data,
        "boundary_permutation": cycles_str(boundary_permutation(hom)),
        "orbits": [list(o) for o in orbits(list(images), degree=args.degree)],
    }
    human = _cover_human(data) + [
        f"boundary circle:  {results['boundary_permutation']}",
        f"orbits:           {results['orbits']}",
    ]
    _emit(args, "cover from-hom",
          {"genus": args.genus, "degree": args.degree, "images": args.images},
          results, human)
    return EXIT_OK


def _cmd_cover_enumerate(args) -> int:
    from . import oracle

    try:
        report = oracle.enumerate_covers(args.genus, args.degree, budget=args.budget)
        results = report.to_json()
        failed = bool(report.violations)
        if args.sharpness:
            sharp = oracle.verify_sharpness(args.genus, args.degree, budget=args.budget)
            results["sharpness"] = sharp.to_json()
            failed = failed or not sharp.ok
    except oracle.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    human = [
        f"base genus:        {report.base_genus}",
        f"degree:            {report.degree}",
        f"tuples scanned:    {report.total_tuples}",
        f"violations:        {len(report.violations)}",
        f"min genus overall: {report.min_genus_overall}",
        f"min genus (one boundary circle): {report.min_genus_connected_boundary}",
        f"boundary histogram: {results['boundary_k_histogram']}",
    ]
    if args.sharpness:
        human.append(f"sharpness ok:      {results['sharpness']['ok']}")
    inputs = {"genus": args.genus, "degree": args.degree, "budget": report.budget}
    _emit(args, "cover enumerate", inputs, results, human)
    return EXIT_INVARIANT if failed else EXIT_OK


def _cmd_perm_commutator(args) -> int:
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
    _emit(args, "perm commutator", {"a": args.a, "b": args.b, "degree": args.degree},
          results, human)
    return EXIT_OK


def _cmd_perm_examples(args) -> int:
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
    _emit(args, "perm examples", {"type": args.type, "m": args.m}, results, human)
    return EXIT_OK


def _cmd_perm_ore(args) -> int:
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
    _emit(args, "perm ore", {"target": args.target, "degree": args.degree}, results, human)
    return EXIT_OK


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="print the JSON envelope")
    parser.add_argument("--out", metavar="FILE", help="also write the JSON envelope to FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satgenus",
        description="Genus bounds for braided satellite links and their covering-surface arithmetic.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    braid = top.add_parser("braid", help="braid word constructions and invariants")
    braid_sub = braid.add_subparsers(dest="subcommand", required=True)

    p = braid_sub.add_parser("analyze", help="invariants of a given word")
    p.add_argument("--word", required=True, help="letters like '1 -2 1' or '1^3 2^-2'")
    p.add_argument("--strands", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_braid_analyze)

    p = braid_sub.add_parser("halftwist", help="the positive half twist")
    p.add_argument("--strands", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_braid_halftwist)

    p = braid_sub.add_parser("orevkov", help="the quasipositive gap families")
    p.add_argument("--family", choices=["k1", "k2"], required=True)
    p.add_argument("--n", type=int, required=True, help="family parameter (k1 has n strands, k2 has 2n)")
    p.add_argument("--twists", type=int, help="negative kink count for k2 (default: suggested odd value)")
    _add_output_flags(p)
    p.set_defaults(run=_cmd_braid_orevkov)

    p = top.add_parser("bounds", help="evaluate the satellite genus bounds")
    p.add_argument("--g4k", type=int, required=True, help="4-genus of the companion")
    p.add_argument("--winding", type=int, required=True)
    p.add_argument("--pattern-genus", type=int, help="pattern genus for the refined Seifert bound")
    p.add_argument("--csv", action="store_true", help="print the table as CSV")
    _add_output_flags(p)
    p.set_defaults(run=_cmd_bounds)

    examples = top.add_parser("examples", help="worked end-to-end examples")
    examples_sub = examples.add_subparsers(dest="subcommand", required=True)
    p = examples_sub.add_parser("orevkov", help="the cabled family versus the satellite bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--twists", type=int, help="odd kink count (default: suggested value near 8n^2/3)")
    _add_output_flags(p)
    p.set_defaults(run=_cmd_examples_orevkov)

    cover = top.add_parser("cover", help="covering-surface bookkeeping")
    cover_sub = cover.add_subparsers(dest="subcommand", required=True)

    p = cover_sub.add_parser("cyclic", help="the connected cyclic unramified cover")
    p.add_argument("--genus", type=int, required=True, help="genus of the one-holed base")
    p.add_argument("--degree", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_cover_cyclic)

    p = cover_sub.add_parser("from-hom", help="cover shape from monodromy images")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument(
        "--images", required=True,
        help="semicolon-separated cycle notations, 2*genus of them, e.g. '(1 2 3);()'",
    )
    _add_output_flags(p)
    p.set_defaults(run=_cmd_cover_from_hom)

    p = cover_sub.add_parser("enumerate", help="exhaustive scan of all monodromy tuples")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--budget", type=int,
                   help="work budget: the pair pass, charged at (n!)^2, plus states x pair "
                        "classes per genus level (default 10^9)")
    p.add_argument("--sharpness", action="store_true", help="also run the equality analysis")
    _add_output_flags(p)
    p.set_defaults(run=_cmd_cover_enumerate)

    perm = top.add_parser("perm", help="permutation commutator tools")
    perm_sub = perm.add_subparsers(dest="subcommand", required=True)

    p = perm_sub.add_parser("commutator", help="commutator of two permutations")
    p.add_argument("--a", required=True, help="cycle notation, e.g. '(2 3)(4 5)'")
    p.add_argument("--b", required=True)
    p.add_argument("--degree", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_perm_commutator)

    p = perm_sub.add_parser("examples", help="the transitive involution pairs")
    p.add_argument("--type", choices=["odd", "even"], required=True,
                   help="odd: full cycle on 2m+1 points; even: two m-cycles on 2m points")
    p.add_argument("--m", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_perm_examples)

    p = perm_sub.add_parser("ore", help="write an even permutation as a commutator")
    p.add_argument("--target", required=True, help="cycle notation")
    p.add_argument("--degree", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_perm_ore)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Run ``main`` on the command line and end the process with its exit
    code, skipping interpreter finalization; it does not return.

    A stdout whose reader has gone (a closed pipe) is reported as one
    ``error: cannot write stdout`` line on stderr and exit 2.  argparse's
    ``SystemExit`` and uncaught exceptions leave as they would from ``main``.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the unwritten bytes stay buffered: point fd 1 at devnull so that
        # no later flush retries them
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        code = EXIT_USAGE
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
