"""Handlers of ``satgenus cover cyclic|from-hom|enumerate``.

See :mod:`satgenus.cli` for what a handler module may import and what a
handler returns.
"""

from __future__ import annotations

from . import EXIT_INVARIANT, EXIT_OK


def _cover_human(data: dict) -> list[str]:
    return [
        f"degree:           {data['degree']}",
        f"base:             genus {data['base']['genus']}, boundary {data['base']['boundary']}",
        f"branch points:    {data['branch']}",
        f"cover components: {data['cover']['components']}",
        f"cover genus:      {data['cover']['genus']}",
        f"cover boundary:   {data['cover']['boundary']}",
    ]


def cover_cyclic(args):
    from .covering import cover_data_to_json, cyclic_cover

    data = cover_data_to_json(cyclic_cover(args.genus, args.degree))
    return EXIT_OK, data, _cover_human(data)


def cover_from_hom(args):
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
    return EXIT_OK, results, human


def cover_enumerate(args):
    from .oracle import enumerate_covers

    report = enumerate_covers(args.genus, args.degree, budget=args.budget)
    results = report.to_json()
    failed = bool(report.violations)
    if args.sharpness:
        sharp = report.sharpness()
        results["sharpness"] = sharp.to_json()
        failed = failed or not sharp.ok
    # --json prints no human line, so its counts skip the quadratic
    # conversion to decimal text that those lines would cost
    human = []
    if not args.json:
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
    args.budget = report.budget
    return (EXIT_INVARIANT if failed else EXIT_OK), results, human
