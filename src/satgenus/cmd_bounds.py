"""Handlers of ``satgenus bounds`` and ``satgenus examples orevkov``.

See :mod:`satgenus.cli` for what a handler module may import and what a
handler returns.
"""

from __future__ import annotations

from . import EXIT_OK


def bounds(args):
    from .bounds import bound_reports_to_csv, schubert_bound, thm1_knot_bound, thm1_link_bound

    reports = [
        schubert_bound(args.g4k, args.winding),
        thm1_knot_bound(args.g4k, args.winding),
        thm1_link_bound(args.g4k, args.winding),
    ]
    if args.pattern_genus is not None:
        reports.insert(1, schubert_bound(args.g4k, args.winding, args.pattern_genus))
    results = {"bounds": [r.to_json() for r in reports]}
    if args.csv:
        human = bound_reports_to_csv(reports).splitlines()
    else:
        width = max(len(r.formula_id) for r in reports)
        human = [
            f"{r.formula_id:<{width}}  {r.quantity:<13} value {r.value:>4}  clamped {r.clamped:>4}"
            for r in reports
        ]
    return EXIT_OK, results, human


def examples_orevkov(args):
    from .bounds import orevkov_gap_report

    report = orevkov_gap_report(args.n, args.twists)
    args.twists = report.twists
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
    return EXIT_OK, results, human
