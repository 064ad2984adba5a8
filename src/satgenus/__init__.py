"""Exact 4-ball genus bounds for braided satellite links.

The layers, bottom up: symmetric-group arithmetic (:mod:`satgenus.perms`),
braid words and band presentations (:mod:`satgenus.braids`),
Euler-characteristic bookkeeping for branched covers
(:mod:`satgenus.covering`), the integer bound evaluators
(:mod:`satgenus.bounds`), and an exhaustive enumeration oracle that
certifies the covering-genus floors on small symmetric groups
(:mod:`satgenus.oracle`).  ``satgenus.cli`` exposes all of it as a command
line tool.

The names below are exported lazily (PEP 562): ``import satgenus`` loads no
layer, and the first access to a name imports its submodule.  So a process
pays only for the layers it uses; ``satgenus.cli`` imports the package first.
"""

__version__ = "0.1.0"

# exported name: (submodule, attribute)
_EXPORTS = {
    **{name: ("braids", name) for name in (
        "BandFactorization", "BraidWord", "braid_text", "cable_generator",
        "closure_component_count", "concat", "expand_bands", "exponent_sum",
        "half_twist", "inverse", "orevkov_k1", "orevkov_k2", "parse_braid",
        "permutation_of",
    )},
    **{name: ("bounds", name) for name in (
        "BoundReport", "OrevkovGapReport", "bound_reports_to_csv",
        "chi4_satellite_bound", "lemma1_satellite_genus", "orevkov_gap_report",
        "qp_closure_euler", "qp_closure_genus", "schubert_bound",
        "suggested_twist_count", "thm1_knot_bound", "thm1_link_bound",
    )},
    **{name: ("covering", name) for name in (
        "CoverData", "HomomorphismCover", "SurfaceShape", "add_branch_point",
        "boundary_permutation", "cover_data_to_json", "cover_from_homomorphism",
        "cyclic_cover", "euler_characteristic", "rh_euler",
    )},
    **{name: ("oracle", name) for name in (
        "BudgetExceededError", "EnumerationReport", "SharpnessReport",
        "enumerate_covers", "realizability_table", "verify_sharpness",
    )},
    **{name: ("perms", name) for name in (
        "CycleType", "Permutation", "commutator", "compose", "cycle_count",
        "cycle_type", "cycles", "cycles_str", "example1_pair", "example2_pair",
        "from_cycles", "identity", "is_even", "is_transitive", "orbits",
        "ore_commutator_search", "parse_cycles",
    )},
    "perm_inverse": ("perms", "inverse"),
}
_SUBMODULES = ("bounds", "braids", "cli", "covering", "oracle", "perms")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        module, attr = _EXPORTS[name]
    elif name in _SUBMODULES:
        module, attr = name, None
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f".{module}", __name__)
    if attr is not None:
        value = getattr(value, attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
