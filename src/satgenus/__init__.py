"""Exact 4-ball genus bounds for braided satellite links.

The layers, bottom up: symmetric-group arithmetic (:mod:`satgenus.perms`),
braid words and band presentations (:mod:`satgenus.braids`),
Euler-characteristic bookkeeping for branched covers
(:mod:`satgenus.covering`), the integer bound evaluators
(:mod:`satgenus.bounds`), and an exhaustive enumeration oracle that
certifies the covering-genus floors on small symmetric groups
(:mod:`satgenus.oracle`).  ``satgenus.cli`` exposes all of it as a command
line tool.
"""

from .braids import (
    BandFactorization,
    BraidWord,
    braid_text,
    cable_generator,
    closure_component_count,
    concat,
    expand_bands,
    exponent_sum,
    half_twist,
    inverse,
    orevkov_k1,
    orevkov_k2,
    parse_braid,
    permutation_of,
)
from .bounds import (
    BoundReport,
    OrevkovGapReport,
    bound_reports_to_csv,
    chi4_satellite_bound,
    lemma1_satellite_genus,
    orevkov_gap_report,
    qp_closure_euler,
    qp_closure_genus,
    schubert_bound,
    suggested_twist_count,
    thm1_knot_bound,
    thm1_link_bound,
)
from .covering import (
    CoverData,
    HomomorphismCover,
    SurfaceShape,
    add_branch_point,
    boundary_permutation,
    cover_data_to_json,
    cover_from_homomorphism,
    cyclic_cover,
    euler_characteristic,
    rh_euler,
)
from .oracle import (
    BudgetExceededError,
    EnumerationReport,
    SharpnessReport,
    default_budget,
    enumerate_covers,
    realizability_table,
    verify_sharpness,
)
from .perms import (
    CycleType,
    Permutation,
    commutator,
    compose,
    cycle_count,
    cycle_type,
    cycles,
    cycles_str,
    example1_pair,
    example2_pair,
    from_cycles,
    identity,
    inverse as perm_inverse,
    is_even,
    is_transitive,
    orbits,
    ore_commutator_search,
    parse_cycles,
)

__version__ = "0.1.0"
