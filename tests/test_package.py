"""The package's lazy exports: every name resolves to its submodule's object."""

import importlib
import subprocess
import sys

import pytest

import satgenus

# every name the package exports, with the submodule attribute it stands for
EXPORTS = {
    **{name: ("braids", name) for name in [
        "BandFactorization", "BraidWord", "braid_text", "cable_generator",
        "closure_component_count", "concat", "expand_bands", "exponent_sum",
        "half_twist", "inverse", "orevkov_k1", "orevkov_k2", "parse_braid",
        "permutation_of",
    ]},
    **{name: ("bounds", name) for name in [
        "BoundReport", "OrevkovGapReport", "bound_reports_to_csv",
        "chi4_satellite_bound", "lemma1_satellite_genus", "orevkov_gap_report",
        "qp_closure_euler", "qp_closure_genus", "schubert_bound",
        "suggested_twist_count", "thm1_knot_bound", "thm1_link_bound",
    ]},
    **{name: ("covering", name) for name in [
        "CoverData", "HomomorphismCover", "SurfaceShape", "add_branch_point",
        "boundary_permutation", "cover_data_to_json", "cover_from_homomorphism",
        "cyclic_cover", "euler_characteristic", "rh_euler",
    ]},
    **{name: ("oracle", name) for name in [
        "BudgetExceededError", "EnumerationReport", "SharpnessReport",
        "default_budget", "enumerate_covers", "realizability_table",
        "verify_sharpness",
    ]},
    **{name: ("perms", name) for name in [
        "CycleType", "Permutation", "commutator", "compose", "cycle_count",
        "cycle_type", "cycles", "cycles_str", "example1_pair", "example2_pair",
        "from_cycles", "identity", "is_even", "is_transitive", "orbits",
        "ore_commutator_search", "parse_cycles",
    ]},
    "perm_inverse": ("perms", "inverse"),
}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_is_the_submodule_object(name):
    module, attr = EXPORTS[name]
    expected = getattr(importlib.import_module(f"satgenus.{module}"), attr)
    assert getattr(satgenus, name) is expected
    assert name in dir(satgenus)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from satgenus import *", namespace)
    for name, (module, attr) in EXPORTS.items():
        assert namespace[name] is getattr(importlib.import_module(f"satgenus.{module}"), attr)
    assert sorted(satgenus.__all__) == sorted(EXPORTS)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        satgenus.no_such_name
    assert not hasattr(satgenus, "no_such_name")


def test_version_is_a_plain_attribute():
    assert satgenus.__version__ == "0.1.0"
    assert "__version__" in vars(satgenus)


def test_import_loads_no_layer_until_a_name_is_used():
    code = (
        "import sys, satgenus\n"
        "before = sorted(m for m in sys.modules if m.startswith('satgenus'))\n"
        "satgenus.commutator\n"
        "after = sorted(m for m in sys.modules if m.startswith('satgenus'))\n"
        "print(before, after, satgenus.oracle.__name__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    # a submodule is still an attribute of the package, loaded on first use
    assert proc.stdout == "['satgenus'] ['satgenus', 'satgenus.perms'] satgenus.oracle\n"
