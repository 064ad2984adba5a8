"""The package's lazy exports, the value semantics of its record classes, the
oldest Python its source promises to run on, and the names its docs cite."""

import ast
import functools
import importlib
import itertools
import re
import subprocess
import sys
from pathlib import Path

import pytest

import satgenus
from satgenus import braids, perms
from satgenus.bounds import BoundReport, OrevkovGapReport
from satgenus.braids import BraidWord
from satgenus.covering import CoverData, HomomorphismCover, SurfaceShape
from satgenus.oracle import EnumerationReport, SharpnessReport
from satgenus.perms import Permutation, identity

# every name the package exports, with the submodule attribute it stands for
EXPORTS = {
    **{name: ("braids", name) for name in [
        "BraidWord", "braid_text", "closure_component_count", "concat",
        "exponent_sum", "half_twist", "orevkov_k1", "orevkov_k2", "parse_braid",
        "permutation_of", "suggested_twist_count",
    ]},
    **{name: ("bounds", name) for name in [
        "BoundReport", "OrevkovGapReport", "bound_reports_to_csv",
        "orevkov_gap_report", "qp_closure_genus", "schubert_bound",
        "thm1_knot_bound", "thm1_link_bound",
    ]},
    **{name: ("covering", name) for name in [
        "CoverData", "HomomorphismCover", "SurfaceShape", "add_branch_point",
        "boundary_permutation", "cover_data_to_json", "cover_from_homomorphism",
        "cyclic_cover", "euler_characteristic", "rh_euler",
    ]},
    **{name: ("oracle", name) for name in [
        "BudgetExceededError", "EnumerationReport", "SharpnessReport",
        "enumerate_covers",
    ]},
    **{name: ("perms", name) for name in [
        "CycleType", "Permutation", "commutator", "compose", "cycle_count",
        "cycle_type", "cycles_str", "example1_pair", "example2_pair",
        "identity", "is_even", "is_transitive", "orbits",
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


def _referenced_names(path):
    """Every name, attribute and imported name that a source file uses."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_export_is_reached_outside_the_tests():
    # an export that no layer, command or demo uses is only reached by its
    # own tests: delete it rather than keep it
    package = Path(satgenus.__file__).parent
    demos = Path(__file__).resolve().parent.parent / "demos"
    sources = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted(demos.glob("*.py"))
    assert len(sources) > 10
    reached = {name for path in sources for name in _referenced_names(path)}
    assert sorted(name for name, (_, attr) in satgenus._EXPORTS.items() if attr not in reached) == []


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


def test_lazy_exports_show_in_importtime():
    # a layer loaded through the lazy exports is timed like any other import;
    # the oracle imports no other layer, so perms is loaded by name
    code = "import satgenus; satgenus.enumerate_covers; satgenus.Permutation"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    timed = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "satgenus.oracle" in timed
    assert "satgenus.perms" in timed


# one instance of every record class, by its fields in declaration order
RECORD_FIELDS = {
    Permutation: {"images": (1, 0, 2)},
    BraidWord: {"strands": 3, "letters": (1, -2)},
    BoundReport: {"quantity": "genus4_lower", "formula_id": "thm1_knot", "value": 2,
                  "clamped": 2, "inputs": {"g4_companion": 1, "winding": 2}},
    OrevkovGapReport: {"n": 2, "twists": 1, "bands_k1": 3, "g4_k1": 1, "bands_k2": 15,
                       "g4_k2": 6, "satellite_bound": 2, "gap": False},
    SurfaceShape: {"components": 1, "genus_total": 1, "boundary_components": 1},
    CoverData: {"degree": 1, "base": SurfaceShape(1, 1, 1), "branch_total": 0,
                "cover": SurfaceShape(1, 1, 1)},
    HomomorphismCover: {"base_genus": 1, "degree": 2,
                        "generator_images": (Permutation((1, 0)), identity(2))},
    EnumerationReport: {"base_genus": 1, "degree": 2, "total_tuples": 4, "budget": 100,
                        "violations": (), "min_genus_overall": 1,
                        "min_overall_witness": ((0, 1), (0, 1)),
                        "min_genus_connected_boundary": None,
                        "connected_boundary_witness": None,
                        "boundary_k_histogram": {1: 2, 2: 2},
                        "shapes": {(2, 2, 2): ((0, 1), (0, 1))}},
    SharpnessReport: {"base_genus": 1, "degree": 2, "ok": True,
                      "checks": {"unbranched_floor_holds": True}, "counterexamples": (),
                      "notes": {"unbranched_floor": 1}},
}
RECORDS = sorted(RECORD_FIELDS, key=lambda cls: cls.__name__)
# records holding a dict hash like a tuple holding one: not at all
UNHASHABLE = {BoundReport, EnumerationReport, SharpnessReport}


def _record(cls):
    return cls(**RECORD_FIELDS[cls])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_records(cls):
    a, b = _record(cls), cls(*RECORD_FIELDS[cls].values())
    assert a == b and not a != b and a is not b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(RECORD_FIELDS[cls].values()))
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_equals_no_other_class(cls):
    record = _record(cls)
    subclass = type("Sub" + cls.__name__, (cls,), {})
    assert subclass(**RECORD_FIELDS[cls]) != record
    assert record != tuple(RECORD_FIELDS[cls].values())
    for other in RECORDS:
        if other is not cls:
            assert record != _record(other)


def test_records_with_different_fields_differ():
    assert BraidWord(3, (1, -2)) != BraidWord(3, (1, 2))
    assert BraidWord(3, (1,)) != BraidWord(4, (1,))
    assert SurfaceShape(1, 0, 1) != SurfaceShape(1, 1, 1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_frozen(cls):
    record = _record(cls)
    for name, value in RECORD_FIELDS[cls].items():
        with pytest.raises(AttributeError, match="frozen"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match="frozen"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError, match="frozen"):
        record.not_a_field = 1
    assert record == _record(cls)


def test_keyword_construction_and_defaults():
    assert BraidWord(strands=3, letters=(1, -2)) == BraidWord(3, (1, -2))
    assert BraidWord(3, letters=(1, -2)) == BraidWord(3, (1, -2))
    assert BraidWord(3).letters == () and BraidWord(strands=3) == BraidWord(3, ())
    assert SurfaceShape(genus_total=2, boundary_components=1, components=1) == SurfaceShape(1, 2, 1)
    # a default is shared, as the immutable class value it is
    assert BraidWord(2).letters is BraidWord(5).letters


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_missing_or_unknown_fields_are_type_errors(cls):
    fields = RECORD_FIELDS[cls]
    for name in [name for name in fields if name != "letters"]:
        with pytest.raises(TypeError, match=f"missing field '{name}'"):
            cls(**{k: v for k, v in fields.items() if k != name})
    with pytest.raises(TypeError, match="no field 'bogus'"):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError, match="twice"):
        cls(*fields.values(), **dict(itertools.islice(fields.items(), 1)))
    with pytest.raises(TypeError, match=f"takes {len(fields)} fields"):
        cls(*fields.values(), None)


def test_repr_names_every_field():
    assert repr(BraidWord(strands=3, letters=(1, -2))) == "BraidWord(strands=3, letters=(1, -2))"
    assert repr(SurfaceShape(1, 2, 3)) == (
        "SurfaceShape(components=1, genus_total=2, boundary_components=3)"
    )
    for cls in RECORDS:
        if cls is not Permutation:
            body = ", ".join(f"{k}={v!r}" for k, v in RECORD_FIELDS[cls].items())
            assert repr(_record(cls)) == f"{cls.__name__}({body})"
    # Permutation keeps its own cycle-notation repr
    assert repr(Permutation((1, 0, 2))) == "Permutation('(1 2)', degree=3)"


# the fields a report's JSON leaves out
JSON_OMITS = {EnumerationReport: {"shapes"}}


@pytest.mark.parametrize("cls", [BoundReport, EnumerationReport, OrevkovGapReport, SharpnessReport],
                         ids=lambda cls: cls.__name__)
def test_report_json_names_every_field(cls):
    # a field added to a report cannot silently miss its JSON
    record = _record(cls)
    data = record.to_json()
    omitted = JSON_OMITS.get(cls, set())
    assert sorted(data) == sorted(set(cls._fields) - omitted)
    for name in data:
        value = getattr(record, name)
        if isinstance(value, (int, str)):  # bool is an int
            assert data[name] is value


S = SurfaceShape


@pytest.mark.parametrize("build, message", [
    (lambda: Permutation((0, 0)), "bijection"),
    (lambda: BraidWord(0), "at least one strand"),
    (lambda: BraidWord(10**6 + 1), "over the limit"),
    (lambda: BraidWord(3, (1, 0)), "letter 0 at position 1"),
    (lambda: BraidWord(3, (3,)), "not a generator index"),
    (lambda: BoundReport("genus5_lower", "thm1_knot", 0, 0, {}), "unknown quantity"),
    (lambda: BoundReport("genus4_lower", "thm9", 0, 0, {}), "unknown formula id"),
    (lambda: S(0, 0, 0), "at least one component"),
    (lambda: S(1, -1, 0), "genus cannot be negative"),
    (lambda: S(1, 0, -1), "boundary count cannot be negative"),
    (lambda: CoverData(0, S(1, 1, 1), 0, S(1, 1, 1)), "degree must be at least 1"),
    (lambda: CoverData(1, S(1, 1, 1), -1, S(1, 1, 1)), "branch count cannot be negative"),
    (lambda: CoverData(1, S(2, 1, 1), 0, S(1, 1, 1)), "must be connected"),
    (lambda: CoverData(1, S(1, 1, 1), 0, S(1, 0, 1)), "Euler characteristic 1"),
    (lambda: CoverData(1, S(1, 1, 1), 0, S(2, 2, 1)), "component count"),
    (lambda: CoverData(1, S(1, 1, 1), 0, S(1, 0, 3)), "cannot outnumber"),
    (lambda: CoverData(3, S(1, 1, 1), 0, S(1, 1.5, 2)), "parity"),  # chi -3 needs genus 1.5
    (lambda: HomomorphismCover(0, 2, ()), "genus at least 1"),
    (lambda: HomomorphismCover(1, 2, (identity(2),)), "expected 2 generator images"),
    (lambda: HomomorphismCover(1, 2, (identity(2), identity(3))), "degree 3 does not match"),
])
def test_record_validation_still_fires(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("x", [0, 7, -7, 10**15 - 1, -(10**15 - 1)])
def test_rough_prints_a_number_under_15_digits_in_full(x):
    assert satgenus._rough(x) == str(x)


@pytest.mark.parametrize("x, text", [
    (10**15, "about 10^15"),
    (-(10**15), "about -10^15"),
    (3 * 10**20, "about 10^20"),
    (-(10**4300 - 1), "about -10^4300"),
])
def test_rough_names_a_longer_number_by_its_power_of_ten(x, text):
    assert satgenus._rough(x) == text


# every message that names a number under 15 digits reads as it did before
# the numbers went through ``_rough``
@pytest.mark.parametrize("build, message", [
    (lambda: braids.half_twist(1500),
     "the half twist on 1500 strands has 1124250 letters, over the limit of 1000000"),
    (lambda: braids.orevkov_k1(1001), "orevkov_k1(1001) has 1002000 letters, over the limit of 1000000"),
    (lambda: braids.orevkov_k2(400, 500000),
     "orevkov_k2(400, 500000) has 1140796 letters, over the limit of 1000000"),
    (lambda: BraidWord(10**6 + 1), "strand count 1000001 is over the limit of 1000000"),
    (lambda: braids.parse_braid("1 5", 4), "token 2 ('5'): index 5 out of range for 4 strands (valid: 1..3)"),
    (lambda: braids.parse_braid("1^999999 -2^3", 3),
     "token 2 ('-2^3'): the word reaches 1000002 letters, over the limit of 1000000"),
    (lambda: braids.parse_braid("1 x2", 3), "token 2 ('x2'): not an integer letter"),
    (lambda: perms.parse_cycles("(1 9)", 4), "point 9 outside 1..4"),
    (lambda: perms.check_search_degree(9),
     "degree 9 exceeds the search limit 8 of the exhaustive commutator search"),
    (lambda: HomomorphismCover(2, 2, (identity(2),)), "expected 4 generator images, got 1"),
])
def test_a_short_number_is_named_in_full(build, message):
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


def test_a_bad_word_token_is_echoed_to_20_characters():
    token = "x" + "9" * 100
    with pytest.raises(ValueError) as error:
        braids.parse_braid(f"1 {token}", 3)
    assert str(error.value) == f"token 2 ({token[:20]!r}): not an integer letter"


def test_every_module_parses_as_python_3_10():
    # pyproject.toml promises requires-python >= 3.10
    sources = sorted(Path(satgenus.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# a name qualified by the package or one of its layers, such as
# ``oracle._check_budget``; a file name such as ``oracle.py`` is skipped
LAYER_NAME = re.compile(r"(?<![\w./])(?:satgenus|oracle|perms|covering|braids|bounds)(?:\.[A-Za-z_]\w*)+")


def _docstrings(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield ast.get_docstring(node) or ""


def _resolve(name):
    """The object a dotted name stands for, importing submodules on the way."""
    head, *parts = name.split(".")
    value = satgenus if head == "satgenus" else getattr(satgenus, head)
    for part in parts:
        if not hasattr(value, part) and hasattr(value, "__path__"):
            importlib.import_module(f"{value.__name__}.{part}")
        value = getattr(value, part)
    return value


def test_names_cited_in_the_docs_resolve():
    # deleting a symbol that the README or a docstring still names fails here
    package = Path(satgenus.__file__).parent
    texts = [(Path(__file__).resolve().parent.parent / "README.md").read_text()]
    for path in sorted(package.glob("*.py")):
        texts.extend(_docstrings(path))
    cited = {name for text in texts for name in LAYER_NAME.findall(text)}
    cited = sorted(name for name in cited if not name.endswith(".py"))
    assert len(cited) > 10
    missing = []
    for name in cited:
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert missing == []
