import ast
import contextlib
import functools
import io
import itertools
import json
import math
import os
import shutil
import stat
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satgenus.cli as cli
from satgenus import oracle
from satgenus.cli import EXIT_BUDGET, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, main

from _argparse_tree import build_parser as build_argparse_tree


def load_schema():
    path = resources.files("satgenus") / "schemas" / "output_envelope.schema.json"
    return json.loads(path.read_text())


SCHEMA = load_schema()


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    envelope = json.loads(out)
    jsonschema.validate(envelope, SCHEMA)
    return code, envelope


def test_schema_is_itself_valid():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


def test_braid_analyze(capsys):
    code, env = run_json(capsys, ["braid", "analyze", "--word", "1 -2 1^2", "--strands", "3"])
    assert code == EXIT_OK
    assert env["command"] == "braid analyze"
    assert env["format_version"] == "0.1.0"
    assert env["inputs"] == {"word": "1 -2 1^2", "strands": 3}
    assert env["results"]["word"] == "1 -2 1 1"
    assert env["results"]["length"] == 4
    assert env["results"]["exponent_sum"] == 2
    assert env["results"]["closure_components"] == 1


def test_braid_analyze_human(capsys):
    code = main(["braid", "analyze", "--word", "1 2", "--strands", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "exponent sum:       2" in out
    assert "strand permutation: (1 3 2)" in out


def test_braid_halftwist(capsys):
    code, env = run_json(capsys, ["braid", "halftwist", "--strands", "4"])
    assert code == EXIT_OK
    assert env["results"]["word"] == "1 2 3 1 2 1"
    assert env["results"]["exponent_sum"] == 6
    assert env["results"]["permutation"] == "(1 4)(2 3)"


def test_braid_orevkov_k1(capsys):
    code, env = run_json(capsys, ["braid", "orevkov", "--family", "k1", "--n", "3"])
    assert code == EXIT_OK
    assert env["results"]["exponent_sum"] == 8
    assert env["results"]["closure_components"] == 1


def test_braid_orevkov_k2(capsys):
    code, env = run_json(capsys, ["braid", "orevkov", "--family", "k2", "--n", "2", "--twists", "1"])
    assert code == EXIT_OK
    assert env["inputs"]["twists"] == 1
    assert env["results"]["strands"] == 4
    assert env["results"]["exponent_sum"] == 15
    assert env["results"]["closure_components"] == 1


def test_braid_orevkov_k2_default_twists(capsys):
    code, env = run_json(capsys, ["braid", "orevkov", "--family", "k2", "--n", "2"])
    assert code == EXIT_OK
    assert env["inputs"]["twists"] == 11


def test_braid_orevkov_k1_rejects_twists(capsys):
    code = main(["braid", "orevkov", "--family", "k1", "--n", "3", "--twists", "5"])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_braid_parse_error_names_token(capsys):
    code = main(["braid", "analyze", "--word", "1 x 2", "--strands", "3"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "token 2" in err
    assert "'x'" in err


@pytest.mark.parametrize("word", ["--word=", "--word=1", "--word=-3 2^4"])
def test_braid_analyze_checks_the_strands_before_the_word(capsys, word):
    assert main(["braid", "analyze", word, "--strands", "0"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: a braid needs at least one strand\n")


@pytest.mark.parametrize("argv", [
    ["braid", "halftwist", "--strands", "100000"],
    ["braid", "analyze", "--word", "1^1000000000", "--strands", "2"],
    ["braid", "analyze", "--word", "1 2^-1000000", "--strands", "3"],
    ["braid", "orevkov", "--family", "k1", "--n", "1001"],
    ["braid", "orevkov", "--family", "k2", "--n", "2", "--twists", "999999999"],
    ["examples", "orevkov", "--n", "1000"],
])
def test_oversized_braid_words_are_usage_errors(capsys, argv):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "over the limit of 1000000" in captured.err


def test_bounds(capsys):
    code, env = run_json(capsys, ["bounds", "--g4k", "1", "--winding", "3"])
    assert code == EXIT_OK
    formulas = [r["formula_id"] for r in env["results"]["bounds"]]
    assert formulas == ["schubert_1", "thm1_knot", "thm1_link"]
    values = {r["formula_id"]: r["value"] for r in env["results"]["bounds"]}
    assert values == {"schubert_1": 3, "thm1_knot": 2, "thm1_link": 1}


def test_bounds_with_pattern_genus(capsys):
    code, env = run_json(
        capsys, ["bounds", "--g4k", "1", "--winding", "3", "--pattern-genus", "2"]
    )
    assert code == EXIT_OK
    formulas = [r["formula_id"] for r in env["results"]["bounds"]]
    assert formulas == ["schubert_1", "schubert_2", "thm1_knot", "thm1_link"]


def test_bounds_csv(capsys):
    code = main(["bounds", "--g4k", "1", "--winding", "3", "--csv"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[0] == "formula,companion_g4,companion_genus,winding,value"
    assert "thm1_knot,1,,3,2" in out


def test_bounds_negative_input(capsys):
    code = main(["bounds", "--g4k", "-1", "--winding", "3"])
    assert code == EXIT_USAGE


def test_bounds_refuse_winding_zero(capsys):
    # the thm1 floors hold for winding n >= 1; at 0 the knot formula would
    # print a genus of 1 for an unknot in the tube
    code = main(["bounds", "--g4k", "5", "--winding", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: winding number must be positive\n"


def test_examples_orevkov(capsys):
    code, env = run_json(capsys, ["examples", "orevkov", "--n", "2", "--twists", "1"])
    assert code == EXIT_OK
    assert env["results"] == {
        "n": 2,
        "twists": 1,
        "bands_k1": 3,
        "g4_k1": 1,
        "bands_k2": 15,
        "g4_k2": 6,
        "satellite_bound": 2,
        "gap": False,
    }


def test_examples_orevkov_default_twists(capsys):
    code, env = run_json(capsys, ["examples", "orevkov", "--n", "9"])
    assert code == EXIT_OK
    assert env["inputs"]["twists"] == 215
    assert env["results"]["g4_k2"] == 53
    assert env["results"]["satellite_bound"] == 72
    assert env["results"]["gap"] is True


def test_cover_cyclic(capsys):
    code, env = run_json(capsys, ["cover", "cyclic", "--genus", "1", "--degree", "3"])
    assert code == EXIT_OK
    assert env["results"] == {
        "degree": 3,
        "base": {"genus": 1, "boundary": 1},
        "branch": 0,
        "cover": {"components": 1, "genus": 1, "boundary": 3},
    }


def test_cover_cyclic_needs_base_genus_one(capsys):
    code = main(["cover", "cyclic", "--genus", "0", "--degree", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: the base surface needs genus at least 1\n"


def _cap_memory(megabytes):
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (megabytes * 2**20, megabytes * 2**20))


def _run_capped(argv, env=None, megabytes=256):
    """Run the CLI in a child with 256 MB of address space and a 20 s limit:
    an input built before its check ends in MemoryError or a timeout.  ``env``
    adds variables to the child's environment, ``megabytes`` sets another
    cap."""
    return subprocess.run(
        [sys.executable, "-m", "satgenus.cli", *argv, "--json"],
        capture_output=True, text=True, timeout=20,
        preexec_fn=lambda: _cap_memory(megabytes), env={**os.environ, **(env or {})},
    )


@pytest.mark.parametrize("argv", [
    ["perm", "commutator", "--a", "(1 2)", "--b", "()", "--degree", "100000000"],
    ["perm", "ore", "--target", "(1 2 3)", "--degree", "100000000"],
    ["perm", "ore", "--target", "(1 2 3)", "--degree", "9"],
    ["cover", "cyclic", "--genus", "1", "--degree", "100000000"],
    ["cover", "cyclic", "--genus", "100000000000", "--degree", "100000000000"],
    ["cover", "cyclic", "--genus", "100000000000", "--degree", "1"],
    ["cover", "from-hom", "--genus", "1", "--degree", "100000000", "--images", "();()"],
    ["braid", "analyze", "--word", "1", "--strands", "1000000000"],
    ["perm", "examples", "--type", "odd", "--m", "100000000"],
    ["perm", "examples", "--type", "even", "--m", "100000000"],
])
def test_oversized_degrees_are_refused_before_allocation(argv):
    proc = _run_capped(argv)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "limit" in proc.stderr


# one valid command line per subcommand (both families of braid orevkov);
# the contract tests below set each integer option in turn to 0, to -1 and
# to 10^12
VALID_COMMANDS = [
    ["braid", "analyze", "--word", "1 1", "--strands", "2"],
    ["braid", "halftwist", "--strands", "3"],
    ["braid", "orevkov", "--family", "k1", "--n", "3"],
    ["braid", "orevkov", "--family", "k2", "--n", "2", "--twists", "1"],
    ["bounds", "--g4k", "1", "--winding", "3", "--pattern-genus", "1"],
    ["examples", "orevkov", "--n", "2", "--twists", "1"],
    ["cover", "cyclic", "--genus", "1", "--degree", "3"],
    ["cover", "from-hom", "--genus", "1", "--degree", "3", "--images", "();()"],
    ["cover", "enumerate", "--genus", "1", "--degree", "3", "--budget", "10000"],
    ["perm", "commutator", "--a", "(1 2)", "--b", "()", "--degree", "3"],
    ["perm", "examples", "--type", "odd", "--m", "1"],
    ["perm", "ore", "--target", "(1 2 3)", "--degree", "3"],
]


# every leaf of the option table: {subcommand path: its options}
LEAVES = {
    (command,) if name is None else (command, name): options + cli._OUTPUT_OPTIONS
    for command, (_, _, subs) in cli._COMMANDS.items() for name, _, options in subs
}


def _integer_options():
    """{subcommand path: its integer options}, read off the option table."""
    return {path: {flag for flag, kind, _, _ in options if kind is int} for path, options in LEAVES.items()}


def _integer_positions(argv):
    """Indices of the integer values in a command line."""
    return [i for i in range(1, len(argv)) if argv[i - 1].startswith("--") and argv[i].isdigit()]


def _subcommand(argv):
    """The subcommand path of a command line, such as ("cover", "enumerate")."""
    return tuple(itertools.takewhile(lambda token: not token.startswith("--"), argv))


def _boundary_cases(values=("0", "-1")):
    for argv in VALID_COMMANDS:
        for i in _integer_positions(argv):
            for value in values:
                yield argv[:i] + [value] + argv[i + 1:]


OVERSIZED = str(10**12)
OVERSIZED_CASES = list(_boundary_cases([OVERSIZED]))


def test_boundary_cases_cover_every_integer_option():
    covered = {}
    for argv in VALID_COMMANDS:
        path = _subcommand(argv)
        covered.setdefault(path, set()).update(argv[i - 1] for i in _integer_positions(argv))
    assert covered == _integer_options()


def test_oversized_cases_cover_every_integer_option():
    covered = {}
    for argv in OVERSIZED_CASES:
        path = _subcommand(argv)
        covered.setdefault(path, set()).add(argv[argv.index(OVERSIZED) - 1])
    assert covered == _integer_options()


@pytest.mark.parametrize("argv", OVERSIZED_CASES, ids=" ".join)
def test_oversized_integers_keep_the_exit_code_contract(argv):
    # one memory-capped child per case: an oversized value must be refused
    # (or served) before it allocates or computes its way past the caps
    proc = _run_capped(argv)
    assert proc.returncode in (EXIT_OK, EXIT_USAGE, EXIT_BUDGET, EXIT_INVARIANT), proc.stderr
    if proc.returncode == EXIT_OK:
        assert proc.stderr == ""
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def _reach_error(degree, budget=10**9):
    """The refusal of a genus-1 enumeration whose degree is past the reach
    of the budget, 10^9, 10^20 or 10^100: the character counts alone pass it
    at degree 30, 110 or 2166."""
    estimate, reach = {10**9: ("1131215305", 30), 10**20: ("about 10^20", 110),
                       10**100: ("about 10^100", 2166)}[budget]
    # a degree of 15 digits or more is named by its power of ten
    degree = {"1" + "0" * 400: "(about 10^400)"}.get(degree, degree)
    return (f"error: enumerating S_{degree}^2 needs an estimated {estimate} work units "
            f"for the character counts of degrees up to {reach} alone, over the budget of {budget}\n")


@pytest.mark.parametrize("degree", [OVERSIZED, "1" + "0" * 400])
@pytest.mark.parametrize("budget", [None, 10**20, 10**100])
def test_cover_enumerate_refuses_huge_degrees_at_any_budget(degree, budget):
    # the budget alone sets the degree's reach, and a huge degree is refused
    # at once, in 128 MB, without forming n!
    argv = ["cover", "enumerate", "--genus", "1", "--degree", degree]
    proc = _run_capped(argv + (["--budget", str(budget)] if budget else []), megabytes=128)
    assert proc.returncode == EXIT_BUDGET, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == _reach_error(degree, budget or 10**9)


def test_a_budget_over_10_to_the_100_is_refused_before_the_reach_loop(monkeypatch, capsys):
    # with a budget of 4000 digits the reach loop would keep p(j) up to a
    # degree in the millions: hours of work, refused at once in 128 MB
    argv = ["cover", "enumerate", "--genus", "1", "--degree", OVERSIZED, "--budget", "9" * 4000]
    refusal = "error: budget must be at most 10^100\n"
    proc = _run_capped(argv, megabytes=128)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_USAGE, "", refusal)
    monkeypatch.setattr(oracle, "_next_partition_count", lambda counts: pytest.fail("ran the reach loop"))
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", refusal)
    assert oracle._check_budget(1, 1, 10**100) == 10**100
    with pytest.raises(ValueError, match="at most 10\\^100"):
        oracle._check_budget(1, 1, 10**100 + 1)


def test_enumeration_at_the_default_reach_fits_in_128_mb():
    # degree 29 is the deepest the default budget admits at genus 1; its
    # counts hold p(29) = 4565 partitions and its witnesses no table
    proc = _run_capped(["cover", "enumerate", "--genus", "1", "--degree", "29"], megabytes=128)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    results = json.loads(proc.stdout)["results"]
    assert sum(results["boundary_k_histogram"].values()) == results["total_tuples"] == math.factorial(29) ** 2
    assert results["min_genus_overall"] == results["min_genus_connected_boundary"] - 14 == 1


def test_a_deep_genus_witness_shares_its_entries():
    # 400000 witness entries, all the identity: one permutation and one text
    # per rank keep the request inside 128 MB
    proc = _run_capped(["cover", "enumerate", "--genus", "200000", "--degree", "1"], megabytes=128)
    assert proc.returncode == EXIT_OK, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["min_overall_witness"] == results["connected_boundary_witness"] == ["()"] * 400000


def test_running_out_of_memory_is_the_budget_exit():
    # the 400000-entry witness above fits in 128 MB but not in 32
    proc = _run_capped(["cover", "enumerate", "--genus", "200000", "--degree", "1"], megabytes=32)
    assert proc.returncode == EXIT_BUDGET, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("genus,degree,budget,estimate", [
    ("1000000", "1", ["--budget", "10000000"], "512000000"),
    ("36000", "8", [], "1018106380"),
])
def test_an_over_budget_genus_is_refused_before_any_work(genus, degree, budget, estimate):
    # a small explicit budget, or the default one; the witness of a million
    # handles, which does not fit in 32 MB, and the counts of 72000 must not
    # be started
    proc = _run_capped(["cover", "enumerate", "--genus", genus, "--degree", degree, *budget],
                       megabytes=32)
    assert proc.returncode == EXIT_BUDGET, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: enumerating S_{degree}^{2 * int(genus)} needs an estimated {estimate} work units "
        "(witnesses and character counts), "
        f"over the budget of {budget[1] if budget else 10**9}\n"
    )


@pytest.mark.parametrize("genus,degree", [
    ("1000000000", "1"),
    ("1000000", "3"),
    ("1" + "0" * 400, "3"),
])
def test_a_deep_genus_is_refused_by_its_estimate(genus, degree):
    # each used to pass the budget and run on, building 2g-entry witnesses
    # or genus levels on totals of millions of digits
    proc = _run_capped(["cover", "enumerate", "--genus", genus, "--degree", degree])
    assert proc.returncode == EXIT_BUDGET, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "work units" in proc.stderr


@pytest.mark.parametrize("degree", [OVERSIZED, "1" + "0" * 400])
def test_huge_degrees_are_refused_without_a_print_limit(degree):
    # only the budget guards the counts, and it must be decided without
    # forming n!, which does not finish at 10^12
    proc = _run_capped(["cover", "enumerate", "--genus", "1", "--degree", degree], megabytes=128)
    assert proc.returncode == EXIT_BUDGET, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == _reach_error(degree)


@pytest.mark.parametrize("argv", list(_boundary_cases()), ids=" ".join)
def test_boundary_integers_keep_the_exit_code_contract(capsys, argv):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_BUDGET, EXIT_INVARIANT)
    if code == EXIT_OK:
        assert captured.err == ""
        env = json.loads(captured.out)
        # a result named like an input reports the value that was asked for
        for key, value in env["inputs"].items():
            assert env["results"].get(key, value) == value, key
    else:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# the satgenus submodules each subcommand loads, besides the package and cli:
# its command group's handler module and only the layers its handler calls,
# the oracle only for cover enumerate
SUBCOMMAND_MODULES = {
    ("braid", "analyze"): {"cmd_braid", "braids", "perms"},
    ("braid", "halftwist"): {"cmd_braid", "braids", "perms"},
    ("braid", "orevkov"): {"cmd_braid", "braids", "perms"},
    ("bounds",): {"cmd_bounds", "bounds"},
    ("examples", "orevkov"): {"cmd_bounds", "bounds", "braids", "perms"},
    ("cover", "cyclic"): {"cmd_cover", "covering", "perms"},
    ("cover", "from-hom"): {"cmd_cover", "covering", "perms"},
    ("cover", "enumerate"): {"cmd_cover", "oracle"},
    ("perm", "commutator"): {"cmd_perm", "perms"},
    ("perm", "examples"): {"cmd_perm", "perms"},
    ("perm", "ore"): {"cmd_perm", "perms"},
}

# prints the exit code, the satgenus modules loaded by one cli.main call, or
# by build_parser alone when the argument is null, and every module that
# importing cli and that call loaded
LOADED_MODULES = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
code = None
before = set(sys.modules)
import satgenus.cli as cli
if argv is None:
    cli.build_parser()
else:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "satgenus"),
                  sorted(set(sys.modules) - before)]))
"""

# standard modules that no request, help text or usage error loads:
# dataclasses imports inspect, ast, dis and tokenize; csv is imported only
# under --csv; no module of the package imports argparse (with the gettext
# and locale it imports) or typing, which costs 6-8 ms where site preloads
# nothing; cycle notation is parsed without re, which costs as much
UNLOADED_STDLIB = {"dataclasses", "inspect", "csv", "argparse", "gettext", "locale", "typing", "re"}


def _loaded_modules(argv):
    # -S: site, which may preload modules such as typing through .pth files,
    # would hide them from the list
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED_MODULES, json.dumps(argv)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_module_table_covers_every_subcommand():
    assert set(SUBCOMMAND_MODULES) == set(LEAVES)
    assert {_subcommand(argv) for argv in VALID_COMMANDS} == set(SUBCOMMAND_MODULES)


@pytest.mark.parametrize("argv, code", [
    (None, None),
    (["--help"], EXIT_OK),
    (["cover", "-h"], EXIT_OK),
    (["cover", "enumerate", "--genus", "1"], EXIT_USAGE),
], ids=str)
def test_help_and_usage_errors_load_no_layer(argv, code):
    # build_parser alone (argv None), as a benchmark's set-up may call it,
    # loads what help and usage errors load: the usage module and no layer
    answer, layers, loaded = _loaded_modules(argv)
    assert [answer, layers] == [code, ["satgenus", "satgenus.cli", "satgenus.usage"]]
    assert UNLOADED_STDLIB.isdisjoint(loaded)


def test_the_benchmark_set_up_runs_without_argparse(tmp_path):
    # perfbench/run.py times its SETUP_CODE, which calls cli.build_parser,
    # in a child of its own; a failing child fails every benchmark run.  An
    # empty bytecode cache prefix makes the child compile from source.
    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "perfbench" / "run.py").read_text())
    [setup] = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(target, "id", None) for target in node.targets] == ["SETUP_CODE"]]
    proc = subprocess.run([sys.executable, "-B", "-c", setup + "\nimport sys; print(*sys.modules)"],
                          capture_output=True, text=True, timeout=60, cwd=root,
                          env={**os.environ, "PYTHONPYCACHEPREFIX": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    assert {"argparse", "gettext", "locale"}.isdisjoint(proc.stdout.split())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", VALID_COMMANDS + [
    # the default kink count comes from the braids layer, not from bounds
    ["braid", "orevkov", "--family", "k2", "--n", "20"],
], ids=" ".join)
def test_subcommand_loads_only_its_layers(argv):
    expected = {"satgenus", "satgenus.cli"}
    expected |= {f"satgenus.{name}" for name in SUBCOMMAND_MODULES[_subcommand(argv)]}
    code, layers, loaded = _loaded_modules(argv)
    assert [code, layers] == [EXIT_OK, sorted(expected)]
    assert "--csv" not in argv
    assert UNLOADED_STDLIB.isdisjoint(loaded)


def test_braid_halftwist_needs_a_strand(capsys):
    code = main(["braid", "halftwist", "--strands", "0", "--json"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: a braid needs at least one strand\n"


def test_cover_from_hom(capsys):
    images = "(2 3)(4 5)(6 7);(1 2)(3 4)(5 6)"
    code, env = run_json(
        capsys, ["cover", "from-hom", "--genus", "1", "--degree", "7", "--images", images]
    )
    assert code == EXIT_OK
    assert env["results"]["cover"]["cover"] == {"components": 1, "genus": 4, "boundary": 1}
    assert env["results"]["orbits"] == [[1, 2, 3, 4, 5, 6, 7]]
    assert len(env["results"]["boundary_permutation"].split()) == 7


def test_cover_from_hom_wrong_image_count(capsys):
    code = main(["cover", "from-hom", "--genus", "2", "--degree", "3", "--images", "(1 2);()"])
    assert code == EXIT_USAGE


def test_cover_enumerate(capsys):
    code, env = run_json(capsys, ["cover", "enumerate", "--genus", "1", "--degree", "3"])
    assert code == EXIT_OK
    assert env["results"]["total_tuples"] == 36
    assert env["results"]["violations"] == []
    assert env["results"]["min_genus_overall"] == 1
    assert env["results"]["boundary_k_histogram"] == {"1": 18, "3": 18}


def test_cover_enumerate_sharpness(capsys):
    code, env = run_json(
        capsys,
        ["cover", "enumerate", "--genus", "1", "--degree", "4", "--sharpness"],
    )
    assert code == EXIT_OK
    assert env["inputs"] == {"genus": 1, "degree": 4, "budget": 10**9}
    assert env["results"]["sharpness"]["ok"] is True


def test_cover_enumerate_sharpness_scans_once(capsys, monkeypatch):
    # one pass: the budget check, the witness rule and the walk that counts
    # degrees 1..4 at genus 2 run once, and the sharpness report reads them
    calls = {name: [] for name in ("_check_budget", "_first_pairs", "_boundary_histograms")}
    for name, args in calls.items():
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *a, real=real, args=args: args.append(a) or real(*a))
    code = main(["cover", "enumerate", "--genus", "2", "--degree", "4", "--sharpness", "--json"])
    assert code == EXIT_OK
    assert calls == {"_check_budget": [(2, 4, None)], "_first_pairs": [(4,)], "_boundary_histograms": [(2, 4)]}


@pytest.mark.parametrize("argv", [
    ["braid", "orevkov", "--family", "k1", "--n", "4"],
    ["braid", "orevkov", "--family", "k2", "--n", "3"],
    ["braid", "analyze", "--word", "1 -2 1^2", "--strands", "3"],
])
def test_a_braid_request_walks_its_word_once(capsys, monkeypatch, argv):
    # the closure components are read off the strand permutation
    from satgenus import braids

    words = []
    permutation_of = braids.permutation_of
    monkeypatch.setattr(braids, "permutation_of", lambda w: words.append(w) or permutation_of(w))
    code, env = run_json(capsys, argv)
    assert code == EXIT_OK
    assert len(words) == 1
    assert env["results"]["length"] == len(words[0])


GOLDEN = json.loads((Path(__file__).parent / "golden" / "cover_enumerate.json").read_text())


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_cover_enumerate_matches_golden(capsys, args):
    # results captured from the tuple-by-tuple scanner this oracle replaced
    code, env = run_json(capsys, ["cover", "enumerate"] + args.split())
    assert code == EXIT_OK
    assert env["results"] == GOLDEN[args]


def test_cover_enumerate_budget(capsys):
    code = main(["cover", "enumerate", "--genus", "1", "--degree", "5", "--budget", "100"])
    assert code == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "4676" in err


def test_cover_enumerate_ignores_the_env_budget(capsys, monkeypatch):
    # --budget is the one way to set the budget; SATGENUS_BUDGET is not read
    monkeypatch.setenv("SATGENUS_BUDGET", "10")
    code, env = run_json(capsys, ["cover", "enumerate", "--genus", "1", "--degree", "3"])
    assert code == EXIT_OK
    assert env["inputs"]["budget"] == env["results"]["budget"] == 10**9
    assert env["results"]["total_tuples"] == 36


def test_cover_enumerate_violation_exit_code(capsys, monkeypatch):
    real = oracle.enumerate_covers(1, 2)
    fake_finding = {
        "check": "unbranched_floor",
        "components": 1,
        "boundary": 2,
        "genus": 0,
        "witness": ((0, 1), (0, 1)),
    }
    rigged = oracle.EnumerationReport(
        base_genus=real.base_genus,
        degree=real.degree,
        total_tuples=real.total_tuples,
        budget=real.budget,
        violations=(fake_finding,),
        min_genus_overall=real.min_genus_overall,
        min_overall_witness=real.min_overall_witness,
        min_genus_connected_boundary=real.min_genus_connected_boundary,
        connected_boundary_witness=real.connected_boundary_witness,
        boundary_k_histogram=real.boundary_k_histogram,
        shapes=real.shapes,
    )
    # the handler reads the oracle's functions at call time
    monkeypatch.setattr(oracle, "enumerate_covers", lambda *a, **k: rigged)
    code = main(["cover", "enumerate", "--genus", "1", "--degree", "2", "--json"])
    assert code == EXIT_INVARIANT
    env = json.loads(capsys.readouterr().out)
    assert env["results"]["violations"][0]["check"] == "unbranched_floor"


def test_cover_enumerate_sharpness_failure_exit_code(capsys, monkeypatch):
    real = oracle.enumerate_covers(1, 2).sharpness()
    rigged = oracle.SharpnessReport(
        base_genus=real.base_genus,
        degree=real.degree,
        ok=False,
        checks=real.checks,
        counterexamples=real.counterexamples,
        notes=real.notes,
    )
    monkeypatch.setattr(oracle.EnumerationReport, "sharpness", lambda self: rigged)
    code = main(["cover", "enumerate", "--genus", "1", "--degree", "2", "--sharpness"])
    assert code == EXIT_INVARIANT


@pytest.fixture
def default_int_digits():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def test_cover_enumerate_prints_the_largest_printable_tuple_count(capsys, default_int_digits):
    # 6^(2g) < 10^4300 up to g = 2762, the largest count the interpreter
    # prints under its default limit; the CLI lifts that limit, so this is
    # no longer the edge of what it prints
    assert 36**2762 < 10**default_int_digits <= 36**2763
    code, env = run_json(capsys, ["cover", "enumerate", "--genus", "2762", "--degree", "3"])
    assert code == EXIT_OK
    assert env["results"]["total_tuples"] == 36**2762
    assert main(["cover", "enumerate", "--genus", "2762", "--degree", "3"]) == EXIT_OK
    assert "tuples scanned:" in capsys.readouterr().out


def test_cover_enumerate_under_json_builds_no_human_lines(monkeypatch):
    # --json prints no human line, so the handler makes none and turns no
    # count into decimal text: with every conversion past 640 digits
    # refused, (2000,3), whose 6^4000 tuples have 3113 digits, still runs,
    # and only the human lines fail
    from satgenus import cmd_cover

    saved = sys.get_int_max_str_digits()
    args = SimpleNamespace(genus=2000, degree=3, budget=None, sharpness=True, json=True, out=None)
    sys.set_int_max_str_digits(640)
    try:
        code, results, human = cmd_cover.cover_enumerate(args)
        assert (code, human) == (EXIT_OK, [])
        assert results["total_tuples"] == 6**4000
        with pytest.raises(ValueError, match="integer string conversion"):
            cmd_cover.cover_enumerate(SimpleNamespace(**{**vars(args), "json": False}))
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("genus,degree", [(2763, 3), (3000, 3), (467, 8)])
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_cover_enumerate_prints_counts_past_the_digit_limit(capsys, default_int_digits, genus,
                                                            degree, mode):
    # (n!)^(2g) has more digits than the interpreter prints by default;
    # main prints it in full and gives the caller its limit back
    total = math.factorial(degree) ** (2 * genus)
    assert total >= 10**default_int_digits
    code = main(["cover", "enumerate", "--genus", str(genus), "--degree", str(degree)] + mode)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert sys.get_int_max_str_digits() == default_int_digits
    sys.set_int_max_str_digits(0)  # to read the counts back; the fixture restores the limit
    if mode:
        assert json.loads(out)["results"]["total_tuples"] == total
    else:
        assert f"tuples scanned:    {total}\n" in out


# the last two have 4300 digits, as many as the interpreter reads, and 2g
# has 4301
@pytest.mark.parametrize("genus", ["1" + "0" * 400,
                                   pytest.param("9" * 4300, id="nines4300"),
                                   pytest.param("5" + "0" * 4299, id="five4300")])
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_cover_enumerate_refuses_huge_genera_by_the_budget(capsys, monkeypatch, default_int_digits,
                                                           genus, mode):
    def refuse(*args):
        raise AssertionError("work done for a refused request")

    monkeypatch.setattr(oracle, "_shape_histogram", refuse)
    monkeypatch.setattr(oracle, "_first_pairs", refuse)
    code = main(["cover", "enumerate", "--genus", genus, "--degree", "3"] + mode)
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err.startswith("error: enumerating S_3^(about 10^")
    assert captured.err.endswith(" work units (witnesses and character counts), "
                                 f"over the budget of {10**9}\n")
    assert captured.err.count("\n") == 1


def test_a_genus_past_the_digit_limit_stays_a_usage_error(capsys, default_int_digits):
    # argv is read under the interpreter's limit, which main lifts only for
    # the request
    code = main(["cover", "enumerate", "--genus", "1" * 4301, "--degree", "3"])
    assert code == EXIT_USAGE
    assert "argument --genus: invalid int value" in capsys.readouterr().err


def test_bounds_print_a_product_past_the_digit_limit(capsys, default_int_digits):
    # 2 g4k has 4301 digits
    nines = "9" * 4300
    code = main(["bounds", "--g4k", nines, "--winding", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    sys.set_int_max_str_digits(0)  # to read the product back; the fixture restores the limit
    values = {line.split()[0]: line.split()[3] for line in out.splitlines()}
    assert values["thm1_knot"] == str(2 * int(nines))


NINES = "9" * 4300


@pytest.mark.parametrize("argv", [
    ["braid", "orevkov", "--family", "k2", "--n", NINES],
    ["braid", "halftwist", "--strands", NINES],
    ["examples", "orevkov", "--n", NINES],
    ["braid", "analyze", "--strands", "3", "--word", "1" + NINES],
    ["braid", "analyze", "--strands", NINES, "--word", "1^" + NINES],
    ["cover", "cyclic", "--genus", NINES, "--degree", "2"],
    ["cover", "from-hom", "--genus", NINES, "--degree", "3", "--images", "();()"],
    ["perm", "examples", "--type", "odd", "--m", NINES],
    ["perm", "ore", "--target", "(1 2 3)", "--degree", NINES],
    ["perm", "ore", "--target", f"(1 -{NINES})", "--degree", "3"],
], ids=["braid orevkov", "braid halftwist", "examples orevkov", "braid analyze token",
        "braid analyze strands", "cover cyclic", "cover from-hom", "perm examples",
        "perm ore degree", "perm ore point"])
def test_a_validation_error_names_a_huge_number_in_one_short_line(capsys, default_int_digits, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) <= 200


@pytest.mark.parametrize("limit", [640, 4300, 0])
@pytest.mark.parametrize("outcome,code", [
    (None, EXIT_OK), ("usage", EXIT_USAGE), (ValueError, EXIT_USAGE),
    (oracle.BudgetExceededError, EXIT_BUDGET), (MemoryError, EXIT_BUDGET),
])
def test_main_gives_the_caller_its_digit_limit_back(capsys, monkeypatch, limit, outcome, code):
    from satgenus import cmd_cover

    seen = []
    enumerate_ = cmd_cover.cover_enumerate

    def handler(args):
        seen.append(sys.get_int_max_str_digits())
        if outcome is None:
            return enumerate_(args)
        raise outcome("refused")

    monkeypatch.setattr(cmd_cover, "cover_enumerate", handler)
    argv = ["cover", "enumerate", "--genus", "2", "--degree", "3"]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert main(argv + (["--bogus"] if outcome == "usage" else [])) == code
        after = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(saved)
    capsys.readouterr()
    assert after == limit
    # the handler runs with the limit lifted; a usage error never reaches it
    assert seen == ([] if outcome == "usage" else [0])


def test_cover_enumerate_refuses_degrees_past_the_float_range(capsys, default_int_digits):
    degree = "1" + "0" * 400
    code = main(["cover", "enumerate", "--genus", "1", "--degree", degree])
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err == _reach_error(degree)


def test_budget_refusal_names_a_4300_digit_degree_by_its_power_of_ten(capsys, default_int_digits):
    code = main(["cover", "enumerate", "--genus", "1", "--degree", "9" * 4300])
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.err.startswith("error: enumerating S_(about 10^4300)^2 needs an estimated ")
    assert captured.err.count("\n") == 1 and len(captured.err) < 200


@pytest.fixture
def no_int_digit_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(saved)


def test_budget_refusal_forms_no_factorial_of_a_huge_degree(capsys, monkeypatch, no_int_digit_limit):
    factorial = math.factorial
    monkeypatch.setattr(math, "factorial", lambda n: factorial(n) if n <= 1000 else pytest.fail("formed n!"))
    # within the reach of the budget the message states the whole estimate
    assert main(["cover", "enumerate", "--genus", "36000", "--degree", "8"]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "error: enumerating S_8^72000 needs an estimated 1018106380 work units "
        "(witnesses and character counts), "
        f"over the budget of {10**9}\n"
    )
    # past it, the character counts of the degrees up to the reach alone
    assert main(["cover", "enumerate", "--genus", "1", "--degree", OVERSIZED]) == EXIT_BUDGET
    assert capsys.readouterr().err == _reach_error(OVERSIZED)


def test_perm_commutator(capsys):
    code, env = run_json(
        capsys, ["perm", "commutator", "--a", "(2 3)", "--b", "(1 2)", "--degree", "3"]
    )
    assert code == EXIT_OK
    assert env["results"]["commutator"] == "(1 3 2)"
    assert env["results"]["cycle_type"] == [3]
    assert env["results"]["even"] is True


@pytest.mark.parametrize("cycle", [
    "(" + " ".join(map(str, range(1, 10**5 + 1))) + " 1)",
    "(1 " + "x" * 5000 + " y)",
], ids=["repeated point", "non-integer entry"])
def test_perm_commutator_names_a_long_cycle_briefly(capsys, cycle):
    # in process: a 10^5-point cycle is longer than one command-line word may be
    code = main(["perm", "commutator", "--a", cycle, "--b", "()", "--degree", str(10**5)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200


def test_perm_examples_odd(capsys):
    code, env = run_json(capsys, ["perm", "examples", "--type", "odd", "--m", "2"])
    assert code == EXIT_OK
    assert env["results"]["degree"] == 5
    assert env["results"]["cycle_type"] == [5]
    assert env["results"]["transitive"] is True


def test_perm_examples_even(capsys):
    code, env = run_json(capsys, ["perm", "examples", "--type", "even", "--m", "3"])
    assert code == EXIT_OK
    assert env["results"]["degree"] == 6
    assert env["results"]["cycle_type"] == [3, 3]
    assert env["results"]["transitive"] is True


def test_perm_ore_found(capsys):
    code, env = run_json(capsys, ["perm", "ore", "--target", "(1 2 3)", "--degree", "3"])
    assert code == EXIT_OK
    assert env["results"]["found"] is True
    w = env["results"]["witness"]
    assert set(w) == {"a", "b"}


def test_perm_ore_not_found(capsys):
    code, env = run_json(capsys, ["perm", "ore", "--target", "(1 2)", "--degree", "3"])
    assert code == EXIT_OK
    assert env["results"]["found"] is False
    assert env["results"]["witness"] is None


def test_perm_ore_degree_limit(capsys):
    code, env = run_json(capsys, ["perm", "ore", "--target", "(1 2 3)(4 5 6 7 8)", "--degree", "8"])
    assert code == EXIT_OK
    assert env["results"]["witness"] == {"a": "(4 5)(6 7 8)", "b": "(1 6 5)(2 8 3 7)"}
    code = main(["perm", "ore", "--target", "(1 2 3)", "--degree", "9"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (
        "error: degree 9 exceeds the search limit 8 of the exhaustive commutator search\n"
    )


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["cover", "cyclic", "--genus", "2", "--degree", "2", "--out", str(target), "--json"]
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert target.read_text() == stdout
    env = json.loads(target.read_text())
    jsonschema.validate(env, SCHEMA)
    leftovers = [p for p in tmp_path.iterdir() if p.name != "report.json"]
    assert leftovers == []


def test_out_without_json_keeps_human_output(tmp_path, capsys):
    target = tmp_path / "halftwist.json"
    code = main(["braid", "halftwist", "--strands", "3", "--out", str(target)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "exponent sum" in out
    assert json.loads(target.read_text())["command"] == "braid halftwist"


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = main(["cover", "cyclic", "--genus", "1", "--degree", "2", "--out", str(target)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out")
    assert not target.parent.exists()


def test_out_onto_directory_is_usage_error(tmp_path, capsys):
    code = main(["cover", "cyclic", "--genus", "1", "--degree", "2", "--json", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out")
    assert [p.name for p in tmp_path.parent.iterdir() if p.name.startswith(".satgenus-")] == []


OUT_ARGV = ["cover", "cyclic", "--genus", "1", "--degree", "2", "--json", "--out"]


def test_out_through_symlink_replaces_its_target(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target.name)
    assert main(OUT_ARGV + [str(link)]) == EXIT_OK
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "report.json"]


@pytest.mark.parametrize("name", ["fifo", "link"])
def test_out_onto_fifo_is_refused_untouched(tmp_path, capsys, name):
    os.mkfifo(tmp_path / "fifo")
    (tmp_path / "link").symlink_to("fifo")
    target = tmp_path / name
    assert main(OUT_ARGV + [str(target)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write --out {target}: exists and is not a regular file\n"
    assert stat.S_ISFIFO(os.lstat(tmp_path / "fifo").st_mode)
    assert os.readlink(tmp_path / "link") == "fifo"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link"]


@pytest.fixture
def umask_027():
    saved = os.umask(0o027)
    yield 0o027
    os.umask(saved)


def test_out_gives_a_new_file_the_umask_mode(tmp_path, capsys, umask_027):
    target = tmp_path / "new.json"
    assert main(OUT_ARGV + [str(target)]) == EXIT_OK
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o666 & ~umask_027


def test_out_keeps_an_existing_file_mode(tmp_path, capsys, umask_027):
    target = tmp_path / "old.json"
    target.write_text("old\n")
    os.chmod(target, 0o604)
    assert main(OUT_ARGV + [str(target)]) == EXIT_OK
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o604
    assert target.read_text() == capsys.readouterr().out


def test_out_empty_path_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(OUT_ARGV + [""]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write --out : empty path\n"
    assert list(tmp_path.iterdir()) == []


# command lines answered with help or a usage error, each with the exit code
# it had while argparse answered them: 0 for help, 2 for an error
MALFORMED_COMMANDS = [
    [],
    ["bogus"],
    ["cover", "bogus"],
    ["cover"],
    ["braid"],
    ["examples"],
    ["bounds", "--g4k", "x", "--winding", "2"],
    ["cover", "enumerate", "--genus", "1", "--degree", "three"],
    ["perm", "ore", "--target", "(1 2 3)", "--degree", "3", "--bogus"],
    ["braid", "halftwist", "--strands", "3", "extra"],
    ["bounds", "--g4k", "1", "--winding", "2", "extra"],
    ["perm", "examples", "--type", "neither", "--m", "1"],
    ["cover", "cyclic", "--genus", "1"],
    ["-h"],
    ["braid", "-h"],
    ["braid", "analyze", "-h"],
    ["bounds", "-h"],
    ["examples", "orevkov", "-h"],
    ["cover", "-h"],
    ["cover", "from-hom", "-h"],
    ["perm", "ore", "-h"],
]


def _parse(parser, argv):
    """(namespace, exit code, stdout, stderr) of parsing argv with argparse."""
    out, err = io.StringIO(), io.StringIO()
    namespace, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def _argparse_tree():
    return build_argparse_tree()


# the levels of the option table that help describes: the top, each command
# and each leaf
LEVELS = [()] + sorted(set(LEAVES) | {path[:1] for path in LEAVES})


def _level(argv):
    """The leading words of argv that name a level of the option table."""
    return max((path for path in LEVELS if list(path) == argv[:len(path)]), key=len)


def _drops_a_value(argv):
    """Whether argv holds ``--flag=--``: argparse drops that ``--`` as an
    end-of-options marker and leaves the option at its default, so that a
    required option reached its handler as None; the table reads ``--``."""
    return any(word.partition("=")[2] == "--" for word in argv)


def _dropped_spelling(argv):
    """Whether argv spells a request in a way argparse read and the table
    parse does not: an abbreviated or repeated flag, a value that starts
    with --, one that argparse reads as a negative number only because its
    regex lets $ match before a final newline, or ``--flag=--``."""
    flags = [word.partition("=")[0] for word in argv if word.startswith("--")]
    return (len(set(flags)) < len(flags) or not set(flags) <= {flag for flag, _, _, _ in LEAVES[_subcommand(argv)]}
            or any(word.startswith("-") and word.endswith("\n") for word in argv) or _drops_a_value(argv))


def _parses_like_argparse(argv):
    """The namespace that the table parse reads off argv, or None.  A
    namespace must be the one that the argparse tree gives, with no output;
    a line the table parse refuses, argparse must refuse too, unless it is
    a dropped spelling.  Only ``--flag=--`` reads differently (see
    ``_drops_a_value``).
    """
    namespace = cli._parse_by_table(argv)
    parsed = _parse(_argparse_tree(), argv)
    if isinstance(namespace, tuple):
        assert parsed[0] is None or _dropped_spelling(argv), (argv, namespace)
        return None
    if not _drops_a_value(argv):
        assert parsed == (vars(namespace), None, "", "")
    return namespace


@pytest.mark.parametrize("argv", VALID_COMMANDS + MALFORMED_COMMANDS, ids=" ".join)
def test_the_table_parse_reads_like_argparse(argv):
    namespace = _parses_like_argparse(argv)
    assert (namespace is not None) == (argv in VALID_COMMANDS)


@pytest.mark.parametrize("argv", MALFORMED_COMMANDS, ids=" ".join)
def test_help_and_usage_errors_keep_their_exit_codes(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == _parse(_argparse_tree(), argv)[1]
    prog = " ".join(["satgenus", *_level(argv)])
    if code == EXIT_OK:
        assert out.startswith(f"usage: {prog} [-h]") and err == ""
    else:
        usage, error = err.splitlines()
        assert out == "" and err.count("\n") == 2
        assert usage.startswith(f"usage: {prog} [-h]")
        assert error.startswith(f"{prog}: error: ")


def _equals_form(argv):
    """argv with every ``--flag value`` pair written as ``--flag=value``."""
    joined = []
    for word in argv:
        if joined and joined[-1].startswith("--") and "=" not in joined[-1] and not word.startswith("--"):
            joined[-1] += "=" + word
        else:
            joined.append(word)
    return joined


@pytest.mark.parametrize("mode", [[], ["--json"], ["--out", "report.json"], ["--out=r", "--json"]],
                         ids=" ".join)
@pytest.mark.parametrize("argv", VALID_COMMANDS, ids=" ".join)
def test_the_table_parse_reads_every_valid_command_line(argv, mode):
    path = list(_subcommand(argv))
    for words in (argv + mode, path + mode + argv[len(path):], _equals_form(argv + mode)):
        assert _parses_like_argparse(words) is not None, words


def _table_words():
    """Words a command line of some leaf may hold: its flags whole, cut
    short, with = and a value or followed by one, values of every kind, help
    and stray words."""

    def words(path):
        options = LEAVES[path]
        flags = [flag for flag, _, _, _ in options]
        flag = st.sampled_from(flags)
        short = flag.map(lambda f: f[:-1]).filter(len)
        value = (st.integers(-3, 12).map(str) | st.text(max_size=3)
                 | st.sampled_from(["", "x", " 2", "+3", "1 2", "-1 2", "--", "-h", "1_0",
                                    "k1", "k2", "odd", "even", "-", "-x", "-.5", "-h 1", "--x 1"]))
        group = st.one_of(
            st.tuples(flag, value).map(list),
            st.tuples(flag, value).map(lambda pair: ["=".join(pair)]),
            flag.map(lambda f: [f]),
            st.tuples(short, value).map(list),
            st.sampled_from([["-h"], ["--help"], ["--"], ["stray"], [path[-1]]]),
        )
        # each required option once with a valid value, most of the time,
        # so that many lines are valid
        required = st.tuples(*[
            st.one_of(st.just([flag, good]), st.just([flag, good]), st.just([]),
                      st.tuples(st.just(flag), value).map(list))
            for flag, kind, needed, _ in options if needed
            for good in ["2" if kind is int else kind[-1] if isinstance(kind, tuple) else "w"]
        ]).flatmap(lambda groups: st.permutations(list(groups)))
        return st.tuples(st.just(list(path)), required, st.lists(group, max_size=3))

    return st.sampled_from(list(LEAVES)).flatmap(words).map(
        lambda parts: parts[0] + [w for group in parts[1] + parts[2] for w in group])


@settings(max_examples=500, deadline=None)
@given(_table_words())
def test_the_table_parse_never_reads_a_line_differently(argv):
    _parses_like_argparse(argv)


# command lines with a value that starts with -, which the table parse reads
# as argparse did, each with its twin in the --flag=value form
DASH_VALUE_COMMANDS = [
    (["cover", "cyclic", "--genus", "-1", "--degree", "3"],
     ["cover", "cyclic", "--genus=-1", "--degree", "3"]),
    (["braid", "analyze", "--word", "-1 2", "--strands", "3"],
     ["braid", "analyze", "--word=-1 2", "--strands", "3"]),
]


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=" ".join)
@pytest.mark.parametrize("argv, twin", DASH_VALUE_COMMANDS, ids=lambda argv: " ".join(argv))
def test_a_value_starting_with_a_dash_reads_like_its_equals_form(capsys, argv, twin, mode):
    assert _parses_like_argparse(argv + mode) == _parses_like_argparse(twin + mode) is not None
    answers = []
    for words in (argv + mode, twin + mode):
        code = main(words)
        answers.append((code, *capsys.readouterr()))
    assert answers[0] == answers[1]


@pytest.mark.parametrize("value", ["-", "-x", "-h", "-h 1", "-1", "-1.5", "-.5", "-1.", "-1 2", "-x y",
                                   "--", "--x", "--x 1", "-1\n"], ids=repr)
def test_a_value_starting_with_a_dash_is_taken_as_argparse_took_it(value):
    # a value, unless argparse took the word for an option; but a word
    # starting with -- is never a value
    _parses_like_argparse(["braid", "analyze", "--word", value, "--strands", "2"])


# spellings that argparse read and the table parse refuses: an abbreviated
# flag, a repeated one and a value starting with --
DROPPED_SPELLINGS = [
    ["cover", "cyclic", "--gen", "2", "--degree", "3"],
    ["cover", "cyclic", "--genus", "1", "--degree", "2", "--degree", "3"],
    ["braid", "analyze", "--word", "--x 1", "--strands", "3"],
]


@pytest.mark.parametrize("argv", DROPPED_SPELLINGS, ids=" ".join)
def test_dropped_spellings_are_usage_errors(capsys, argv):
    assert _parse(_argparse_tree(), argv)[0] is not None
    assert _dropped_spelling(argv)
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 2
    assert err.splitlines()[1].startswith(f"satgenus {' '.join(_subcommand(argv))}: error: ")


@pytest.mark.parametrize("path", LEVELS, ids=lambda path: " ".join(path) or "top")
def test_help_at_every_level(capsys, path):
    # the commands or subcommands with their help, or each option with its
    # metavar, whether it is required, its choices and its help
    assert main([*path, "--help"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith(" ".join(["usage: satgenus", *path, "[-h]"]))
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines() if line.startswith("  ")}
    assert rows.pop("-h,") == "--help show this help message and exit".split()
    if path in LEAVES:
        for flag, kind, required, option_help in LEAVES[path]:
            metavar = ([] if kind is bool else ["{" + ",".join(kind) + "}"] if isinstance(kind, tuple)
                       else ["FILE"] if flag == "--out" else [flag[2:].upper().replace("-", "_")])
            assert rows.pop(flag) == metavar + ["(required)"] * required + (option_help or "").split()
    else:
        names = ([(name, entry[0]) for name, entry in cli._COMMANDS.items()] if not path
                 else [(name, name_help) for name, name_help, _ in cli._COMMANDS[path[0]][2]])
        for name, name_help in names:
            assert rows.pop(name) == name_help.split()
    assert rows == {}


def test_help_of_a_leaf(capsys):
    assert main(["cover", "enumerate", "-h"]) == EXIT_OK
    assert capsys.readouterr() == ("""\
usage: satgenus cover enumerate [-h] --genus GENUS --degree DEGREE [--budget BUDGET] [--sharpness] [--json] [--out FILE]

exhaustive scan of all monodromy tuples

options:
  -h, --help       show this help message and exit
  --genus GENUS    (required)
  --degree DEGREE  (required)
  --budget BUDGET  work budget (default 10^9, at most 10^100)
  --sharpness      also run the equality analysis
  --json           print the JSON envelope
  --out FILE       also write the JSON envelope to FILE
""", "")


@pytest.mark.parametrize("argv", VALID_COMMANDS, ids=" ".join)
def test_a_request_compiles_cli_once(argv):
    # run as -m, cli is __main__; a handler module importing satgenus.cli
    # would compile and run it a second time
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "satgenus.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    handler = next(name for name in SUBCOMMAND_MODULES[_subcommand(argv)] if name.startswith("cmd_"))
    assert f"satgenus.{handler}" in imported
    assert "satgenus.cli" not in imported


def test_json_output_is_deterministic(capsys):
    main(["cover", "enumerate", "--genus", "1", "--degree", "3", "--json"])
    first = capsys.readouterr().out
    main(["cover", "enumerate", "--genus", "1", "--degree", "3", "--json"])
    repeat = capsys.readouterr().out
    assert first == repeat


def test_missing_subcommand_is_usage_error():
    assert main(["braid"]) == EXIT_USAGE


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "satgenus.cli", "perm", "examples", "--type", "odd", "--m", "1", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    env = json.loads(proc.stdout)
    assert env["results"]["commutator"] == "(1 3 2)"


def _block_buffered_env():
    """This environment without PYTHONUNBUFFERED: a child's stdout on a pipe
    is then block-buffered and written at the final flush."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


# every documented output mode, block-buffered: the process entry point must
# write what the in-process main writes
ENTRY_CASES = [argv + mode for argv in VALID_COMMANDS for mode in ([], ["--json"], ["--out"])]
ENTRY_CASES.append(["cover", "enumerate", "--genus", "1", "--degree", "6", "--sharpness", "--json"])


@pytest.mark.parametrize("argv", ENTRY_CASES, ids=" ".join)
def test_entry_point_writes_what_main_writes(tmp_path, capsysbinary, argv):
    if argv[-1] == "--out":
        argv = argv + [str(tmp_path / "report.json")]
    code = main(argv)
    captured = capsysbinary.readouterr()
    written = (tmp_path / "report.json").read_bytes() if "--out" in argv else None
    proc = subprocess.run([sys.executable, "-m", "satgenus.cli", *argv],
                          capture_output=True, env=_block_buffered_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    if written is not None:
        assert (tmp_path / "report.json").read_bytes() == written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def _run_with_a_closed_pipe(argv, stream, unbuffered=""):
    """Run the entry point with stdout or stderr (``stream``) on a pipe whose
    reader has gone; the other stream is captured."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = _block_buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write_end}
    try:
        return subprocess.run([sys.executable, "-m", "satgenus.cli", *argv],
                              env=env, timeout=60, **streams)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [
    ["bounds", "--g4k", "3", "--winding", "2", "--json"],
    # help, at each level of the table
    ["--help"],
    ["bounds", "--help"],
    ["braid", "--help"],
    ["cover", "enumerate", "--help"],
], ids=" ".join)
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_is_one_error_line_and_exit_2(unbuffered, argv):
    # block-buffered, the write fails at the final flush; unbuffered, in print
    proc = _run_with_a_closed_pipe(argv, "stdout", unbuffered)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == b"error: cannot write stdout: Broken pipe\n"


# a command line, its exit code and how its stdout starts
CLOSED_STDERR_CASES = [
    (["bounds", "--g4k", "3", "--winding", "2"], EXIT_OK, b"schubert_1  genus3_lower"),
    (["--help"], EXIT_OK, b"usage: satgenus [-h]"),
    (["bounds", "--winding", "2"], EXIT_USAGE, b""),
    (["bounds", "--g4k", "-1", "--winding", "2"], EXIT_USAGE, b""),
    (["cover", "enumerate", "--genus", "1", "--degree", "30"], EXIT_BUDGET, b""),
]


@pytest.mark.parametrize("argv, code, stdout", CLOSED_STDERR_CASES,
                         ids=[" ".join(case[0]) for case in CLOSED_STDERR_CASES])
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stderr_keeps_the_exit_code(unbuffered, argv, code, stdout):
    proc = _run_with_a_closed_pipe(argv, "stderr", unbuffered)
    assert proc.returncode == code
    if stdout:
        assert proc.stdout.startswith(stdout)
    else:
        assert proc.stdout == b""


# prints whether json is loaded after build_parser alone (no argument) or
# after one cli.main call; the probe itself imports nothing that loads json
JSON_PROBE = """
import sys
import satgenus.cli as cli
if len(sys.argv) == 1:
    cli.build_parser()
else:
    cli.main(sys.argv[1:])
print("json" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [[]] + ENTRY_CASES, ids=lambda argv: " ".join(argv) or "parser")
def test_no_request_loads_json(tmp_path, argv):
    # every output mode: --json and --out render the envelope without it
    if argv[-1:] == ["--out"]:
        argv = argv + [str(tmp_path / "report.json")]
    proc = subprocess.run([sys.executable, "-c", JSON_PROBE, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == "False\n"


# what an envelope may hold: text over all of Unicode, lone surrogates
# included, ints past 64 bits, bools and None, nested in dicts, lists and
# tuples
JSON_TEXT = st.text(st.characters(exclude_categories=()))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400) | JSON_TEXT,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner)),
)


@given(JSON_VALUES)
def test_json_text_is_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {1: 2}, {("a",): 1}, {1, 2}, b"bytes", [object()]],
                         ids=repr)
def test_json_text_refuses_what_an_envelope_never_holds(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


@pytest.mark.parametrize("argv", VALID_COMMANDS + [
    ["cover", "enumerate", "--genus", "2", "--degree", "6", "--sharpness"],
    ["cover", "enumerate", "--genus", "1000", "--degree", "3", "--sharpness"],
], ids=" ".join)
def test_every_envelope_renders_as_json_dumps(monkeypatch, capsys, argv):
    envelopes = []
    render = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda value: envelopes.append(value) or render(value))
    assert main(argv + ["--json"]) == EXIT_OK
    [envelope] = envelopes
    assert capsys.readouterr().out == json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def test_entry_points_end_through_run():
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    assert '[project.scripts]\nsatgenus = "satgenus.cli:run"\n' in pyproject
    source = (root / "src" / "satgenus" / "cli.py").read_text()
    assert source.endswith('\nif __name__ == "__main__":\n    run()\n')


# prints whether the interpreter is CPython, and its minor version
CPYTHON_PROBE = "import sys; print(sys.implementation.name == 'cpython', sys.version_info[1])"


def _cpython(minors):
    """The first of the CPython 3.<minor> interpreters, in the order of
    minors, that starts: ``python3.<minor>`` on PATH, else a pyenv install
    of it.  None if none starts (a pyenv shim exits non-zero when no active
    version provides the command)."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    for minor in minors:
        candidates = [shutil.which(f"python3.{minor}")]
        candidates += sorted(pyenv.glob(f"versions/3.{minor}*/bin/python"), reverse=True)
        for python in filter(None, candidates):
            try:
                proc = subprocess.run([python, "-c", CPYTHON_PROBE],
                                      capture_output=True, text=True, timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                continue
            if proc.returncode == 0 and proc.stdout.split() == ["True", str(minor)]:
                return python
    return None


def _outputs(python):
    """Exit code, stdout and stderr of every VALID_COMMANDS line under --json
    and of every demo, run by python on the source tree."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # conftest put src on PYTHONPATH
    runs = [["-m", "satgenus.cli", *argv, "--json"] for argv in VALID_COMMANDS]
    runs += [[str(demo)] for demo in sorted((root / "demos").glob("*.py"))]
    assert len(runs) > len(VALID_COMMANDS)
    return [subprocess.run([python, *run], capture_output=True, text=True, env=env, timeout=120)
            for run in runs]


@pytest.mark.parametrize("minors", [
    [10],  # pyproject.toml's requires-python floor
    range(30, 10, -1),  # the newest CPython found
], ids=["floor", "newest"])
def test_other_interpreters_print_what_this_one_prints(minors):
    python = _cpython(minors)
    if python is None:
        pytest.skip(f"no CPython 3.{minors[0]}..3.{minors[-1]} starts here")
    expected = [(p.returncode, p.stdout, p.stderr) for p in _outputs(sys.executable)]
    assert [(p.returncode, p.stdout, p.stderr) for p in _outputs(python)] == expected
