"""Tests for the benchmark's own code.

    python3 -m pytest perfbench

Run from the root of the checkout.  The end-to-end tests start the benchmark
for one short deep-genus pass, so this file takes under a minute.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from satgenus import cli  # noqa: E402


def cli_output(argv: list[str]) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


def enumerate_case(g: int, n: int) -> tuple[dict, dict]:
    req = workloads.enumerate_request(g, n, True)
    return req, json.loads(cli_output(req["argv"] + ["--json"]))


def verdict(req: dict, env: dict) -> str | None:
    return checks.check(req, 0, json.dumps(env), None)


def test_correct_enumerate_output_passes():
    for g, n in ((1, 3), (1, 4), (2, 3)):
        req, env = enumerate_case(g, n)
        assert verdict(req, env) is None


def test_histogram_off_by_one_fails():
    req, env = enumerate_case(1, 3)
    hist = env["results"]["boundary_k_histogram"]
    key = next(iter(hist))
    hist[key] += 1
    assert verdict(req, env) is not None


def test_histogram_moved_between_buckets_fails():
    # Keeps the total at (n!)^(2g), so only the Frobenius comparison sees it.
    req, env = enumerate_case(1, 3)
    hist = env["results"]["boundary_k_histogram"]
    first, second = list(hist)[:2]
    hist[first] -= 1
    hist[second] += 1
    assert "Frobenius" in verdict(req, env)


def test_witness_from_another_class_fails():
    req, env = enumerate_case(1, 3)
    results = env["results"]
    results["connected_boundary_witness"] = results["min_overall_witness"]
    assert "connected_boundary_witness" in verdict(req, env)
    req, env = enumerate_case(1, 3)
    env["results"]["min_overall_witness"] = ["()", "()"]
    assert "min_overall_witness" in verdict(req, env)


def test_sharpness_not_ok_fails():
    req, env = enumerate_case(1, 4)
    env["results"]["sharpness"]["ok"] = False
    assert verdict(req, env) is not None


def test_unknown_extra_keys_are_ignored():
    req, env = enumerate_case(2, 3)
    env["results"]["stats"] = {"pair_classes": 21, "states_per_level": [1, 5]}
    env["timings"] = {}
    assert verdict(req, env) is None


def test_nonzero_exit_fails():
    req, env = enumerate_case(1, 3)
    assert checks.check(req, 4, json.dumps(env), None) == "exit code 4"


def test_out_file_must_equal_stdout():
    req = workloads.ore_request([1, 2, 0, 3])
    req["mode"] = "json-out"
    stdout = cli_output(req["argv"] + ["--json"])
    assert checks.check(req, 0, stdout, stdout) is None
    assert checks.check(req, 0, stdout, stdout.replace("found", "FOUND")) is not None


def test_wrong_ore_witness_fails():
    req = workloads.ore_request([1, 2, 0, 3, 4])
    env = json.loads(cli_output(req["argv"] + ["--json"]))
    assert verdict(req, env) is None
    env["results"]["witness"]["a"] = "()"
    assert "[a, b]" in verdict(req, env)


def test_runner_counts_a_failing_child(tmp_path):
    runner = run.Runner(ROOT, str(tmp_path), checks.check)
    req = workloads.enumerate_request(1, 0, False)
    sample = runner.request(req, traced=False)
    assert sample.error.startswith("exit code 2")


def test_every_toolkit_request_checks_out_in_process(tmp_path):
    for req in workloads.generate("toolkit-mix", 7):
        argv = list(req["argv"])
        out_path = str(tmp_path / "out.json")
        if req["mode"] != "out":
            argv.append("--json")
        if req["mode"] != "json":
            argv += ["--out", out_path]
        stdout = cli_output(argv)
        out_text = open(out_path).read() if req["mode"] != "json" else None
        assert checks.check(req, 0, stdout, out_text) is None, req


def brute_histogram(g: int, n: int) -> dict[int, int]:
    perms = [list(p) for p in itertools.permutations(range(n))]
    hist: dict[int, int] = {}
    for images in itertools.product(perms, repeat=2 * g):
        boundary = list(range(n))
        for i in range(g):
            boundary = checks.compose(boundary, checks.commutator(images[2 * i], images[2 * i + 1]))
        k = len(workloads.cycle_lengths(boundary))
        hist[k] = hist.get(k, 0) + 1
    return hist


def test_frobenius_matches_brute_force():
    for g, n in ((1, 2), (1, 3), (1, 4), (2, 3)):
        assert checks.frobenius_histogram(g, n) == brute_histogram(g, n)


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 5) == workloads.generate(name, 5)
    digests = {workloads.digest(workloads.generate("toolkit-mix", seed)) for seed in range(5)}
    assert len(digests) == 5


def test_requests_stay_inside_planned_guards():
    for name in workloads.WORKLOADS:
        for seed in range(20):
            for req in workloads.generate(name, seed):
                assert "--threads" not in req["argv"] and "--budget" not in req["argv"]
                p = req["params"]
                if req["kind"] in ("braid-k1", "braid-k2", "examples-orevkov"):
                    assert p["n"] <= 60
                if req["kind"] == "cover-from-hom":
                    assert p["n"] <= 9
                if req["kind"] == "perm-ore" and name == "toolkit-mix":
                    assert p["degree"] <= 5
    mix = workloads.generate("toolkit-mix", 0)
    assert len(mix) == sum(workloads.TOOLKIT_MIX.values()) == 100


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(19) == 100
    for count in range(20, 400):
        pct = run.tail_percentile(count)
        rank = -(-pct * count // 100)
        assert count - rank >= 10
        assert count - -(-(pct + 1) * count // 100) < 10


def test_end_to_end_scales_times_but_not_memory():
    passes = [(1.5, [run.Sample(0.5, 0.4, 30.0, 10, None, None),
                     run.Sample(1.0, 0.9, 31.0, 10, None, None)])]
    references = [2 * run.REFERENCE_S] * 3
    metrics, measured = run.end_to_end(passes, [0.2, 0.4, 0.3], references)
    assert measured == {"wall_s": 1.5, "latency_p50_ms": 750.0, "latency_tail_ms": 1000.0,
                        "peak_rss_mb": 31.0, "setup_s": 0.3}
    assert metrics == pytest.approx({"wall_s": 0.75, "latency_p50_ms": 375.0,
                                     "latency_tail_ms": 500.0, "peak_rss_mb": 31.0,
                                     "setup_s": 0.15})


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", 0, 100, -1, 1, None, 0],
             ["oracle.enumerate_covers", 10, 60, 0, 1, None, 0],
             ["bounds.a", 20, 30, 1, 1, None, 0],
             ["perms.cycles_str", 70, 80, 0, 1, None, 0]]
    assert run._self_times(spans) == pytest.approx([40e-9, 40e-9, 10e-9, 10e-9])


def benchmark(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for trace, section, table in (("0", "end_to_end", run.END_TO_END),
                                  ("1", "per_layer", run.PER_LAYER)):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {name: unit for name, (unit, _) in table.items()} == expected
        assert {m["name"]: m["better"] for m in spec[section]} == \
            {name: better for name, (_, better) in table.items()}
        proc = benchmark("--workload", "deep-genus", "--seed", "3", "--seconds", "0",
                         "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        for name in expected:
            assert name in proc.stdout.splitlines()[1 + list(expected).index(name)]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = benchmark("--workload", "toolkit-mix", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
