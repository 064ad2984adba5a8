"""satgenus CLI benchmark: a closed loop of one client and one request child
at a time, since the reference machine has two cores.

    python3 perfbench/run.py --workload s6-cold --seed 1 --seconds 40 --trace 0

Run it from the root of a satgenus checkout.  Each request is a fresh
``python -m satgenus.cli`` process; its output is checked (checks.py) and a
failed check counts the request as failed.  The seeded request list
(workloads.py) is replayed pass after pass while another whole pass still
fits in ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced passes and half on traced ones, where each request child
runs child.py, which wraps the library calls of satgenus.cli in spans, and
then adds in-process probes of the oracle; it prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REQUEST_TIMEOUT_S = 60
# The tracemalloc probe of a cold S_6 build runs about ten times slower than
# the build itself.
PROBE_TIMEOUT_S = 120
SETUP_CODE = "import satgenus.cli as cli; cli.build_parser()"
INTERPRETER_SAMPLES = 9

# The reference machine's speed drifts by up to a third within minutes, in CPU
# time as much as in wall time, so raw times from runs a few minutes apart
# differ by more than any useful bound.  Every CALIBRATE_EVERY_S the loop
# therefore times one set-up child and one reference child between requests.
# The reference runs isolated (-I) from the checkout, so no change to the
# repository can move it.  End-to-end times are scaled by REFERENCE_S over the
# run's median reference time: they read as seconds on a host where the
# reference child takes REFERENCE_S.  The measured times are printed too.
REFERENCE_CODE = "d = {(i, i ^ 5): i * i for i in range(150000)}; sum(d.values())"
REFERENCE_S = 0.125
CALIBRATE_EVERY_S = 2.0
SCALED = ("wall_s", "latency_p50_ms", "latency_tail_ms", "setup_s")

# name: (unit, better); the same names, units and directions as BENCHMARK.json.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
PER_LAYER = {
    "oracle.enumerate_covers.cold_s": ("s", "lower"),
    "oracle.cold_heap_peak_mb": ("MB", "lower"),
    "oracle.enumerate_covers.warm_s": ("s", "lower"),
    "oracle.verify_sharpness.warm_s": ("s", "lower"),
    "oracle.tuples": ("count", "higher"),
    "oracle.tuples_per_s": ("1/s", "higher"),
    "oracle.to_json_s": ("s", "lower"),
    "oracle.calls": ("count", "lower"),
    "oracle.budget_refusals": ("count", "lower"),
    "perms.ore_commutator_search.cold_s": ("s", "lower"),
    "perms.busy_s": ("s", "lower"),
    "perms.calls": ("count", "lower"),
    "braids.busy_s": ("s", "lower"),
    "braids.calls": ("count", "lower"),
    "braids.letters": ("count", "lower"),
    "bounds.busy_s": ("s", "lower"),
    "bounds.calls": ("count", "lower"),
    "covering.busy_s": ("s", "lower"),
    "covering.calls": ("count", "lower"),
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.out_bytes": ("count", "lower"),
    "cli.child_cpu_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "host.reference_s": ("s", "lower"),
}
LIBRARY_LAYERS = ("oracle", "perms", "braids", "bounds", "covering")


@dataclass
class Sample:
    """One request: what it cost and whether its output checked out."""

    latency_s: float
    cpu_s: float
    maxrss_mb: float
    out_bytes: int
    error: str | None
    trace: dict | None


class Runner:
    """Spawns children from the checkout root, one at a time."""

    def __init__(self, root: str, work: str, check):
        self.root = root
        self.work = work
        self.check = check
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.count = 0
        self.setup_times: list[float] = []
        self.reference_times: list[float] = []
        self.last_calibration = 0.0

    def spawn(self, cmd: list[str], timeout: float = REQUEST_TIMEOUT_S
              ) -> tuple[int, bytes, bytes, float, os.struct_rusage]:
        """Run one child to completion: exit code (-1 if it was killed at
        ``timeout``), stdout, stderr, seconds from spawn to exit with stdout
        drained, and the child's rusage."""
        killed = threading.Event()
        with tempfile.TemporaryFile(dir=self.work) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.root)

            def kill() -> None:
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                with proc.stdout:
                    out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            elapsed = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            errors = err.read()
        code = -1 if killed.is_set() else proc.returncode
        return code, out, errors, elapsed, usage

    def bare(self, *args: str) -> float:
        rc, _, errors, elapsed, _ = self.spawn([sys.executable, *args])
        if rc != 0:
            raise RuntimeError(f"python {' '.join(args)} failed: "
                               f"{errors.decode(errors='replace')}")
        return elapsed

    def calibrate(self) -> None:
        """Time one set-up child and one isolated reference child."""
        self.setup_times.append(self.bare("-c", SETUP_CODE))
        self.reference_times.append(self.bare("-I", "-c", REFERENCE_CODE))
        self.last_calibration = time.perf_counter()

    def request(self, req: dict, traced: bool) -> Sample:
        self.count += 1
        argv = list(req["argv"])
        out_path = spans_path = None
        if req["mode"] in ("json", "json-out"):
            argv.append("--json")
        if req["mode"] in ("out", "json-out"):
            out_path = os.path.join(self.work, f"out-{self.count}.json")
            argv += ["--out", out_path]
        if traced:
            spans_path = os.path.join(self.work, f"spans-{self.count}.json")
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "trace",
                   str(self.count), spans_path, *argv]
        else:
            cmd = [sys.executable, "-m", "satgenus.cli", *argv]
        rc, out, errors, elapsed, usage = self.spawn(cmd)
        out_text = None
        if out_path and os.path.exists(out_path):
            with open(out_path) as handle:
                out_text = handle.read()
            os.unlink(out_path)
        trace = None
        if spans_path and os.path.exists(spans_path):
            with open(spans_path) as handle:
                trace = json.load(handle)
            os.unlink(spans_path)
        if rc == -1:
            error = "timed out"
        else:
            error = self.check(req, rc, out.decode(errors="replace"), out_text)
        if error and errors.strip():
            error += f" ({errors.decode(errors='replace').strip().splitlines()[-1]})"
        return Sample(elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                      len(out) + len(out_text or ""), error, trace)

    def probe(self, *args: str) -> dict:
        rc, out, errors, _, _ = self.spawn(
            [sys.executable, os.path.join(HERE, "child.py"), *args], PROBE_TIMEOUT_S)
        if rc != 0:
            reason = "timed out" if rc == -1 else errors.decode(errors="replace")
            raise RuntimeError(f"probe {' '.join(args)} failed: {reason}")
        return json.loads(out)


def run_passes(runner: Runner, reqs: list[dict], seconds: float,
               traced: bool) -> list[tuple[float, list[Sample]]]:
    """Replay the request list while another pass, as long as the last one,
    still ends within ``seconds``; at least one pass.  A pass's wall time is
    the sum of its request times, which leaves out the calibration children."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        samples = []
        for req in reqs:
            if time.perf_counter() - runner.last_calibration >= CALIBRATE_EVERY_S:
                runner.calibrate()
            samples.append(runner.request(req, traced))
        passes.append((sum(s.latency_s for s in samples), samples))
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            runner.calibrate()
            return passes


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten of ``count`` samples
    beyond it by nearest rank, or 100 (the maximum) below 20 samples."""
    return 100 if count < 20 else (100 * (count - 10)) // count


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def end_to_end(passes, setup: list[float], references: list[float]) -> tuple[dict, dict]:
    """Scaled end-to-end metrics, and the measured ones.

    The tail is taken per pass and its median reported, so the percentile
    depends on the request list alone and not on how many passes fit.
    """
    latencies = [[s.latency_s for s in samples] for _, samples in passes]
    pct = tail_percentile(len(latencies[0]))
    measured = {
        "wall_s": statistics.median(wall for wall, _ in passes),
        "latency_p50_ms": 1000 * statistics.median(x for pass_ in latencies for x in pass_),
        "latency_tail_ms": 1000 * statistics.median(nearest_rank(p, pct) for p in latencies),
        "peak_rss_mb": max(s.maxrss_mb for _, samples in passes for s in samples),
        "setup_s": statistics.median(setup),
    }
    scale = REFERENCE_S / statistics.median(references)
    metrics = {name: value * scale if name in SCALED else value
               for name, value in measured.items()}
    return metrics, measured


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [(end - start) / 1e9 for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= (end - start) / 1e9
    return own


def _first_span_median(traces: list[dict], name: str) -> float:
    """Median, over children that made the call, of its first duration."""
    firsts = []
    for trace in traces:
        for span in trace["spans"]:
            if span[0] == name:
                firsts.append((span[2] - span[1]) / 1e9)
                break
    return statistics.median(firsts) if firsts else 0.0


def _pass_layers(samples: list[Sample]) -> dict:
    totals = {f"{layer}.{what}": 0 for layer in LIBRARY_LAYERS for what in ("busy_s", "calls")}
    totals.update({"braids.letters": 0, "oracle.to_json_s": 0.0,
                   "oracle.budget_refusals": 0, "cli.main.self_s": 0.0})
    for sample in samples:
        if sample.trace is None:
            continue
        spans = sample.trace["spans"]
        for span, own in zip(spans, _self_times(spans)):
            name, start, end, _, _, error, count = span
            layer = name.split(".", 1)[0]
            if name == "cli.main":
                totals["cli.main.self_s"] += own
                continue
            if layer not in LIBRARY_LAYERS:
                continue
            totals[f"{layer}.busy_s"] += own
            totals[f"{layer}.calls"] += 1
            if layer == "braids":
                totals["braids.letters"] += count
            if name == "oracle.to_json":
                totals["oracle.to_json_s"] += (end - start) / 1e9
            if layer == "oracle" and error == "BudgetExceededError":
                totals["oracle.budget_refusals"] += 1
    return totals


def per_layer(runner: Runner, reqs: list[dict], untraced, traced) -> dict:
    traces = [s.trace for _, samples in traced for s in samples if s.trace]
    by_pass = [_pass_layers(samples) for _, samples in traced]
    metrics = {key: statistics.median(p[key] for p in by_pass) for key in by_pass[0]}
    metrics["oracle.enumerate_covers.cold_s"] = _first_span_median(
        traces, "oracle.enumerate_covers")
    metrics["perms.ore_commutator_search.cold_s"] = _first_span_median(
        traces, "perms.ore_commutator_search")
    metrics["cli.import_s"] = statistics.median(t["import_ns"] / 1e9 for t in traces)
    metrics["cli.interpreter_s"] = statistics.median(
        runner.bare("-c", "pass") for _ in range(INTERPRETER_SAMPLES))
    metrics["host.reference_s"] = statistics.median(runner.reference_times)
    metrics["cli.out_bytes"] = statistics.median(
        sum(s.out_bytes for s in samples) for _, samples in untraced)
    metrics["cli.child_cpu_s"] = statistics.median(
        sum(s.cpu_s for s in samples) for _, samples in untraced)
    metrics["trace.overhead_s"] = (statistics.median(wall for wall, _ in traced)
                                   - statistics.median(wall for wall, _ in untraced))

    # Oracle probes, once per distinct (g, n) of the workload's requests.
    cases: dict[tuple[int, int], bool] = {}
    for req in reqs:
        if req["kind"] == "cover-enumerate":
            key = (req["params"]["g"], req["params"]["n"])
            cases[key] = cases.get(key, False) or req["params"]["sharp"]
    warm = [runner.probe("warm", str(g), str(n), str(int(sharp)))
            for (g, n), sharp in sorted(cases.items())]
    enumerate_s = sum(w["enumerate_warm_s"] for w in warm)
    tuples = sum(w["tuples"] for w in warm)
    metrics["oracle.enumerate_covers.warm_s"] = enumerate_s
    metrics["oracle.verify_sharpness.warm_s"] = sum(w.get("sharpness_warm_s", 0.0) for w in warm)
    metrics["oracle.tuples"] = tuples
    metrics["oracle.tuples_per_s"] = tuples / enumerate_s if enumerate_s else 0.0
    metrics["oracle.cold_heap_peak_mb"] = max(
        (runner.probe("heap", str(g), str(n))["heap_peak_mb"] for g, n in sorted(cases)),
        default=0.0)
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "satgenus", "cli.py")):
        print("error: run from the root of a satgenus checkout; src/satgenus/cli.py is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from checks import check

    reqs = workloads.generate(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work:
        runner = Runner(root, work, check)
        try:
            runner.calibrate()
            if args.trace:
                untraced = run_passes(runner, reqs, args.seconds / 2, traced=False)
                traced = run_passes(runner, reqs, args.seconds / 2, traced=True)
                metrics = per_layer(runner, reqs, untraced, traced)
                table, all_passes = PER_LAYER, untraced + traced
            else:
                all_passes = run_passes(runner, reqs, args.seconds, traced=False)
                metrics, measured = end_to_end(all_passes, runner.setup_times,
                                               runner.reference_times)
                table = END_TO_END
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    samples = [s for _, pass_samples in all_passes for s in pass_samples]
    failed = [s.error for s in samples if s.error]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests/pass {len(reqs)}  passes {len(all_passes)}  "
          f"request digest {workloads.digest(reqs)}")
    for name, (unit, better) in table.items():
        line = f"  {name:<36} {metrics[name]:>16.6f} {unit:<6} ({better} is better)"
        if not args.trace and name in SCALED:
            line += f"  measured {measured[name]:.6f}"
        print(line)
    if not args.trace:
        reference = statistics.median(runner.reference_times)
        print(f"  times scaled by {REFERENCE_S} / {reference:.6f}, the median of "
              f"{len(runner.reference_times)} reference children; setup_s is the median of "
              f"{len(runner.setup_times)} set-up children")
        print(f"  latency_tail_ms is the median over {len(all_passes)} passes of p"
              f"{tail_percentile(len(reqs))} of the pass's {len(reqs)} samples")
    print(f"  failed_ratio {len(failed) / len(samples):.6f} ({len(failed)} of {len(samples)})")
    for error in sorted(set(failed)):
        print(f"  failure: {error}")
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
