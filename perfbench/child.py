"""In-process measurements, each in a fresh child of run.py.

    python perfbench/child.py trace REQUEST_ID SPANS_FILE ARG...
        Import satgenus.cli, wrap the public library functions it calls,
        run ``satgenus.cli.main(ARG...)`` and write the spans to SPANS_FILE.
        Stdout and the exit code are the CLI's own.
    python perfbench/child.py warm G N SHARP
        Call enumerate_covers(G, N) once cold, then time repeats; likewise
        verify_sharpness when SHARP is 1.  Prints one JSON object.
    python perfbench/child.py heap G N
        Peak traced heap of one cold enumerate_covers(G, N) call.

A span is ``[name, start_ns, end_ns, parent, request_id, error, count]``:
``parent`` indexes the enclosing span (-1 for none), ``error`` names an
exception that left the call, and ``count`` holds letters built for braid
words.  Spans stay in memory until the CLI returns.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

WARM_REPEATS = 3


class Tracer:
    """Records nested spans around wrapped calls."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0,
                    self._stack[-1] if self._stack else -1, self.request_id, None, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
                span[2] = time.perf_counter_ns()
            if count is not None:
                span[6] = count(result)
            return result
        return wrapper

    def install(self) -> None:
        """Patch the names satgenus.cli calls through.

        cli binds the braids, covering, oracle and perms helpers by name, so
        its own bindings are replaced; bounds is reached as a module and
        ore_commutator_search is imported from perms at call time.
        """
        import satgenus.bounds as bounds
        import satgenus.cli as cli
        import satgenus.oracle as oracle
        import satgenus.perms as perms
        from satgenus.braids import BraidWord

        def letters(result):
            return len(result.letters) if isinstance(result, BraidWord) else 0

        for name, obj in list(vars(cli).items()):
            module = getattr(obj, "__module__", "") or ""
            if name.startswith("_") or not callable(obj) or not module.startswith("satgenus."):
                continue
            if module == "satgenus.cli" or (isinstance(obj, type) and issubclass(obj, BaseException)):
                continue
            layer = module.rsplit(".", 1)[1]
            setattr(cli, name, self.wrap(f"{layer}.{name}", obj,
                                         letters if layer == "braids" else None))
        for name, obj in list(vars(bounds).items()):
            if not name.startswith("_") and callable(obj) and not isinstance(obj, type) \
                    and getattr(obj, "__module__", "") == "satgenus.bounds":
                setattr(bounds, name, self.wrap(f"bounds.{name}", obj))
        perms.ore_commutator_search = self.wrap(
            "perms.ore_commutator_search", perms.ore_commutator_search)
        for module, layer in ((oracle, "oracle"), (bounds, "bounds")):
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__ == module.__name__ \
                        and "to_json" in vars(cls):
                    cls.to_json = self.wrap(f"{layer}.to_json", cls.to_json)


def trace(request_id: int, spans_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter_ns()
    import satgenus.cli as cli
    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer(request_id)
    tracer.install()
    code: int | str | None = 1
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as handle:
            json.dump({"import_ns": import_ns, "spans": tracer.spans}, handle)
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def warm(g: int, n: int, sharp: bool) -> dict:
    from satgenus.oracle import enumerate_covers, verify_sharpness

    def repeat(fn) -> tuple[float, object]:
        report = fn(g, n)
        times = []
        for _ in range(WARM_REPEATS):
            t0 = time.perf_counter()
            report = fn(g, n)
            times.append(time.perf_counter() - t0)
        return statistics.median(times), report

    warm_s, report = repeat(enumerate_covers)
    result = {"enumerate_warm_s": warm_s, "tuples": report.total_tuples}
    if sharp:
        result["sharpness_warm_s"] = repeat(verify_sharpness)[0]
    return result


def heap(g: int, n: int) -> dict:
    import tracemalloc

    from satgenus.oracle import enumerate_covers

    tracemalloc.start()
    enumerate_covers(g, n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"heap_peak_mb": peak / 2**20}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "trace":
        return trace(int(argv[1]), argv[2], argv[3:])
    if mode == "warm":
        print(json.dumps(warm(int(argv[1]), int(argv[2]), argv[3] == "1")))
        return 0
    if mode == "heap":
        print(json.dumps(heap(int(argv[1]), int(argv[2]))))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
