"""Run one benchmark workload of charvar and print its metrics.

    python3 bench/run.py --workload {cli,tables,large_r} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: charvar is imported from
``src/`` beside this directory.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, and the spans are written to
``bench/out/trace-<workload>-<seed>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pkgutil
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# A run is whole rounds, at least this many ops, so a tail can be reported.
MIN_OPS = 40
# The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
FRESH_IMPORTS = 7


def load_charvar():
    """Import charvar and all its modules from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "charvar" / "__init__.py").is_file():
        raise SystemExit(f"error: no charvar sources under {src}")
    sys.path.insert(0, str(src))
    import charvar

    if Path(charvar.__file__).resolve().parent != (src / "charvar").resolve():
        raise SystemExit(f"error: charvar was imported from {charvar.__file__}, not {src}")
    for info in pkgutil.iter_modules(charvar.__path__):
        importlib.import_module(f"charvar.{info.name}")
    return charvar


def charvar_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "charvar" or name.startswith("charvar.")]


def find_caches() -> list:
    """Every functools cache bound at module level anywhere in charvar."""
    caches = {}
    for module in charvar_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                caches[id(value)] = value
    return list(caches.values())


def fresh_import_s() -> float:
    """Median in-process time of `import charvar` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import charvar; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(FRESH_IMPORTS):
        out = subprocess.run([sys.executable, "-c", code], env=workloads.child_env(ROOT), cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def cli_import_ms() -> float:
    """Wall time of `import charvar.cli` in a fresh interpreter, less a bare one.

    Bare and importing interpreters alternate, so drift hits both alike.
    """
    times: dict[str, list[float]] = {"pass": [], "import charvar.cli": []}
    for _ in range(FRESH_IMPORTS):
        for code, samples in times.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=workloads.child_env(ROOT), cwd=ROOT,
                           check=True, timeout=120)
            samples.append(time.perf_counter() - t0)
    return (statistics.median(times["import charvar.cli"]) - statistics.median(times["pass"])) * 1000


class Loop:
    """Closed loop over whole rounds of ops from cold caches.

    An op that raises or gives a wrong answer makes the run incorrect,
    counts in ``failed`` when timed, and adds no latency.
    """

    def __init__(self, ops, caches):
        self.ops, self.caches = ops, caches
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def clear(self) -> None:
        for cache in self.caches:
            cache.cache_clear()

    def one(self, op, record: bool) -> None:
        self.clear()
        gc.collect()
        self.attempted += record
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # a fault of the program
            print(f"failed: {op.name}\n{traceback.format_exc()}", file=sys.stderr)
            self.fail(record)
            return
        dt = time.perf_counter() - t0
        try:
            op.check(result)
        except Exception as exc:  # checks.CheckError, or an unreadable answer
            print(f"wrong answer: {op.name}: {exc}", file=sys.stderr)
            self.fail(record)
            return
        del result
        if record:
            self.latencies.append(dt)

    def fail(self, record: bool) -> None:
        self.wrong += 1
        self.failed += record

    def warm_up(self) -> None:
        for op in self.ops:
            self.one(op, record=False)

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or self.attempted < MIN_OPS:
            for op in self.ops:
                self.one(op, record=True)


def end_to_end(loop: Loop, setup_s: float, workload: str) -> dict:
    lat = sorted(loop.latencies)
    if workload == "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_tail_ms": (lat[-TAIL_BEYOND - 1] * 1000, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    charvar = load_charvar()
    loop = Loop([], find_caches())
    t0 = time.perf_counter()
    loop.ops = workloads.build(args.workload, args.seed, charvar, loop.clear, ROOT,
                               in_process=bool(args.trace))
    build_s = time.perf_counter() - t0
    setup_s = fresh_import_s() + build_s

    loop.warm_up()
    if args.trace:
        import tracer

        metrics = tracer.traced_run(loop, args.seconds, charvar_modules(),
                                    OUT / f"trace-{args.workload}-{args.seed}.json",
                                    cli_import_ms)
    else:
        loop.measure(args.seconds)
        if not loop.latencies:
            raise SystemExit("error: every timed op failed")
        metrics = end_to_end(loop, setup_s, args.workload)
    result = {
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
