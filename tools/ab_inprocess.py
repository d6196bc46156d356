"""Time one benchmark workload on a parent commit and on the working tree,
op by op, in one interpreter.

    python3 tools/ab_inprocess.py --parent SHA --workload large_r --rounds 1000 --seed 1

Run from the root of a git checkout.  `git archive PARENT src/charvar` is
unpacked into a temporary directory and imported as the package
`cv_parent`, beside `charvar` from this checkout's `src/`; charvar uses
only relative imports, so the two keep separate modules and caches.  Both
sides build the same round of ops with `bench/workloads.build`, and their
answers are checked with `bench/checks`, as `bench/run.py` does: in the
warm-up and in every round, or in every Nth round with `--check-every N`
(a local-model check reads a million degrees).  In each round each op
runs once per side, from cold caches after `gc.collect()`; the side that
runs first alternates from round to round, so drift hits both alike.
`cli` ops run in process through `cli.run`, which does not see process
start: `bench/run.py` measures that.

One JSON object goes to stdout: per-op and per-round medians
and quartiles in microseconds, how many rounds the working tree won, and
a two-sided sign-test p-value.  A wrong answer or an exception on either
side stops the run with exit 1.  This is a tool for evidence files; it is
not part of the tests or of the benchmark's gates.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import pkgutil
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARENT_NAME = "cv_parent"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def load(name: str, parent_dir: Path):
    """Import package `name` from `parent_dir` and all its modules."""
    sys.path.insert(0, str(parent_dir))
    package = importlib.import_module(name)
    if Path(package.__file__).resolve().parent != (parent_dir / name).resolve():
        raise SystemExit(f"error: {name} was imported from {package.__file__}")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{name}.{info.name}")
    return package


def unpack_parent(sha: str, into: Path) -> Path:
    """`src/charvar` of commit `sha`, unpacked as `into/cv_parent`."""
    archive = subprocess.run(["git", "archive", sha, "src/charvar"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    (into / "src" / "charvar").rename(into / PARENT_NAME)
    return into


def caches_of(name: str) -> list:
    """Every functools cache bound at module level in package `name`."""
    # mirrors bench/run.py:find_caches, the benchmark's cold-cache rule; keep the two in step
    caches = {}
    for module_name, module in list(sys.modules.items()):
        if module_name == name or module_name.startswith(name + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


class Side:
    """One version: its ops, its caches and its timings, op by op."""

    def __init__(self, label, package, workload, seed, workloads):
        self.label = label
        self.caches = caches_of(package.__name__)
        self.ops = workloads.build(workload, seed, package, self.clear, ROOT, in_process=True)
        self.times: list[list[float]] = [[] for _ in self.ops]

    def clear(self) -> None:
        for cache in self.caches:
            cache.cache_clear()

    def run(self, i: int, record: bool, check: bool = True) -> None:
        op = self.ops[i]
        self.clear()
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:
            raise SystemExit(f"error: {self.label}: {op.name} raised {exc!r}") from None
        dt = time.perf_counter() - t0
        try:
            if check:
                op.check(result)
        except Exception as exc:
            raise SystemExit(f"error: {self.label}: wrong answer: {op.name}: {exc}") from None
        if record:
            self.times[i].append(dt)


def quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return {"median": round(median * 1e6, 3), "q1": round(q1 * 1e6, 3), "q3": round(q3 * 1e6, 3)}


def sign_test(wins: int, n: int) -> float:
    """Two-sided p-value of `wins` of `n` rounds under a fair coin."""
    tail = min(wins, n - wins)
    p = 2 * sum(math.comb(n, k) for k in range(tail + 1)) / 2**n
    return min(1.0, p)


def compare(parent: list[float], change: list[float]) -> dict:
    wins = sum(c < p for p, c in zip(parent, change))
    p_median, c_median = statistics.median(parent), statistics.median(change)
    return {"parent_us": quartiles(parent), "change_us": quartiles(change),
            "change_pct": round(100 * (c_median - p_median) / p_median, 1),
            "change_wins": wins, "rounds": len(parent),
            "sign_test_p": float(f"{sign_test(wins, len(parent)):.3g}")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--workload", required=True, choices=("cli", "tables", "large_r"))
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--check-every", type=int, default=1, metavar="N",
                        help="check the answers of every Nth round (the warm-up always)")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    if args.check_every < 1:
        parser.error("--check-every must be at least 1")

    parent_sha = git("rev-parse", args.parent).strip()
    head = git("rev-parse", "HEAD").strip()
    dirty = bool(git("status", "--porcelain", "src/charvar").strip())
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        parent_pkg = load(PARENT_NAME, unpack_parent(parent_sha, Path(tmp)))
        change_pkg = load("charvar", ROOT / "src")
        sides = [Side("parent", parent_pkg, args.workload, args.seed, workloads),
                 Side("change", change_pkg, args.workload, args.seed, workloads)]
        names = [op.name for op in sides[0].ops]
        if names != [op.name for op in sides[1].ops]:
            raise SystemExit("error: the two sides built different rounds")
        for side in sides:  # warm-up: the expected answers are computed here
            for i in range(len(names)):
                side.run(i, record=False)
        for round_ in range(args.rounds):
            order = sides if round_ % 2 == 0 else sides[::-1]
            check = round_ % args.check_every == 0
            for i in range(len(names)):
                for side in order:
                    side.run(i, record=True, check=check)

    parent, change = sides
    per_round = [[sum(ts) for ts in zip(*side.times)] for side in sides]
    report = {
        "what": f"in-process A/B of bench workload {args.workload}, op by op from cold caches",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "parent_sha": parent_sha,
        "change": head + (" plus uncommitted src/charvar changes" if dirty else ""),
        "seed": args.seed,
        "rounds": args.rounds,
        "checked_every": args.check_every,
        "order": "each op runs on both sides in turn; even rounds run the parent first",
        "quartiles": "statistics.quantiles(n=4), exclusive method, over the rounds",
        "round": compare(*per_round),
        "ops": {name: compare(p, c) for name, p, c in zip(names, parent.times, change.times)},
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
