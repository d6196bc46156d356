"""Steadiness check: two sets of runs of each workload, compared.

    python3 bench/steady.py [--runs 10] [--seconds S]

For every workload of BENCHMARK.json, set 1 runs ``bench/run.py`` once
per seed 1..runs and set 2 once per seed runs+1..2*runs, one run at a
time.  For every end-to-end metric it prints each set's median and
quartiles and the spread (q3 - q1) / median, and checks that:

- every run is correct and has 0 failed ops;
- the spread of each set is within the metric's bound, except for
  ``setup_s``: a median of a few ~50 ms fresh imports, whose spread
  follows the machine's speed over seconds, so it is held to the
  agreement of the two medians alone;
- the two sets' medians differ by at most the bound, either way.

The report is also written to bench/out/steady-<time>.json.  Exit code
0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 2)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    ok = True
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[one_run(workload, seed, args.seconds) for seed in range(first, first + args.runs)]
                for first in (1, 1 + args.runs)]
        every = sets[0] + sets[1]
        clean = all(r["correct"] and r["failed"] == 0 for r in every)
        ok &= clean
        failed = sum(r["failed"] for r in every)
        print(f"\n{workload}: correct={all(r['correct'] for r in every)} failed ops={failed}")
        report[workload] = {"clean": clean, "failed": failed, "metrics": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sums = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            spread_ok = name == "setup_s" or all(s["spread"] <= bound for s in sums)
            a, b = sums[0]["median"], sums[1]["median"]
            change = (b - a) / a
            agree = spread_ok and abs(change) <= bound
            ok &= agree
            cells = "  ".join(f"med {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                              f"spread {s['spread']:.3f}" for s in sums)
            print(f"  {name:18s} {cells}  change {change:+.3f}  bound {bound}  "
                  f"{'ok' if agree else 'FAIL'}")
            report[workload]["metrics"][name] = {"sets": sums, "change": change,
                                                 "bound": bound, "ok": agree}
    out = BENCH / "out" / time.strftime("steady-%Y%m%d-%H%M%S.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"\n{'steady' if ok else 'NOT steady'}; report in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
