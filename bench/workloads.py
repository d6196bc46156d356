"""The benchmark's workloads: seeded inputs, the ops that run them, and
the expected answers each op is checked against.

An op is one timed unit of work.  ``build`` turns a workload name and a
seed into one round of ops; the harness repeats whole rounds.  ``build``
draws only the inputs: each expected answer is computed on its op's first
check, so the set-up time holds no work of the benchmark's own.
"""

from __future__ import annotations

import functools
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import oracle


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


# Every rank of the range would take 8.5 s a round; every second rank keeps
# the same spread of sizes at about 5 s.  The ranks are fixed, not drawn: a
# table op's cost grows about as rank^4, so the median op of a drawn mix
# moved by ~20% from seed to seed (simulated from measured costs).
TABLE_RANKS = range(8, 25, 2)
EXCEPTIONAL = [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
# G2 alone takes ~0.6 ms, below the timer and GC noise: one op is 4 of them.
TABLE_BATCH = {("G", 2): 4}

# good_locus_homotopy queries whose torsion grows with r: (group, k, r range).
# Ranges are narrow because the cost is quadratic in r.
GOOD_LOCUS = [
    ("G2", 6, (1900, 1960)),
    ("G2", 9, (1400, 1440)),
    ("G2", 14, (620, 640)),
    ("F4", 8, (1900, 1960)),
    ("F4", 11, (1900, 1960)),
    ("C6[ad]", 1, (1900, 1960)),
    ("C6[ad]", 4, (1900, 1960)),
    ("B6", 8, (1900, 1960)),
    ("B6", 9, (1900, 1960)),
    ("T^2 x E6[ad]", 1, (1900, 1960)),
]
# local-model queries: (type, node); r is chosen so that M falls in
# LOCAL_M.  homology_support holds 2M+2 ints, so M sets the peak RSS.
LOCAL_MODEL = [("A3", 1), ("G2", 1), ("A4", 2), ("B3", 3)]
LOCAL_M = (270_000, 290_000)

CLI_TYPES = ["E6", "E7", "E8", "F4", "G2"]
CLI_FACTORS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5",
               "G2", "F4", "E6", "E7", "E8"]
CLI_FORMATS = ("text", "json", "csv")


def _later(fn, *args):
    """A thunk of fn(*args), computed on its first call and then kept."""
    return functools.cache(functools.partial(fn, *args))


def _homotopy_facts(torus: int, factors, r: int, k: int, db) -> dict:
    """checks.expected_homotopy with the database thunk ``db`` loaded."""
    return checks.expected_homotopy(torus, factors, r, k, db())


def _pair(name: str) -> tuple[str, int]:
    return name[0], int(name[1:])


def parse_spec(spec: str) -> tuple[int, list[tuple[str, int, bool]]]:
    """'T^2 x E6[ad] x G2' to (torus rank, [(family, rank, adjoint)])."""
    torus, factors = 0, []
    for term in spec.split(" x "):
        if term.startswith("T^"):
            torus = int(term[2:])
        else:
            name, _, iso = term.partition("[")
            factors.append((name[0], int(name[1:]), iso == "ad]"))
    return torus, factors


def _random_group(rng: random.Random, pool: list[str], max_rank: int = 8) -> str:
    terms = [f"T^{rng.randint(1, 2)}"] if rng.random() < 0.5 else []
    rank = 0
    for _ in range(rng.randint(1, 2)):
        name = rng.choice([n for n in pool if int(n[1:]) <= max_rank - rank])
        rank += int(name[1:])
        terms.append(f"{name}[{rng.choice(('sc', 'ad'))}]")
        if rank >= max_rank - 1:
            break
    return " x ".join(terms)


# ---------------------------------------------------------------------------
# tables

def _tables_ops(charvar, clear) -> list[Op]:
    subalg, SimpleType = charvar.subalg, charvar.rootsys.SimpleType
    types = [(f, n) for f in "ABCD" for n in TABLE_RANKS] + EXCEPTIONAL
    ops = []
    for family, n in types:
        t = SimpleType(family, n)
        batch = TABLE_BATCH.get((family, n), 1)

        def run(t=t, batch=batch):
            for i in range(batch):
                if i:
                    clear()
                out = (subalg.levi_table(t), subalg.min_levi_codim(t),
                       subalg.bds_table(t), subalg.min_bds_codim(t))
            return out

        def check(result, family=family, n=n):
            checks.check_tables(family, n, result)

        ops.append(Op(f"tables {family}{n}" + (f" x{batch}" if batch > 1 else ""), run, check))
    return ops


# ---------------------------------------------------------------------------
# large_r

def _large_r_ops(charvar, rng: random.Random, db) -> list[Op]:
    homotopy, groups, localmodel = charvar.homotopy, charvar.groups, charvar.localmodel
    SimpleType = charvar.rootsys.SimpleType
    ops = []
    for spec, k, (lo, hi) in GOOD_LOCUS:
        r = rng.randint(lo, hi)
        torus, factors = parse_spec(spec)
        want = _later(_homotopy_facts, torus, factors, r, k, db)
        what = f"good_locus {spec} r={r} k={k}"

        def run(spec=spec, r=r, k=k):
            return homotopy.good_locus_homotopy(groups.parse_group(spec), r, k)

        def check(result, want=want, what=what):
            checks.check_good_locus(want(), result, what)

        ops.append(Op(what, run, check))
    for name, node in LOCAL_MODEL:
        family, n = _pair(name)
        count = oracle.levi_root_count(family, n, node)
        r = rng.randint(*LOCAL_M) // count + 1
        want_M = _later(checks.expected_local_model, family, n, node, r)
        what = f"local_model {name} i={node} r={r}"

        def run(name=name, node=node, r=r):
            w = localmodel.parabolic_weights(SimpleType.parse(name), node, r)
            m = w.positive_weight_total() - 1
            return w, m, localmodel.homology_support(m)

        def check(result, want_M=want_M, what=what):
            checks.check_local_model(want_M(), result, what)

        ops.append(Op(what, run, check))
    return ops


# ---------------------------------------------------------------------------
# cli

def _roots_facts(family: str, n: int) -> dict:
    return {"positive_roots": oracle.positive_root_count(family, n),
            "dimension": oracle.dim(family, n), "marks": oracle.marks(family, n)}


def _local_model_facts(family: str, n: int, node: int, r: int) -> dict:
    m = checks.expected_local_model(family, n, node, r)
    return {"M": m, "singular": m >= 1, "sphere_like": m == 0}


def _codim_facts(factors, r: int) -> dict:
    ranks = [n for _, n, _ in factors]
    bad, red = 2 * (r - 1) * min(ranks), (r - 1) * sum(ranks)
    c = 2 * min(bad, red)
    return {"bounds": (r, bad, red, c, c - 2), "lower_bound": True}


def _ci_facts(factors) -> dict:
    return {"ci": all(f == "A" and not adj for f, _, adj in factors)}


def _singular_locus_facts(factors, r: int) -> dict:
    rank1 = min(n for _, n, _ in factors) < 2
    return {"verdict": "Undetermined_r2_rank1" if r < 3 and rank1 else "FullClassification"}


def _cli_homotopy_facts(torus: int, factors, r: int, k: int, db) -> dict:
    h = _homotopy_facts(torus, factors, r, k, db)
    return {"value": h, "validity": h["validity"]}


CLI_GROUP_FACTS = {"codim": _codim_facts, "ci": _ci_facts, "singular-locus": _singular_locus_facts}
CLI_TYPE_FACTS = {"table-levi": checks.expected_levi, "table-bds": checks.expected_bds,
                  "roots": _roots_facts}


def _cli_queries(rng: random.Random, db) -> list[tuple[str, list[str], Callable[[], dict]]]:
    """One (command, arguments, thunk of the expected facts) per subcommand."""
    out = []
    for command, facts in CLI_TYPE_FACTS.items():
        family, n = _pair(rng.choice(CLI_TYPES))
        out.append((command, [f"{family}{n}"], _later(facts, family, n)))

    name = rng.choice(CLI_TYPES)
    family, n = _pair(name)
    node, r = rng.randint(1, n), rng.choice((2, 3))
    out.append(("local-model", [name, "-i", str(node), "-r", str(r)],
                _later(_local_model_facts, family, n, node, r)))

    for command, facts in CLI_GROUP_FACTS.items():
        spec, r = _random_group(rng, CLI_FACTORS), rng.choice((2, 3))
        _, factors = parse_spec(spec)
        if command == "ci":
            out.append((command, [spec], _later(facts, factors)))
        else:
            out.append((command, [spec, "-r", str(r)], _later(facts, factors, r)))

    spec = _random_group(rng, CLI_TYPES)
    torus, factors = parse_spec(spec)
    r, k = rng.choice((2, 3)), rng.randint(1, 9)
    out.append(("homotopy", [spec, "-r", str(r), "-k", str(k)],
                _later(_cli_homotopy_facts, torus, factors, r, k, db)))
    return out


def child_env(root: Path) -> dict:
    """Environment of a charvar child: the checkout's src/ first, the default database."""
    env = {k: v for k, v in os.environ.items() if k != "CHARVAR_DB"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def _cli_ops(charvar, rng: random.Random, db, root: Path, in_process: bool) -> list[Op]:
    env = child_env(root)
    ops = []
    for command, args, want in _cli_queries(rng, db):
        for fmt in CLI_FORMATS:
            argv = [command, *args, "--format", fmt]
            if in_process:
                def run(argv=argv):
                    out = io.StringIO()
                    code = charvar.cli.run(argv, out=out, err=io.StringIO())
                    return code, out.getvalue()
            else:
                def run(argv=argv):
                    proc = subprocess.run([sys.executable, "-m", "charvar.cli", *argv],
                                          env=env, cwd=root, capture_output=True,
                                          text=True, timeout=120)
                    return proc.returncode, proc.stdout

            def check(result, command=command, fmt=fmt, want=want):
                checks.check_cli(command, fmt, want(), *result)

            ops.append(Op("charvar " + " ".join(argv), run, check))
    return ops


WORKLOADS = ("cli", "tables", "large_r")


def build(workload: str, seed: int, charvar, clear, root: Path, in_process: bool) -> list[Op]:
    """One round of ops.  ``charvar`` is the imported package; ``clear``
    empties its caches; ``in_process`` runs cli ops through ``cli.run``."""
    rng = random.Random(seed)
    db = _later(oracle.load_pi_table, root / "src" / "charvar" / "data" / "pi_exceptional.txt")
    if workload == "tables":
        ops = _tables_ops(charvar, clear)
    elif workload == "large_r":
        ops = _large_r_ops(charvar, rng, db)
    else:
        os.environ.pop("CHARVAR_DB", None)
        ops = _cli_ops(charvar, rng, db, root, in_process)
    rng.shuffle(ops)
    return ops
