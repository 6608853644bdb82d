"""Fixed-work benchmark of the TTP solver.

    python3 perfbench/run.py --workload anneal-c --seed 1 --seconds 30 --trace 0

Generates the workload's instances from the seed, sets up the program
several times in fresh processes, then repeats the workload's fixed work in
whole rounds for ``--seconds`` in one worker process.  Every output is
checked by ``check.py``, which is kept apart from the program.  The last line
of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median, median_low

import check
import corpus

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUPS = 5  # timed set-ups per run, after one untimed warm-up
# solve_s is in seconds on a host where worker.reference() takes this long:
# each stretch of work is scaled by the reference measured beside it, which
# removes most of the host's speed swings (see README.md)
REF_S = 0.010
# far above any run, so the solver's deadline never decides its work
TIME_BUDGET = 1e6
WORKER_TIMEOUT_S = 150  # a run must end within 180 s

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass(frozen=True)
class Workload:
    category: str
    n: int
    instances: int  # distinct instances per round, each made from the seed
    tiny_n: int  # size used by --tiny, for tests
    solver: dict = field(default_factory=dict)  # SolverConfig fields; empty: construction only


# sa_t0 is low, so that each SA call descends to a local optimum and the
# restart's improve loop (SA, then 2-OPT, while the gain rises) ends after 2
# to 5 SA calls; at sa_t0=100 it took 9 to 17 calls on equal-sized instances
SOLVER = dict(max_restarts=1, sa_t0=1.0, sa_iters_per_temp=240, sa_cooling=0.5)

WORKLOADS = {
    "anneal-c": Workload("C", 80, 18, 12, SOLVER),
    "twoopt-a": Workload("A", 80, 60, 20, SOLVER),
    "construct-b": Workload("B", 2500, 1, 60),
}


def run_worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(c: corpus.Corpus, wl: Workload, nbrs, res: dict) -> list[str]:
    failures = check.check_solution(c, res["tour"], res["packing"], res["gain"])
    if failures:
        return failures
    if wl.solver:
        if res["restarts"] != wl.solver["max_restarts"] or res["wall_time"] >= TIME_BUDGET:
            failures.append(f"solve ran {res['restarts']} restarts in {res['wall_time']} s")
        return failures + check.check_two_opt(c, nbrs, res["tour"], res["packing"])
    return check.check_construct(c, res["tour"], res["packing"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small instances, for tests")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    n = wl.tiny_n if args.tiny else wl.n
    corpora = [corpus.generate(wl.category, n, args.seed * 1000 + k) for k in range(wl.instances)]
    OUT.mkdir(exist_ok=True)
    paths = []
    for k, c in enumerate(corpora):
        path = OUT / f"{args.workload}-{k}.ttp"
        path.write_text(c.text)
        paths.append(str(path))

    setups = [run_worker("setup", *paths) for _ in range(SETUPS + 1)][1:]

    spec = {
        "instances": paths,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "solver": dict(wl.solver, time_budget=TIME_BUDGET) if wl.solver else None,
    }
    spec_path = OUT / f"{args.workload}-spec.json"
    spec_path.write_text(json.dumps(spec))
    work = run_worker("rounds", str(spec_path))
    rounds = work["rounds"]

    nbrs = [check.delaunay_neighbours(c) if wl.solver else None for c in corpora]
    attempted = failed = 0
    for i, r in enumerate(rounds):
        for k, res in enumerate(r["results"]):
            attempted += 1
            failures = check_result(corpora[k], wl, nbrs[k], res)
            if failures:
                failed += 1
                print(f"round {i} instance {k}: {'; '.join(failures)}", file=sys.stderr)
    # fixed work gives the same output every round
    first = [(res["gain"], res["tour"], res["packing"]) for res in rounds[0]["results"]]
    correct = all([(res["gain"], res["tour"], res["packing"]) for res in r["results"]] == first
                  for r in rounds)

    def scaled(r):
        return r["ref_units"] * REF_S

    untraced = [scaled(r) for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        # counts repeat exactly; median_low keeps them whole numbers
        metrics = {name: median_low([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        metrics["package.import_s"] = median([s["import_s"] for s in setups])
        metrics["instance.parse_s"] = median([s["parse_s"] for s in setups])
        metrics["trace.overhead"] = median([scaled(r) for r in traced]) / median(untraced)
        metrics["host.ref_ms"] = 1e3 * median([r["ref_s"] for r in rounds])
    else:
        metrics = {
            "solve_s": median(untraced),
            "gain": fmean(res["gain"] for res in rounds[0]["results"]),
            "setup_s": median([s["import_s"] + s["parse_s"] for s in setups]),
            "peak_rss_mb": work["peak_rss_mb"],
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
