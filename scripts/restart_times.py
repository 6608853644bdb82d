"""Per-restart CPU seconds of a multi-restart solve on generated instances.

    python3 scripts/restart_times.py

Each instance (A n=200, A n=1000, C n=200, B n=500) comes from
``perfbench/corpus.py`` (instance seed 1000) and is solved once with
``max_restarts=3``, solver seed 1, a deadline that never binds, and the
solver settings of the benchmark's workloads (``perfbench/run.py``).
Restart 2 starts from a uniformly random tour, so its packed 2-OPT descent
starts from scratch; no benchmark workload runs it, as every workload sets
``max_restarts=1``.

A restart's column runs from its state build to the next restart's, and the
last one to the end of the solve, so restart 0's column also holds restart
1's nearest-neighbour walk.  Prints one Markdown row per instance: the CPU
seconds of each restart, the largest ``two_opt_improve`` call, the gain each
restart reached, and the whole solve.  The gains do not depend on the host;
the seconds do, so compare them within one run of the script.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402
import run  # noqa: E402
import ttp.solver as solver_mod  # noqa: E402
from ttp.instance import parse_instance  # noqa: E402
from ttp.solver import SolverConfig, solve  # noqa: E402
from ttp.tour import load_triangulation  # noqa: E402

INSTANCE_SEED = 1000
RESTARTS = 3
INSTANCES = (("A", 200), ("A", 1000), ("C", 200), ("B", 500))


def restart_times(category: str, n: int) -> tuple[list[float], float, list[float], float]:
    """(CPU seconds per restart, largest 2-OPT call, gain per restart, whole
    solve) of one solve of the corpus instance."""
    inst = parse_instance(corpus.generate(category, n, INSTANCE_SEED).text)
    builds, descents = [], []
    build, improve = solver_mod.build_prefix_cache, solver_mod.two_opt_improve

    def timed_build(*args):
        builds.append(time.process_time())
        return build(*args)

    def timed_improve(*args):
        start = time.process_time()
        improve(*args)
        descents.append(time.process_time() - start)

    solver_mod.build_prefix_cache, solver_mod.two_opt_improve = timed_build, timed_improve
    try:
        start = time.process_time()
        config = {**run.SOLVER, "max_restarts": RESTARTS}
        record = solve(inst, SolverConfig(time_budget=run.TIME_BUDGET, seed=1, **config))
        end = time.process_time()
    finally:
        solver_mod.build_prefix_cache, solver_mod.two_opt_improve = build, improve
    columns = [later - earlier for earlier, later in zip(builds, builds[1:] + [end])]
    return columns, max(descents), record.trace, end - start


def main() -> int:
    load_triangulation()  # scipy's import, outside every solve
    heads = " | ".join(f"restart {k}" for k in range(RESTARTS))
    print(f"| instance | {heads} | largest 2-OPT call | gains | solve |")
    print("|---" * (RESTARTS + 4) + "|")
    for category, n in INSTANCES:
        columns, descent, gains, total = restart_times(category, n)
        cells = " | ".join(f"{s:.2f}" for s in columns)
        print(f"| {category}, n={n} | {cells} | {descent:.2f} | {', '.join(repr(g) for g in gains)} | {total:.2f} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
