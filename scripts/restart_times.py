"""Per-restart CPU seconds of a multi-restart solve on generated instances,
split by stage.

    python3 scripts/restart_times.py

Each instance (A n=200, A n=1000, C n=200, C n=1000, B n=500) comes from
``perfbench/corpus.py`` (instance seed 1000) and is solved once with
``max_restarts=3``, solver seed 1, a deadline that never binds, and the
solver settings of the benchmark's workloads (``perfbench/run.py``).
Restart 2 starts from a uniformly random tour, so its packed 2-OPT descent
starts from scratch; no benchmark workload runs it, as every workload sets
``max_restarts=1``.

Prints one Markdown row per restart: the CPU seconds of its stages (the
nearest-neighbour walk, the empty-knapsack length descent, the packed
descents after the plan, the plan, and simulated annealing), of the rest of
the restart (``other``: its state build and the solver's own work), and the
gain it reached.  A restart runs from its nearest-neighbour walk, or from its
state build when it has none, to the next restart's start.  A row ``all``
per instance sums each stage over the restarts; its ``other`` holds the rest
of the whole solve (the candidate table too), and its last cell the whole
solve's seconds.  The gains do not depend on the host; the seconds do, so
compare them within one run of the script.
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
INSTANCES = (("A", 200), ("A", 1000), ("C", 200), ("C", 1000), ("B", 500))
STAGES = ("NN walk", "length descent", "packed descents", "plan", "SA")


def restart_stages(category: str, n: int) -> tuple[list[dict], list[float], float]:
    """(per restart the CPU seconds of each stage and of ``other``, gain per
    restart, whole solve) of one solve of the corpus instance."""
    inst = parse_instance(corpus.generate(category, n, INSTANCE_SEED).text)
    restarts: list[dict] = []  # per restart: its start, and the seconds of each stage
    phase = ""  # of the last restart: "walked", "built" or "planned"

    def timed(name: str):
        real = getattr(solver_mod, name)

        def call(*args, **kwargs):
            nonlocal phase
            start = time.process_time()
            if name == "nearest_neighbor_tour" or (name == "build_prefix_cache" and phase != "walked"):
                restarts.append(dict.fromkeys(STAGES, 0.0) | {"start": start})
            out = real(*args, **kwargs)
            stage = {
                "nearest_neighbor_tour": "NN walk",
                "two_opt_improve": "packed descents" if phase == "planned" else "length descent",
                "initial_picking_plan": "plan",
                "simulated_annealing_kp": "SA",
            }.get(name)
            if stage is not None:
                restarts[-1][stage] += time.process_time() - start
            phase = {"nearest_neighbor_tour": "walked", "build_prefix_cache": "built",
                     "initial_picking_plan": "planned"}.get(name, phase)
            return out

        return call

    names = ("nearest_neighbor_tour", "build_prefix_cache", "two_opt_improve", "initial_picking_plan",
             "simulated_annealing_kp")
    saved = {name: getattr(solver_mod, name) for name in names}
    for name in names:
        setattr(solver_mod, name, timed(name))
    try:
        start = time.process_time()
        config = {**run.SOLVER, "max_restarts": RESTARTS}
        record = solve(inst, SolverConfig(time_budget=run.TIME_BUDGET, seed=1, **config))
        end = time.process_time()
    finally:
        for name, real in saved.items():
            setattr(solver_mod, name, real)
    for here, later in zip(restarts, [r["start"] for r in restarts[1:]] + [end]):
        here["other"] = later - here["start"] - sum(here[stage] for stage in STAGES)
    return restarts, record.trace, end - start


def main() -> int:
    load_triangulation()  # scipy's import, outside every solve
    columns = (*STAGES, "other")
    print(f"| instance | restart | {' | '.join(columns)} | gain or solve |")
    print("|---" * (len(columns) + 3) + "|")
    for category, n in INSTANCES:
        restarts, gains, total = restart_stages(category, n)
        for k, (here, gain) in enumerate(zip(restarts, gains)):
            cells = " | ".join(f"{here[c]:.3f}" for c in columns)
            print(f"| {category}, n={n} | {k} | {cells} | {gain!r} |")
        sums = {stage: sum(here[stage] for here in restarts) for stage in STAGES}
        sums["other"] = total - sum(sums.values())
        cells = " | ".join(f"{sums[c]:.3f}" for c in columns)
        print(f"| {category}, n={n} | all | {cells} | {total:.2f} s |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
