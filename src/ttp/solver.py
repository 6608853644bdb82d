"""Time-budgeted restart loop tying tour construction, plan construction and
both improvement stages together."""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from random import Random
from typing import Optional

from ttp.evaluate import Solution, build_prefix_cache, evaluate
from ttp.instance import Instance
from ttp.packing import SolverConfig, bit_flip_search, initial_picking_plan, simulated_annealing_kp
from ttp.tour import delaunay_candidates, nearest_neighbor_tour, two_opt_improve


@dataclass
class RunRecord:
    instance: str
    config: dict
    best_gain: float
    best_tour: list[int]
    best_packing: list[int]
    wall_time: float
    trace: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "config": self.config,
            "best_gain": self.best_gain,
            "best_tour": self.best_tour,
            "best_packing": self.best_packing,
            "wall_time": self.wall_time,
            "trace": self.trace,
        }


def solve(inst: Instance, config: SolverConfig) -> RunRecord:
    """Restart loop: construct a tour, build the initial picking plan,
    improve the tour with 2-OPT under the fixed packing, then improve the
    packing; keep the best solution over all restarts.

    Restart 0 uses the externally supplied tour when given, otherwise a
    deterministic nearest-neighbour tour.  Later restarts alternate between
    a nearest-neighbour tour with a randomized second city and a uniformly
    random tour; the random tours skip the tour-length descent so restart
    diversity survives into the gain-driven improvement stage.

    Raises ``ValueError`` when ``config.tour_in`` is not a permutation of
    1..n starting at city 1.
    """
    if inst.n < 2:
        raise ValueError("instance needs at least 2 cities")
    if config.tour_in is not None:
        Solution(list(config.tour_in), [0] * inst.m).validate(inst)
    start = _time.monotonic()
    deadline = start + config.time_budget
    rng = Random(config.seed)
    candidates = delaunay_candidates(inst, deadline)

    best_gain = float("-inf")
    best_sol: Optional[Solution] = None
    trace: list[float] = []
    restart = 0
    while True:
        if config.max_restarts is not None and restart >= config.max_restarts:
            break
        if restart > 0 and _time.monotonic() >= deadline:
            break
        if restart == 0 and config.tour_in is not None:
            sol = Solution(list(config.tour_in), [0] * inst.m)
        elif restart % 2 == 0 and restart > 0:
            rest = list(range(2, inst.n + 1))
            rng.shuffle(rest)
            sol = Solution([1] + rest, [0] * inst.m)
        else:
            tour = nearest_neighbor_tour(inst, rng=rng if restart > 0 else None, deadline=deadline)
            sol = Solution(tour, [0] * inst.m)
            # tour-length descent stands in for an off-the-shelf LK initializer
            sol = two_opt_improve(inst, sol, None, candidates, deadline)

        cache = build_prefix_cache(inst, sol)
        sol.packing = initial_picking_plan(inst, sol.tour, cache, config, deadline)
        gain = evaluate(inst, sol).gain
        prev = float("-inf")
        # improve the packing before touching the tour: with a thin initial
        # plan a tour-length descent would undo the restart diversification
        while gain > prev + 1e-9:
            prev = gain
            cache = build_prefix_cache(inst, sol)
            if config.use_sa:
                sol.packing = simulated_annealing_kp(inst, sol, cache, config, deadline, rng)
            else:
                sol.packing = bit_flip_search(inst, sol, cache, deadline, rng)
            cache = build_prefix_cache(inst, sol)
            sol = two_opt_improve(inst, sol, cache, candidates, deadline)
            gain = evaluate(inst, sol).gain
            if _time.monotonic() >= deadline:
                break
        trace.append(gain)
        if gain > best_gain:
            best_gain = gain
            best_sol = sol.copy()
        restart += 1
        if config.max_restarts is None and _time.monotonic() >= deadline:
            break

    assert best_sol is not None
    return RunRecord(
        instance=inst.name,
        config=config.to_dict(),
        best_gain=best_gain,
        best_tour=best_sol.tour,
        best_packing=best_sol.packing,
        wall_time=_time.monotonic() - start,
        trace=trace,
    )
