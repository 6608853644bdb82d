"""Time-budgeted restart loop tying tour construction, plan construction and
both improvement stages together."""

from __future__ import annotations

import time as _time
from dataclasses import asdict, dataclass, field
from random import Random
from typing import Optional

from ttp.evaluate import GAIN_EPS, Solution, build_prefix_cache
from ttp.instance import Instance
from ttp.packing import SolverConfig, bit_flip_search, initial_picking_plan, simulated_annealing_kp
from ttp.tour import delaunay_candidates, load_triangulation, nearest_neighbor_tour, two_opt_improve


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
        return asdict(self)


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
    if config.tour_in is not None:
        Solution(list(config.tour_in), [0] * inst.m).validate(inst)
    if inst.coords is not None:
        load_triangulation()  # before the clock starts, so no budget pays for the import
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
        descend = False
        if restart == 0 and config.tour_in is not None:
            tour = list(config.tour_in)
        elif restart % 2 == 0 and restart > 0:
            rest = list(range(2, inst.n + 1))
            rng.shuffle(rest)
            tour = [1] + rest
        else:
            tour = nearest_neighbor_tour(inst, rng=rng if restart > 0 else None, deadline=deadline)
            descend = True

        # the restart's one walk over the tour: every stage below updates
        # this state, the restart's solution, in place
        cache = build_prefix_cache(inst, Solution(tour, [0] * inst.m))
        if descend:
            # tour-length descent stands in for an off-the-shelf LK initializer
            two_opt_improve(inst, cache, candidates, deadline)
            tour = cache.solution().tour
        initial_picking_plan(inst, tour, cache, config, deadline)
        gain = cache.gain(inst)
        prev = float("-inf")
        descended = None  # the packing the last descent ended on
        # improve the packing before touching the tour: with a thin initial
        # plan a tour-length descent would undo the restart diversification
        while gain > prev + GAIN_EPS:
            prev = gain
            if config.use_sa:
                simulated_annealing_kp(inst, cache, config, deadline, rng)
            else:
                bit_flip_search(inst, cache, deadline, rng)
            # on the packing it ended on, the descent would end at once: its
            # last pass found no move on this very state
            if bytes(cache.packing) != descended:
                two_opt_improve(inst, cache, candidates, deadline)
                descended = bytes(cache.packing)
            gain = cache.gain(inst)
            if _time.monotonic() >= deadline:
                break
        trace.append(gain)
        if gain > best_gain:
            best_gain = gain
            best_sol = cache.solution()
        restart += 1

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
