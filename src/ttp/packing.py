"""Picking-plan construction and improvement.

The initial plan walks the tour in reverse order picking high-scoring items
first (phase 1), then greedily inserts any remaining profitable item (phase
2).  Improvement is either bit-flip hill climbing or simulated annealing over
single-bit flips.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from random import Random
from typing import Optional

import numpy as np

from ttp.evaluate import (
    GAIN_EPS,
    PrefixCache,
    Solution,
    build_prefix_cache,
    delta_flip,
    evaluate,
    flip,
)
from ttp.instance import Instance, sequential_sum
from ttp.scoring import DEFAULT_ALPHA, build_score_table


@dataclass
class PackingParams:
    beta: float = 0.5
    alpha: float = DEFAULT_ALPHA
    sa_t0: Optional[float] = None  # None: 0.05 * |initial gain|, floor 1.0
    sa_cooling: float = 0.95
    sa_iters_per_temp: Optional[int] = None  # None: max(1000, m)
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")
        if not (0.0 < self.sa_cooling < 1.0):
            raise ValueError("sa_cooling must lie in (0, 1)")
        if self.sa_t0 is not None and self.sa_t0 <= 0:
            raise ValueError("sa_t0 must be positive")


def default_beta(inst: Instance) -> float:
    """Per-instance beta from the item factor (items per non-start city):
    1 item/city -> 1.0, 2-5 -> 0.65, 6+ -> 0.5."""
    factor = round(inst.m / max(inst.n - 1, 1))
    if factor <= 1:
        return 1.0
    if factor <= 5:
        return 0.65
    return 0.5


def initial_picking_plan(
    inst: Instance,
    tour: list[int],
    cache: PrefixCache,
    params: PackingParams,
    deadline: Optional[float] = None,
) -> list[int]:
    """Deterministic two-phase construction of a feasible picking plan.

    Phase 1 walks cities in reverse tour order; at each city its items are
    tried in descending score order and picked while the score clears the
    interpolated threshold, the item fits, and the incremental gain is
    nonnegative.  The walk stops once the load reaches capacity times the
    positive-item ratio.  Phase 2 fills the remainder with a greedy
    insertion pass over all positive-gain items by descending score.
    Returns the better of the two stages by gain.  Once ``deadline`` (a
    ``time.monotonic()`` value) has passed, neither phase picks any more.
    """
    table = build_score_table(inst, cache, params.alpha)
    z = [0] * inst.m
    if table.positive_count == 0:
        return z
    threshold = table.avg_score + (table.max_score - table.avg_score) * params.beta
    target = inst.capacity * table.ratio

    by_city: dict[int, list[int]] = {}
    for j in table.order:
        by_city.setdefault(inst.items[j - 1].city, []).append(j)

    sol = Solution(list(tour), z)
    cur = build_prefix_cache(inst, sol)
    weight = 0.0
    done = False
    for pos in range(inst.n - 1, 0, -1):
        if done or (deadline is not None and _time.monotonic() >= deadline):
            break
        city = tour[pos]
        for j in by_city.get(city, ()):  # already in descending score order
            it = inst.items[j - 1]
            if table.scores[j - 1] <= threshold:
                continue
            if weight + it.weight > inst.capacity:
                continue
            if delta_flip(inst, sol, cur, j) < 0:
                continue
            flip(inst, sol, cur, j)
            weight += it.weight
            if weight >= target:
                done = True
                break
    phase1 = list(z)
    phase1_gain = evaluate(inst, Solution(list(tour), phase1)).gain

    # phase 2: insertion fill over remaining positive-gain items
    for j in table.order:
        if deadline is not None and _time.monotonic() >= deadline:
            break
        if z[j - 1]:
            continue
        it = inst.items[j - 1]
        if weight + it.weight > inst.capacity:
            continue
        if delta_flip(inst, sol, cur, j) > 0:
            flip(inst, sol, cur, j)
            weight += it.weight

    phase2_gain = evaluate(inst, Solution(list(tour), z)).gain
    return z if phase2_gain >= phase1_gain else phase1


def bit_flip_search(
    inst: Instance,
    sol: Solution,
    cache: Optional[PrefixCache],
    deadline: Optional[float] = None,
    rng: Optional[Random] = None,
) -> list[int]:
    """Hill climbing over single-bit flips in random order; keeps a flip iff
    it strictly improves the gain and stays feasible.  Stops after a full
    pass without improvement or at the deadline.  A given ``cache`` is
    copied, not changed."""
    rng = rng or Random(0)
    sol = sol.copy()
    cache = build_prefix_cache(inst, sol) if cache is None else cache.copy()
    weight = sequential_sum(inst.weight[np.flatnonzero(sol.packing)])
    improved = True
    while improved:
        improved = False
        order = list(range(1, inst.m + 1))
        rng.shuffle(order)
        for j in order:
            if deadline is not None and _time.monotonic() >= deadline:
                return sol.packing
            it = inst.items[j - 1]
            turning_on = not sol.packing[j - 1]
            if turning_on and weight + it.weight > inst.capacity:
                continue
            if delta_flip(inst, sol, cache, j) > GAIN_EPS:
                flip(inst, sol, cache, j)
                weight += it.weight if turning_on else -it.weight
                improved = True
    return sol.packing


def simulated_annealing_kp(
    inst: Instance,
    sol: Solution,
    cache: Optional[PrefixCache],
    params: PackingParams,
    deadline: Optional[float] = None,
    rng: Optional[Random] = None,
) -> list[int]:
    """Simulated annealing over single-bit flips of the picking plan.

    Infeasible neighbours are rejected outright; improving flips are always
    accepted, worsening ones with probability exp(delta / T).  Temperature
    cools geometrically; the run ends when T drops below a thousandth of the
    start temperature or the deadline passes.  Returns the best feasible
    packing ever visited, never worse than the input.  A given ``cache`` is
    copied, not changed.
    """
    rng = rng or Random(params.seed)
    sol = sol.copy()
    cache = build_prefix_cache(inst, sol) if cache is None else cache.copy()
    if inst.m == 0:
        return sol.packing
    cur_gain = evaluate(inst, sol).gain
    weight = sequential_sum(inst.weight[np.flatnonzero(sol.packing)])
    best = list(sol.packing)
    best_gain = cur_gain
    t0 = params.sa_t0 if params.sa_t0 is not None else max(0.05 * abs(cur_gain), 1.0)
    iters = params.sa_iters_per_temp if params.sa_iters_per_temp is not None else max(1000, inst.m)
    temp = t0
    while temp > 1e-3 * t0:
        for _ in range(iters):
            if deadline is not None and _time.monotonic() >= deadline:
                return best
            j = rng.randint(1, inst.m)
            it = inst.items[j - 1]
            turning_on = not sol.packing[j - 1]
            if turning_on and weight + it.weight > inst.capacity:
                continue
            delta = delta_flip(inst, sol, cache, j)
            if delta > 0 or rng.random() < math.exp(delta / temp):
                flip(inst, sol, cache, j)
                weight += it.weight if turning_on else -it.weight
                cur_gain += delta
                if cur_gain > best_gain + GAIN_EPS:
                    best = list(sol.packing)
                    best_gain = cur_gain
        # resync against drift accumulated by the incremental deltas
        cur_gain = evaluate(inst, sol).gain
        temp *= params.sa_cooling
    return best
