"""Picking-plan construction and improvement.

The initial plan walks the tour in reverse order picking high-scoring items
first (phase 1), then greedily inserts any remaining profitable item (phase
2).  Improvement is either bit-flip hill climbing or simulated annealing over
single-bit flips.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import asdict, dataclass
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
class SolverConfig:
    """Every setting of a solve; each check runs when the config is built."""

    time_budget: float = 600.0
    alpha: float = DEFAULT_ALPHA
    beta: Optional[float] = None  # None: default_beta, from the instance's item factor
    seed: int = 0
    use_sa: bool = True  # False: bit-flip hill climbing instead
    tour_in: Optional[list[int]] = None  # externally supplied tour for restart 0
    max_restarts: Optional[int] = None  # None: restart until the deadline
    sa_t0: Optional[float] = None  # None: 0.05 * |initial gain|, floor 1.0
    sa_cooling: float = 0.95
    sa_iters_per_temp: Optional[int] = None  # None: max(1000, m)

    def __post_init__(self):
        if self.time_budget <= 0:
            raise ValueError("time budget must be positive")
        if self.beta is not None and not (0.0 <= self.beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")
        if not (0.0 < self.sa_cooling < 1.0):
            raise ValueError("sa_cooling must lie in (0, 1)")
        if self.sa_t0 is not None and self.sa_t0 <= 0:
            raise ValueError("sa_t0 must be positive")

    def to_dict(self) -> dict:
        return asdict(self)


# a second name for the same class, kept because perfbench/worker.py builds
# the plan's settings as ``ttp.packing.PackingParams(beta=...)``
PackingParams = SolverConfig


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
    config: SolverConfig,
    deadline: Optional[float] = None,
) -> list[int]:
    """Deterministic two-phase construction of a feasible picking plan.

    Phase 1 walks cities in reverse tour order; at each city its items are
    tried in descending score order and picked while the score clears the
    interpolated threshold, the item fits, and the incremental gain is
    nonnegative.  The walk stops once the load reaches capacity times the
    positive-item ratio.  Phase 2 fills the remainder with a greedy
    insertion pass over all positive-gain items by descending score.
    Returns the better of the two stages by gain.  Only ``config.alpha`` and
    ``config.beta`` are read; ``beta=None`` means ``default_beta(inst)``.
    Once ``deadline`` (a ``time.monotonic()`` value) has passed, neither
    phase picks any more.
    """
    table = build_score_table(inst, cache, config.alpha)
    z = [0] * inst.m
    if table.positive_count == 0:
        return z
    beta = default_beta(inst) if config.beta is None else config.beta
    threshold = table.avg_score + (table.max_score - table.avg_score) * beta
    target = inst.capacity * table.ratio
    item_city, item_weight = inst.city.tolist(), inst.weight.tolist()

    by_city: dict[int, list[int]] = {}
    for j in table.order:
        by_city.setdefault(item_city[j - 1], []).append(j)

    sol = Solution(list(tour), z)
    cur = build_prefix_cache(inst, sol)
    weight = 0.0
    done = False
    for pos in range(inst.n - 1, 0, -1):
        if done or (deadline is not None and _time.monotonic() >= deadline):
            break
        city = tour[pos]
        for j in by_city.get(city, ()):  # already in descending score order
            w = item_weight[j - 1]
            if table.scores[j - 1] <= threshold:
                continue
            if weight + w > inst.capacity:
                continue
            if delta_flip(inst, sol, cur, j) < 0:
                continue
            flip(inst, sol, cur, j)
            weight += w
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
        w = item_weight[j - 1]
        if weight + w > inst.capacity:
            continue
        if delta_flip(inst, sol, cur, j) > 0:
            flip(inst, sol, cur, j)
            weight += w

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
    item_weight = inst.weight.tolist()
    improved = True
    while improved:
        improved = False
        order = list(range(1, inst.m + 1))
        rng.shuffle(order)
        for j in order:
            if deadline is not None and _time.monotonic() >= deadline:
                return sol.packing
            w = item_weight[j - 1]
            turning_on = not sol.packing[j - 1]
            if turning_on and weight + w > inst.capacity:
                continue
            if delta_flip(inst, sol, cache, j) > GAIN_EPS:
                flip(inst, sol, cache, j)
                weight += w if turning_on else -w
                improved = True
    return sol.packing


# exp(ub / T) is scaled up by this before it may reject a probe, so that
# libm rounding of exp can never reject a probe that the exact delta accepts
_EXP_MARGIN = 1.0 + 2.0**-40


def _flip_bound(inst: Instance, cache: PrefixCache) -> Optional[tuple[float, float, float]]:
    """Constants of an O(1) upper bound on ``delta_flip``, for a state whose
    tour stays fixed; None when a leg is negative and the bound fails.

    Below capacity the inverse speed f(W) = 1/(v_max - nu*W) is convex, so
    f(W + w) - f(W) >= nu*w*f(W)**2 and f(W - w) - f(W) >= -nu*w*f(W)**2.
    Summed over the legs from the item's tour position k0, with
    S[k0] = sum_{k >= k0} leg[k] * inv_speed[k]**2 (``_slopes``):

        adding (p, w):   delta <= p - R*nu*w*S[k0]
        dropping (p, w): delta <= -p + R*nu*w*S[k0]

    This holds while every load before and after the flip stays below
    capacity; the caller checks that on the final load.

    Rounding.  With e = 2**-53 and k = v_max / v_min, each computed inverse
    speed is within (3k + 1)e of f relative, since every load lies in
    [0, C] and every speed in [v_min, v_max].  So ``delta_flip``'s sum over
    N <= n legs is off by at most (6k + 2N + 8)e * R*D/v_min (D the suffix
    length), its ``p`` by e*p, and S and the bound's own products by
    (6k + N + 9)e relative.  With eta = (n + 10k) * 2**-52, the bound

        ub = (+-p -+ tw) + eta * (p + tw) + 3 * eta * R * L / v_min,

    tw = R*nu*w*S[k0] and L the tour length (>= D), is therefore at least
    the computed ``delta_flip``.  Returns (R*nu, eta, 3*eta*R*L/v_min).
    """
    if cache.leg_dist.min() < 0:
        return None
    r = inst.renting_ratio
    eta = (inst.n + 10.0 * inst.v_max / inst.v_min) * 2.0**-52
    return r * inst.weight_velocity_slope, eta, 3.0 * eta * r * float(cache.suffix_dist[0]) / inst.v_min


def _flip_ub(bound: tuple[float, float, float], p: float, w: float, slope: float, adding: bool) -> float:
    """The bound of ``_flip_bound`` on flipping an item of profit ``p`` and
    weight ``w`` whose tour position has S = ``slope``."""
    r_nu, eta, slack = bound
    tw = r_nu * w * slope
    return (p - tw if adding else tw - p) + eta * (p + tw) + slack


def _slopes(cache: PrefixCache) -> list[float]:
    """S[k] = sum of leg_dist[i] * inv_speed[i]**2 over positions i >= k,
    summed from the end of the tour."""
    return (cache.leg_dist * cache.inv_speed * cache.inv_speed)[::-1].cumsum()[::-1].tolist()


def simulated_annealing_kp(
    inst: Instance,
    sol: Solution,
    cache: Optional[PrefixCache],
    config: SolverConfig,
    deadline: Optional[float] = None,
    rng: Optional[Random] = None,
) -> list[int]:
    """Simulated annealing over single-bit flips of the picking plan.

    Infeasible neighbours are rejected outright; improving flips are always
    accepted, worsening ones with probability exp(delta / T).  Temperature
    cools geometrically; the run ends when T drops below a thousandth of the
    start temperature or the deadline passes.  Returns the best feasible
    packing ever visited, never worse than the input.  A given ``cache`` is
    copied, not changed.  The schedule comes from ``config.sa_t0``,
    ``sa_cooling`` and ``sa_iters_per_temp``; without ``rng`` the draws
    come from ``Random(config.seed)``.

    Where every load stays below capacity, a probe whose upper bound
    ``ub`` (``_flip_bound``) is <= 0 cannot improve, so the draw u is taken
    as for any worsening probe, and u >= exp(ub / T) rejects it without
    ``delta_flip``.  Every other probe is priced exactly.  The random
    stream and every decision are those of pricing every probe.
    """
    rng = rng or Random(config.seed)
    sol = sol.copy()
    cache = build_prefix_cache(inst, sol) if cache is None else cache.copy()
    if inst.m == 0:
        return sol.packing
    cur_gain = evaluate(inst, sol).gain
    weight = sequential_sum(inst.weight[np.flatnonzero(sol.packing)])
    best = list(sol.packing)
    best_gain = cur_gain
    t0 = config.sa_t0 if config.sa_t0 is not None else max(0.05 * abs(cur_gain), 1.0)
    iters = config.sa_iters_per_temp if config.sa_iters_per_temp is not None else max(1000, inst.m)

    m, packing, capacity = inst.m, sol.packing, inst.capacity
    bits = m.bit_length()
    getrandbits, random = rng.getrandbits, rng.random
    profit, item_weight = inst.profit.tolist(), inst.weight.tolist()
    bound = _flip_bound(inst, cache)
    if bound is not None:
        load_line = capacity * (1.0 - 1e-9)
        pos = cache.position[inst.city - 1].tolist()  # SA never moves the tour
        top, slope = float(cache.cum_weight[-1]), _slopes(cache)
    temp = t0
    while temp > 1e-3 * t0:
        for _ in range(iters):
            if deadline is not None and _time.monotonic() >= deadline:
                return best
            # rng.randint(1, m) - 1, drawn as randint draws it
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            w = item_weight[j]
            turning_on = not packing[j]
            if turning_on and weight + w > capacity:
                continue
            delta = None
            if (bound is not None and j + 1 not in cache.deltas
                    and (top + w if turning_on else top) < load_line):
                ub = _flip_ub(bound, profit[j], w, slope[pos[j]], turning_on)
                if ub <= 0:
                    u = random()
                    if u >= math.exp(ub / temp) * _EXP_MARGIN:
                        continue
                    delta = delta_flip(inst, sol, cache, j + 1)
                    if u >= math.exp(delta / temp):
                        continue
            if delta is None:
                delta = delta_flip(inst, sol, cache, j + 1)
                if not (delta > 0 or random() < math.exp(delta / temp)):
                    continue
            flip(inst, sol, cache, j + 1)
            weight += w if turning_on else -w
            cur_gain += delta
            if cur_gain > best_gain + GAIN_EPS:
                best = list(packing)
                best_gain = cur_gain
            if bound is not None:
                top, slope = float(cache.cum_weight[-1]), _slopes(cache)
        # resync against drift accumulated by the incremental deltas
        cur_gain = evaluate(inst, sol).gain
        temp *= config.sa_cooling
    return best
