"""Picking-plan construction and improvement.

The initial plan walks the tour in reverse order picking high-scoring items
first (phase 1), then greedily inserts any remaining profitable item (phase
2).  Improvement is either bit-flip hill climbing or simulated annealing over
single-bit flips.
"""

from __future__ import annotations

import math
import operator
import time as _time
from dataclasses import asdict, dataclass
from random import Random
from typing import Optional

import numpy as np

from ttp.evaluate import GAIN_EPS, PrefixCache, delta_flip, flip, flip_items
from ttp.instance import Instance
from ttp.scoring import DEFAULT_ALPHA, build_score_table, suffix_distances


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
        if not self.time_budget > 0:  # also NaN
            raise ValueError("time budget must be positive")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.beta is not None and not (0.0 <= self.beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")
        for name in ("max_restarts", "sa_iters_per_temp"):
            count = getattr(self, name)
            try:
                if count is not None and operator.index(count) < 1:
                    raise ValueError(f"{name} must be at least 1")
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if not (0.0 < self.sa_cooling < 1.0):
            raise ValueError("sa_cooling must lie in (0, 1)")
        if self.sa_t0 is not None and not self.sa_t0 > 0:
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


# the annealer's load line, as a fraction of capacity: below it the flip
# bound of an addition and the plan's chord bound leave room for rounding
_LOAD_LINE = 1.0 - 1e-9


def _flip_if_fits(inst: Instance, cache: PrefixCache, item: int) -> bool:
    """Flip item ``item`` (1-based), and flip it back if that added it and
    the state's load, the ``cum_weight[-1]`` that ``evaluate`` reads, then
    exceeds capacity; whether the flip was kept.  A drop is always kept:
    removing weight never raises a rounded prefix sum."""
    flip(inst, cache, item)
    if cache.packing[item - 1] and cache.cum_weight.item(-1) > inst.capacity:
        flip(inst, cache, item)
        return False
    return True


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
    Keeps the better of the two stages by gain.  Only ``config.alpha`` and
    ``config.beta`` are read; ``beta=None`` means ``default_beta(inst)``.
    Once ``deadline`` (a ``time.monotonic()`` value) has passed, neither
    phase picks any more.

    The plan replaces the packing of ``cache``, whose tour ``tour`` must be
    (``ValueError`` otherwise); ``cache`` ends holding the plan, and a copy
    of it is returned.

    On an instance with ``exact_loads`` the plan keeps the load as an exact
    Python number.  An item that fits below the annealer's load line, and
    whose price has a positive lower bound (``_pick_lb``), is taken without
    ``delta_flip``: it joins a pending list, which ``flip_items`` commits with
    one retime before the next item that must be priced, at the end of each
    phase and when the deadline passes.  Pricing would have taken each such
    item too, so the plan and the state are those of pricing every pick.
    """
    if not np.array_equal(cache.city_at + 1, tour):
        raise ValueError("tour is not the state's tour")
    flip_items(inst, cache, (np.flatnonzero(cache.packing) + 1).tolist())
    table = build_score_table(inst, cache, config.alpha)
    if table.positive_count == 0:
        return list(cache.packing)
    beta = default_beta(inst) if config.beta is None else config.beta
    threshold = table.avg_score + (table.max_score - table.avg_score) * beta
    capacity, target = inst.capacity, inst.capacity * table.ratio
    item_city, item_weight, profit = inst.city.tolist(), inst.weight.tolist(), inst.profit.tolist()
    sure = inst.exact_loads
    if sure:
        bound, load_line, suffix = _flip_bound(inst, cache), capacity * _LOAD_LINE, table.suffix
    load = cache.cum_weight.item(-1)  # the state's, once the pending items are flipped
    pending: list[int] = []  # 1-based items taken by the bound, not flipped yet

    def commit() -> None:
        flip_items(inst, cache, pending)
        pending.clear()

    def pick(j: int, keep_zero: bool) -> bool:
        """Take item ``j`` (1-based) if it fits and its price is positive,
        or zero with ``keep_zero``; whether it was taken."""
        nonlocal load
        w = item_weight[j - 1]
        if load + w > capacity:
            return False
        if sure and load + w < load_line and _pick_lb(inst, bound, profit[j - 1], w, load, suffix[j - 1]) > 0:
            pending.append(j)
            load += w
            return True
        commit()
        price = delta_flip(inst, cache, j)
        if (price < 0 if keep_zero else price <= 0) or not _flip_if_fits(inst, cache, j):
            return False
        load = cache.cum_weight.item(-1)
        return True

    by_city: dict[int, list[int]] = {}
    for j in table.order:
        by_city.setdefault(item_city[j - 1], []).append(j)

    done = False
    for pos in range(inst.n - 1, 0, -1):
        if done or (deadline is not None and _time.monotonic() >= deadline):
            break
        for j in by_city.get(tour[pos], ()):  # already in descending score order
            if table.scores[j - 1] > threshold and pick(j, True) and load >= target:
                done = True
                break
    commit()
    phase1_gain = cache.gain(inst)

    # phase 2: insertion fill over remaining positive-gain items
    added: list[int] = []  # 1-based
    for j in table.order:
        if deadline is not None and _time.monotonic() >= deadline:
            break
        if not cache.packing[j - 1] and pick(j, False):
            added.append(j)
    commit()

    # phase 2 adds only items priced above 0, so it can lose only by rounding
    if cache.gain(inst) < phase1_gain:
        flip_items(inst, cache, added)
    return list(cache.packing)


def bit_flip_search(inst: Instance, cache: PrefixCache, deadline: Optional[float], rng: Random) -> None:
    """Hill climbing over single-bit flips of ``cache.packing``, in place, in
    random order; keeps a flip iff it strictly improves the gain and the
    state's load stays within capacity (``_flip_if_fits``).  Stops after a
    full pass without improvement or at the deadline."""
    packing = cache.packing
    item_weight = inst.weight.tolist()
    memo: dict[int, float] = {}  # exact prices, until the next flip
    improved = True
    while improved:
        improved = False
        order = list(range(1, inst.m + 1))
        rng.shuffle(order)
        for j in order:
            if deadline is not None and _time.monotonic() >= deadline:
                return
            if not packing[j - 1] and cache.cum_weight.item(-1) + item_weight[j - 1] > inst.capacity:
                continue
            if j not in memo:
                memo[j] = delta_flip(inst, cache, j)
            if memo[j] > GAIN_EPS and _flip_if_fits(inst, cache, j):
                memo.clear()
                improved = True


# exp(ub / T) is scaled up by this before it may reject a probe, so that
# libm rounding of exp can never reject a probe that the exact delta accepts
_EXP_MARGIN = 1.0 + 2.0**-40


def _flip_bound(inst: Instance, cache: PrefixCache) -> tuple[float, float, float]:
    """Constants of an O(1) upper bound on ``delta_flip``, for a state whose
    tour stays fixed; every leg is nonnegative, as ``Instance`` requires.

    On [0, C] the inverse speed f(W) = 1/(v_max - nu*W) is convex, so
    f(W + w) - f(W) >= nu*w*f(W)**2 while W + w <= C.  At and past C the
    speed is v_min (``velocities``), so a leg under load W takes
    g(W) = f(min(W, C)) per unit of distance.  A drop takes w off loads
    W >= w, as each carries the item.  With a = min(W - w, C) and
    b = min(W, C), both in [0, C], b - a <= w and f(b) = g(W), so

        g(W - w) - g(W) = f(a) - f(b) >= -nu*(b - a)*f(b)**2 >= -nu*w*g(W)**2.

    Summed over the legs from the item's tour position k0, with
    S[k0] = sum_{k >= k0} leg[k] * inv_speed[k]**2 (``_slopes``):

        adding (p, w):   delta <= p - R*nu*w*S[k0]
        dropping (p, w): delta <= -p + R*nu*w*S[k0]

    A drop's bound holds at any load, a full knapsack's too; an addition's
    only while every load after it stays below capacity, which the caller
    checks on the final load.

    Rounding.  With e = 2**-53 and k = v_max / v_min, each computed inverse
    speed is within (3k + 1)e of g relative, since the clamp in
    ``velocities`` and its exact v_min at or past C keep every speed in
    [v_min, v_max].  So ``delta_flip``'s sum over N <= n legs is off by at
    most (6k + 2N + 8)e * R*D/v_min (D the suffix length), its ``p`` by
    e*p, and S and the bound's own products by (6k + N + 9)e relative.  With eta = (n + 10k) * 2**-52, the bound

        ub = (+-p -+ tw) + eta * (p + tw) + 3 * eta * R * L / v_min,

    tw = R*nu*w*S[k0] and L the tour length (>= D, both summed from the
    tour's end by ``suffix_distances``), is at least the computed
    ``delta_flip``.  Returns (R*nu, eta, 3*eta*R*L/v_min).
    """
    r = inst.renting_ratio
    eta = (inst.n + 10.0 * inst.v_max / inst.v_min) * 2.0**-52
    length = suffix_distances(cache).item(0)
    return r * inst.weight_velocity_slope, eta, 3.0 * eta * r * length / inst.v_min


def _flip_ub(bound: tuple[float, float, float], p: float, w: float, slope: float, adding: bool) -> float:
    """The bound of ``_flip_bound`` on flipping an item of profit ``p`` and
    weight ``w`` whose tour position has S = ``slope``."""
    r_nu, eta, slack = bound
    tw = r_nu * w * slope
    return (p - tw if adding else tw - p) + eta * (p + tw) + slack


def _pick_lb(inst: Instance, bound: tuple[float, float, float], p: float, w: float, load: float,
             dist: float) -> float:
    """A lower bound on ``delta_flip`` of adding an item of profit ``p`` and
    weight ``w`` at final load ``load``, whose tour position k0 has the
    distance ``dist`` = D(k0) to the tour's end; ``bound`` is
    ``_flip_bound``'s.  Valid while ``load + w`` stays below
    ``capacity * _LOAD_LINE``, the annealer's load line, and every leg is
    nonnegative.

    Below capacity, with f(x) = 1/(v_max - nu*x),

        f(x + w) - f(x) = nu*w*f(x)*f(x + w),

    which grows with x.  Loads never decrease along the tour, so every load
    from k0 on is at most the final load W, and adding the item slows each
    leg from k0 on by at most nu*w*f(W)*f(W + w) per unit of distance:

        delta >= p - tw,    tw = R*nu*w*f(W)*f(W + w)*D(k0).

    Rounding, as in ``_flip_bound`` (e = 2**-53, k = v_max / v_min, N <= n
    legs): the computed ``delta_flip`` is within e*p + (6k + 2N + 8)e*R*D/v_min
    of its exact value, and the computed tw within (2k + N + 9)e of the
    exact one relative (two inverse speeds within (k + 2)e each, D's N
    additions, R*nu and four products).  With ``_flip_bound``'s eta and
    slack = 3*eta*R*L/v_min (L >= D), which exceed both with room for the
    last three roundings,

        lb = (p - tw) - eta * (p + tw) - slack

    is at most the computed ``delta_flip``; so lb > 0 means a positive price.
    """
    r_nu, eta, slack = bound
    v_max, nu = inst.v_max, inst.weight_velocity_slope
    tw = r_nu * w * (1.0 / (v_max - nu * load)) * (1.0 / (v_max - nu * (load + w))) * dist
    return (p - tw) - eta * (p + tw) - slack


def _slopes(cache: PrefixCache) -> list[float]:
    """S[k] = sum of leg_dist[i] * inv_speed[i]**2 over positions i >= k,
    summed from the end of the tour."""
    return (cache.leg_dist * cache.inv_speed * cache.inv_speed)[::-1].cumsum()[::-1].tolist()


def simulated_annealing_kp(
    inst: Instance,
    cache: PrefixCache,
    config: SolverConfig,
    deadline: Optional[float],
    rng: Random,
) -> None:
    """Simulated annealing over single-bit flips of ``cache.packing``.

    Infeasible neighbours are rejected outright, by the state's load before
    and after the flip (``_flip_if_fits``); improving flips are always
    accepted, worsening ones with probability exp(delta / T).  Temperature
    cools geometrically; the run ends when T drops below a thousandth of the
    start temperature or the deadline passes.  ``cache`` ends holding the
    best feasible packing ever visited, never worse than the one it started
    with: the loop keeps the set of items flipped since that packing, and
    flips them back at the end.  The schedule comes from ``config.sa_t0``,
    ``sa_cooling`` and ``sa_iters_per_temp``.

    A probe whose upper bound ``ub`` (``_flip_bound``) is <= 0 cannot
    improve, so the draw u is taken as for any worsening probe, and
    u >= exp(ub / T) rejects it without a price.  The bound decides every
    drop, and every addition whose final load stays below the load line.
    Exact prices are memoised until the next flip, and the memo is read
    only for a probe the bound leaves open: a memoised probe the bound
    rejects would be rejected by its price from the same u.  The random
    stream and every decision are those of pricing every probe.
    """
    if inst.m == 0:
        return
    m, packing, capacity = inst.m, cache.packing, inst.capacity
    cur_gain = cache.gain(inst)
    changed: set[int] = set()  # 1-based items flipped since the best packing
    best_gain = cur_gain
    t0 = config.sa_t0 if config.sa_t0 is not None else max(0.05 * abs(cur_gain), 1.0)
    iters = config.sa_iters_per_temp if config.sa_iters_per_temp is not None else max(1000, inst.m)

    bits = m.bit_length()
    getrandbits, random = rng.getrandbits, rng.random
    exp, clock = math.exp, _time.monotonic
    profit, item_weight = inst.profit.tolist(), inst.weight.tolist()
    bound = _flip_bound(inst, cache)
    load_line = capacity * _LOAD_LINE
    pos = cache.position[inst.city - 1].tolist()  # SA never moves the tour
    load, slope = cache.cum_weight.item(-1), _slopes(cache)
    # tiny instances repeat probes often
    memo: dict[int, float] = {}
    temp = t0
    while temp > 1e-3 * t0:
        for _ in range(iters):
            if deadline is not None and clock() >= deadline:
                return flip_items(inst, cache, changed)
            # rng.randint(1, m) - 1, drawn as randint draws it
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            w = item_weight[j]
            turning_on = not packing[j]
            if turning_on and load + w > capacity:
                continue
            u = None
            if not turning_on or load + w < load_line:
                ub = _flip_ub(bound, profit[j], w, slope[pos[j]], turning_on)
                if ub <= 0:  # so delta <= 0 too: u is drawn either way
                    u = random()
                    if u >= exp(ub / temp) * _EXP_MARGIN:
                        continue
            delta = memo.get(j)
            if delta is None:
                delta = memo[j] = delta_flip(inst, cache, j + 1)
            if not (delta > 0 or (random() if u is None else u) < exp(delta / temp)):
                continue
            if not _flip_if_fits(inst, cache, j + 1):
                continue
            memo.clear()
            cur_gain += delta
            if cur_gain > best_gain + GAIN_EPS:
                changed.clear()
                best_gain = cur_gain
            else:
                changed ^= {j + 1}
            load, slope = cache.cum_weight.item(-1), _slopes(cache)
        # resync against drift accumulated by adding up the flips' prices
        cur_gain = cache.gain(inst)
        temp *= config.sa_cooling
    flip_items(inst, cache, changed)
