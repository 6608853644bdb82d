"""The evaluation loops the library used before its tour state became numpy
arrays, kept as the reference that the array code must match bit for bit.

Each function walks the tour one position at a time with Python floats, in
the order of additions the library promises to keep: left to right along
the tour, and per city in item order.  ``loop_score_table`` scores the
items one at a time, as the picking plan's table did before it read the
item arrays.  ``loop_simulated_annealing`` is the annealing loop that
prices every probe, which the filtered loop must match decision for
decision; ``loop_bit_flip_search`` likewise for the hill climber.  Both
decide whether an item fits by the load of ``reference_eval.ref_evaluate``,
not by the state's.
``velocity_at`` is the velocity under one load, which
``ttp.evaluate.velocities`` computes over arrays.  ``loop_knn_candidates``
sorts every row with a Python key, as the k-nearest candidate lists were
built before they were sorted in numpy; ``table_lists`` and ``lists_table``
convert between those 1-based lists and the library's candidate table.
``loop_solve`` is the restart loop that builds the tour state afresh before
each stage and evaluates the whole tour after it, which the solve that hands
one state from stage to stage must match bit for bit.  ``loop_distance`` is
the distance read from numpy scalars of the coordinate array, and
``loop_nearest_neighbor_tour`` the walk over a set of unvisited cities keyed
by (distance, id), as both were before ``Instance`` kept its coordinates as
Python floats and the walk an id-ordered list.  ``loop_length_descent`` is
the empty-knapsack 2-OPT descent that prices every probe again from position
1 after each move, which the descent that resumes where its last move was
found must match move for move.  ``loop_initial_picking_plan`` is the
picking plan that prices every pick with ``delta_flip`` and flips it on its
own, which the plan that takes picks by its chord bound and commits them
with one retime must match pick for pick.
"""

import math
import time as _time
from random import Random

import numpy as np

import ttp.tour as tour_mod
from ttp.evaluate import GAIN_EPS, Solution, build_prefix_cache, delta_flip, evaluate, flip
from ttp.instance import EdgeWeightType, Instance
from ttp.packing import bit_flip_search, default_beta, initial_picking_plan, simulated_annealing_kp
from ttp.scoring import build_score_table
from ttp.solver import RunRecord
from ttp.tour import CandidateTable, delaunay_candidates, nearest_neighbor_tour, two_opt_improve

from reference_eval import ref_evaluate


def velocity_at(inst: Instance, cumulative_weight: float) -> float:
    """Velocity under the given load; exactly v_min at capacity, clamped
    at v_min past it."""
    if cumulative_weight >= inst.capacity:
        return inst.v_min
    v = inst.v_max - cumulative_weight * inst.weight_velocity_slope
    return max(v, inst.v_min)


def item_row(inst: Instance, item: int) -> tuple[float, float, int]:
    """(profit, weight, city) of item ``item`` (1-based) as Python numbers,
    so that the loops below do Python's arithmetic, not numpy's."""
    return inst.profit.item(item - 1), inst.weight.item(item - 1), inst.city.item(item - 1)


def loop_city_weights(inst: Instance, packing: list[int]) -> np.ndarray:
    """Picked weight collected at each city, indexed by 0-based city id."""
    w = np.zeros(inst.n)
    for weight, city, picked in zip(inst.weight.tolist(), inst.city.tolist(), packing):
        if picked:
            w[city - 1] += weight
    return w


def loop_prefix_arrays(inst: Instance, tour: list[int], packing: list[int]) -> dict:
    """The prefix-cache fields, from one walk over the tour."""
    n = inst.n
    w_city = loop_city_weights(inst, packing)
    cum_weight = np.zeros(n)
    inv_speed = np.zeros(n)
    arrive_time = np.zeros(n)
    leg_dist = np.zeros(n)
    position = np.zeros(n, dtype=int)
    cum = 0.0
    time = 0.0
    for k in range(n):
        city = tour[k]
        position[city - 1] = k
        arrive_time[k] = time
        cum += w_city[city - 1]
        cum_weight[k] = cum
        inv_speed[k] = 1.0 / velocity_at(inst, cum)
        leg_dist[k] = inst.distance(city, tour[(k + 1) % n])
        time += leg_dist[k] / velocity_at(inst, cum)
    suffix_dist = np.zeros(n)
    rest = 0.0
    for k in range(n - 1, -1, -1):
        rest += leg_dist[k]
        suffix_dist[k] = rest
    return {
        "city_weight": w_city,
        "position": position,
        "cum_weight": cum_weight,
        "inv_speed": inv_speed,
        "arrive_time": arrive_time,
        "leg_dist": leg_dist,
        "suffix_dist": suffix_dist,
        "total_time": time,
    }


def loop_delta_flip(inst: Instance, tour: list[int], packing: list[int], item: int) -> float:
    """Gain change from flipping item ``item`` (1-based), re-pricing the
    tour suffix from the item's city one leg at a time."""
    arrays = loop_prefix_arrays(inst, tour, packing)
    profit, weight, city = item_row(inst, item)
    sign = -1.0 if packing[item - 1] else 1.0
    dt = 0.0
    for k in range(int(arrays["position"][city - 1]), inst.n):
        old_w = arrays["cum_weight"][k]
        new_w = old_w + sign * weight
        dt += arrays["leg_dist"][k] * (
            1.0 / velocity_at(inst, new_w) - 1.0 / velocity_at(inst, old_w)
        )
    return sign * profit - inst.renting_ratio * dt


def loop_suffix(inst: Instance, cache, city: int) -> float:
    """The tour distance from ``city`` (1-based) back to city 1 under the
    cache's tour, from the backward sum of ``loop_prefix_arrays``."""
    arrays = loop_prefix_arrays(inst, cache.solution().tour, cache.packing)
    return float(arrays["suffix_dist"][arrays["position"][city - 1]])


def loop_item_score(inst: Instance, cache, item: int, alpha: float) -> float:
    """Score of item ``item`` (1-based) under the cache's tour:
    profit / (weight**alpha * suffix), +inf when the suffix distance is 0 or
    the power underflows to 0, and 0 when the power overflows."""
    profit, weight, city = item_row(inst, item)
    suffix = loop_suffix(inst, cache, city)
    if suffix == 0.0:
        return math.inf
    try:
        power = weight ** alpha
    except OverflowError:
        return 0.0
    return profit / (power * suffix) if power * suffix else math.inf


def loop_marginal_gain(inst: Instance, cache, item: int) -> float:
    """Standalone insertion gain of item ``item`` (1-based) into an empty
    knapsack, charging the slowed speed over the whole tour suffix; -inf for
    an item heavier than the capacity."""
    profit, weight, city = item_row(inst, item)
    v = inst.v_max - weight * inst.weight_velocity_slope
    if weight > inst.capacity or v <= 0:
        return -math.inf
    suffix = loop_suffix(inst, cache, city)
    return profit - inst.renting_ratio * suffix / v


def loop_score_table(inst: Instance, cache, alpha: float) -> dict:
    """The fields of ``build_score_table``, item by item: the mean adds the
    finite scores of the items with a positive marginal gain left to right
    and divides by the count of all those items."""
    scores = [loop_item_score(inst, cache, j, alpha) for j in range(1, inst.m + 1)]
    marginal = [loop_marginal_gain(inst, cache, j) for j in range(1, inst.m + 1)]
    eligible = [j for j in range(1, inst.m + 1) if marginal[j - 1] > 0]
    avg = mx = 0.0
    if eligible:
        finite = [scores[j - 1] for j in eligible if math.isfinite(scores[j - 1])]
        total = 0.0
        for s in finite:
            total += s
        avg = total / len(eligible) if finite else math.inf
        mx = max(scores[j - 1] for j in eligible)
    return {
        "scores": scores,
        "marginal": marginal,
        "avg_score": avg,
        "max_score": mx,
        "positive_count": len(eligible),
        "ratio": len(eligible) / inst.m if inst.m else 0.0,
        "order": sorted(eligible, key=lambda j: (-scores[j - 1], j)),
    }


def loop_time_after_reversal(inst: Instance, tour: list[int], packing: list[int], a: int, b: int) -> float:
    """Total travel time if tour positions [a, b] (0-based, a >= 1) were
    reversed, walking on from the untouched prefix."""
    arrays = loop_prefix_arrays(inst, tour, packing)
    w_city = arrays["city_weight"]
    t = float(arrays["arrive_time"][a - 1])
    cum = float(arrays["cum_weight"][a - 1])
    v = velocity_at(inst, cum)
    prev = tour[a - 1]
    n = len(tour)
    for k in list(range(b, a - 1, -1)) + list(range(b + 1, n)):
        city = tour[k]
        t += inst.distance(prev, city) / v
        cum += w_city[city - 1]
        v = velocity_at(inst, cum)
        prev = city
    t += inst.distance(prev, tour[0]) / v
    return t


def loop_two_opt(inst: Instance, tour: list[int], packing: list[int], candidates: dict) -> list[int]:
    """The 2-OPT descent over candidate edges, probe by probe: scan tour
    positions a = 1 .. n-1 and the candidates v of the city before a, price
    reversing [a, position of v] with ``loop_time_after_reversal``, accept
    the first move that raises the gain by more than ``GAIN_EPS`` and scan
    again from a = 1, until a scan accepts nothing."""
    tour = list(tour)
    while True:
        total = loop_prefix_arrays(inst, tour, packing)["total_time"]
        position = {city: k for k, city in enumerate(tour)}
        probes = ((a, position[v]) for a in range(1, inst.n) for v in candidates[tour[a - 1]])
        move = next(
            ((a, b) for a, b in probes
             if b > a and inst.renting_ratio * (total - loop_time_after_reversal(inst, tour, packing, a, b)) > GAIN_EPS),
            None,
        )
        if move is None:
            return tour
        a, b = move
        tour[a : b + 1] = tour[a : b + 1][::-1]


def loop_length_descent(inst: Instance, cache, table: CandidateTable, deadline=None) -> tuple[list, int]:
    """The empty-knapsack descent with exact travel times, each pass a full
    rescan from position 1: every probe of the pass (``ttp.tour._probes``)
    priced at once by its length change, the first improving one applied
    with ``ttp.tour._reverse``; the deadline is checked before each pass.
    Returns the moves (a, b) and the number of probes priced."""
    moves, priced = [], 0
    while deadline is None or _time.monotonic() < deadline:
        a, b, first, last = tour_mod._probes(inst, cache, table)
        priced += a.size
        dlen = first + last - cache.leg_dist[a - 1] - cache.leg_dist[b]
        improving = np.flatnonzero(inst.renting_ratio * (-dlen / inst.v_max) > GAIN_EPS)
        if not improving.size:
            break
        moves.append((int(a[improving[0]]), int(b[improving[0]])))
        tour_mod._reverse(inst, cache, *moves[-1])
    return moves, priced


def loop_initial_picking_plan(inst: Instance, tour: list[int], cache, config, deadline=None) -> list[int]:
    """``initial_picking_plan`` as it was before its chord bound: every pick
    that fits is priced with ``delta_flip`` and flipped on its own, and an
    addition is flipped back when the state's load then exceeds capacity;
    the items of the packing ``cache`` holds at the start, and phase 2's
    items if phase 1 was better, are flipped back one by one in item order.
    The clock is read where the plan reads it."""
    if not np.array_equal(cache.city_at + 1, tour):
        raise ValueError("tour is not the state's tour")

    def fits(j):
        flip(inst, cache, j)
        if cache.packing[j - 1] and cache.cum_weight.item(-1) > inst.capacity:
            flip(inst, cache, j)
            return False
        return True

    for j in np.flatnonzero(cache.packing).tolist():
        flip(inst, cache, j + 1)
    table = build_score_table(inst, cache, config.alpha)
    if table.positive_count == 0:
        return list(cache.packing)
    beta = default_beta(inst) if config.beta is None else config.beta
    threshold = table.avg_score + (table.max_score - table.avg_score) * beta
    target = inst.capacity * table.ratio
    by_city = {}
    for j in table.order:
        by_city.setdefault(inst.city.item(j - 1), []).append(j)
    done = False
    for pos in range(inst.n - 1, 0, -1):
        if done or (deadline is not None and _time.monotonic() >= deadline):
            break
        for j in by_city.get(tour[pos], ()):
            if table.scores[j - 1] <= threshold:
                continue
            if cache.cum_weight.item(-1) + inst.weight.item(j - 1) > inst.capacity:
                continue
            if delta_flip(inst, cache, j) < 0 or not fits(j):
                continue
            if cache.cum_weight.item(-1) >= target:
                done = True
                break
    phase1_gain = cache.gain(inst)
    added = []
    for j in table.order:
        if deadline is not None and _time.monotonic() >= deadline:
            break
        if cache.packing[j - 1]:
            continue
        if cache.cum_weight.item(-1) + inst.weight.item(j - 1) > inst.capacity:
            continue
        if delta_flip(inst, cache, j) > 0 and fits(j):
            added.append(j)
    if cache.gain(inst) < phase1_gain:
        for j in sorted(added):
            flip(inst, cache, j)
    return list(cache.packing)


def loop_simulated_annealing(inst: Instance, sol, params, rng, max_iters=None) -> list[int]:
    """The SA loop as it was before its flip bound: every feasible probe is
    priced with ``delta_flip`` and drawn with ``rng.randint``.  An addition
    is priced only while the load plus the item's weight fits, and undone
    when the load after it does not, the load being ``ref_evaluate``'s,
    taken again after every flip kept.  With ``max_iters`` the loop stops
    before its iteration ``max_iters + 1``, as the annealer stops when its
    deadline passes, and returns the best packing found so far."""
    cache = build_prefix_cache(inst, sol)
    if inst.m == 0:
        return list(cache.packing)
    cur_gain = evaluate(inst, sol).gain
    load = ref_evaluate(inst, sol.tour, sol.packing)[3]
    best = list(sol.packing)
    best_gain = cur_gain
    t0 = params.sa_t0 if params.sa_t0 is not None else max(0.05 * abs(cur_gain), 1.0)
    iters = params.sa_iters_per_temp if params.sa_iters_per_temp is not None else max(1000, inst.m)
    temp, done = t0, 0
    while temp > 1e-3 * t0:
        for _ in range(iters):
            if done == max_iters:
                return best
            done += 1
            j = rng.randint(1, inst.m)
            turning_on = not cache.packing[j - 1]
            if turning_on and load + inst.weight.item(j - 1) > inst.capacity:
                continue
            delta = delta_flip(inst, cache, j)
            if delta > 0 or rng.random() < math.exp(delta / temp):
                flip(inst, cache, j)
                after = ref_evaluate(inst, sol.tour, cache.packing)[3]
                if turning_on and after > inst.capacity:
                    flip(inst, cache, j)
                    continue
                load = after
                cur_gain += delta
                if cur_gain > best_gain + GAIN_EPS:
                    best = list(cache.packing)
                    best_gain = cur_gain
        cur_gain = evaluate(inst, cache.solution()).gain
        temp *= params.sa_cooling
    return best


def loop_bit_flip_search(inst: Instance, sol, rng) -> list[int]:
    """The bit-flip hill climber as it was before its memo: every feasible
    probe is priced with ``delta_flip``.  Additions fit as in
    ``loop_simulated_annealing``, by ``ref_evaluate``'s load."""
    cache = build_prefix_cache(inst, sol)
    load = ref_evaluate(inst, sol.tour, sol.packing)[3]
    improved = True
    while improved:
        improved = False
        order = list(range(1, inst.m + 1))
        rng.shuffle(order)
        for j in order:
            turning_on = not cache.packing[j - 1]
            if turning_on and load + inst.weight.item(j - 1) > inst.capacity:
                continue
            if delta_flip(inst, cache, j) > GAIN_EPS:
                flip(inst, cache, j)
                after = ref_evaluate(inst, sol.tour, cache.packing)[3]
                if turning_on and after > inst.capacity:
                    flip(inst, cache, j)
                    continue
                load = after
                improved = True
    return list(cache.packing)


def loop_distance(inst: Instance, i: int, j: int) -> float:
    """Distance between cities ``i`` and ``j`` (1-based ids), computed from
    the numpy scalars of ``inst.coords`` or ``inst.explicit_dist``."""
    if not (1 <= i <= inst.n and 1 <= j <= inst.n):
        raise IndexError(f"city id out of range: ({i}, {j})")
    if inst.edge_weight_type is EdgeWeightType.EXPLICIT:
        return float(inst.explicit_dist[i - 1, j - 1])
    dx = inst.coords[i - 1, 0] - inst.coords[j - 1, 0]
    dy = inst.coords[i - 1, 1] - inst.coords[j - 1, 1]
    d = math.hypot(dx, dy)
    if inst.edge_weight_type is EdgeWeightType.CEIL_2D:
        return float(math.ceil(d))
    return float(math.floor(d + 0.5))  # EUC_2D, TSPLIB's nint: halves round up


def loop_nearest_neighbor_tour(inst: Instance, rng=None, deadline=None) -> list[int]:
    """Greedy nearest-neighbour tour from city 1 over a set of unvisited
    cities, each step keyed by (``loop_distance``, id); with ``rng`` a
    random second city drawn from the sorted set, and past ``deadline`` the
    cities not yet visited in id order."""
    unvisited = set(range(2, inst.n + 1))
    tour = [1]
    if rng is not None and unvisited:
        second = rng.choice(sorted(unvisited))
        tour.append(second)
        unvisited.discard(second)
    while unvisited:
        if deadline is not None and _time.monotonic() >= deadline:
            tour.extend(sorted(unvisited))
            break
        here = tour[-1]
        nxt = min(unvisited, key=lambda c: (loop_distance(inst, here, c), c))
        tour.append(nxt)
        unvisited.discard(nxt)
    return tour


def loop_knn_candidates(inst: Instance, k: int = 8) -> dict:
    """The k nearest cities of each city by (distance, id), made mutual and
    sorted again, each sort keyed by ``Instance.distance``."""
    k = min(k, inst.n - 1)
    cand = {}
    for i in range(1, inst.n + 1):
        others = sorted((c for c in range(1, inst.n + 1) if c != i), key=lambda c: (inst.distance(i, c), c))
        cand[i] = others[:k]
    for i in range(1, inst.n + 1):
        for j in cand[i]:
            if i not in cand[j]:
                cand[j].append(i)
    return {i: sorted(ns, key=lambda c: (inst.distance(i, c), c)) for i, ns in cand.items()}


def table_lists(table: CandidateTable) -> dict:
    """The rows of a candidate table as 1-based lists, city by city."""
    rows = zip(table.start.tolist(), table.count.tolist())
    return {c + 1: (table.to[s : s + k] + 1).tolist() for c, (s, k) in enumerate(rows)}


def lists_table(inst: Instance, lists: dict) -> CandidateTable:
    """1-based candidate lists, each kept in its order, as a candidate table
    whose distances are ``Instance.distance``."""
    count = np.array([len(lists[c]) for c in range(1, inst.n + 1)], dtype=np.intp)
    pairs = [(c, v) for c in range(1, inst.n + 1) for v in lists[c]]
    to = np.array([v - 1 for _, v in pairs], dtype=np.intp)
    dist = np.array([inst.distance(c, v) for c, v in pairs], dtype=float)
    return CandidateTable(count, count.cumsum() - count, to, dist)


def loop_solve(inst: Instance, config, skip_repeat: bool = False) -> RunRecord:
    """``solve`` as a restart loop that hands no state from stage to stage:
    a fresh ``build_prefix_cache`` before the plan and before each improver,
    and a full ``evaluate`` after the plan and after each 2-OPT descent.

    Each descent after an improver runs, unless ``skip_repeat`` is set: then
    it is skipped when the improver hands back the packing the restart's
    last such descent ended on, as ``solve`` does.  Without it the loop
    checks that skip; with it the loop reads the clock as often as ``solve``,
    which a deadline test that ticks the clock once per check needs."""
    if config.tour_in is not None:
        Solution(list(config.tour_in), [0] * inst.m).validate(inst)
    start = _time.monotonic()
    deadline = start + config.time_budget
    rng = Random(config.seed)
    candidates = delaunay_candidates(inst, deadline)
    best_gain, best_sol, trace, restart = float("-inf"), None, [], 0
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
            cache = build_prefix_cache(inst, Solution(tour, [0] * inst.m))
            two_opt_improve(inst, cache, candidates, deadline)
            sol = cache.solution()
        sol.packing = initial_picking_plan(inst, sol.tour, build_prefix_cache(inst, sol), config, deadline)
        gain = evaluate(inst, sol).gain
        prev, descended = float("-inf"), None
        while gain > prev + GAIN_EPS:
            prev = gain
            cache = build_prefix_cache(inst, sol)
            if config.use_sa:
                simulated_annealing_kp(inst, cache, config, deadline, rng)
            else:
                bit_flip_search(inst, cache, deadline, rng)
            cache = build_prefix_cache(inst, cache.solution())
            if not (skip_repeat and list(cache.packing) == descended):
                two_opt_improve(inst, cache, candidates, deadline)
                descended = list(cache.packing)
            sol = cache.solution()
            gain = evaluate(inst, sol).gain
            if _time.monotonic() >= deadline:
                break
        trace.append(gain)
        if gain > best_gain:
            best_gain, best_sol = gain, Solution(list(sol.tour), list(sol.packing))
        restart += 1
    return RunRecord(inst.name, config.to_dict(), best_gain, best_sol.tour, best_sol.packing,
                     _time.monotonic() - start, trace)
