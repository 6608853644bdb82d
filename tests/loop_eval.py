"""The evaluation loops the library used before its tour state became numpy
arrays, kept as the reference that the array code must match bit for bit.

Each function walks the tour one position at a time with Python floats, in
the order of additions the library promises to keep: left to right along
the tour, and per city in item order.  ``loop_simulated_annealing`` is the
annealing loop that prices every probe, which the filtered loop must match
decision for decision.
"""

import math

import numpy as np

from ttp.evaluate import GAIN_EPS, build_prefix_cache, delta_flip, evaluate, flip, velocity_at
from ttp.instance import Instance, sequential_sum


def loop_city_weights(inst: Instance, packing: list[int]) -> np.ndarray:
    """Picked weight collected at each city, indexed by 0-based city id."""
    w = np.zeros(inst.n)
    for it in inst.items:
        if packing[it.index - 1]:
            w[it.city - 1] += it.weight
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
    it = inst.items[item - 1]
    sign = -1.0 if packing[item - 1] else 1.0
    dt = 0.0
    for k in range(int(arrays["position"][it.city - 1]), inst.n):
        old_w = arrays["cum_weight"][k]
        new_w = old_w + sign * it.weight
        dt += arrays["leg_dist"][k] * (
            1.0 / velocity_at(inst, new_w) - 1.0 / velocity_at(inst, old_w)
        )
    return sign * it.profit - inst.renting_ratio * dt


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


def loop_simulated_annealing(inst: Instance, sol, cache, params, rng) -> list[int]:
    """The SA loop as it was before its flip bound: every feasible probe is
    priced with ``delta_flip`` and drawn with ``rng.randint``."""
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
        cur_gain = evaluate(inst, sol).gain
        temp *= params.sa_cooling
    return best
