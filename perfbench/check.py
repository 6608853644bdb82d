"""Checks of the program's outputs, computed apart from the program.

Everything here works on the generator's own arrays (``corpus.Corpus``) and
the objective's definition; it imports nothing from ``ttp``.  Each check
returns a list of failure messages, empty when the output passes.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay

from corpus import V_MAX, V_MIN, Corpus, ceil_dist

# share of the rent by which a 2-OPT move must lower it to count as improving;
# far below any real move, far above float rounding in either evaluator
TWO_OPT_TOL = 1e-7


def _city_weight(c: Corpus, packing: np.ndarray) -> np.ndarray:
    """Picked weight at each 0-based city."""
    return np.bincount(c.city - 1, weights=c.weight * packing, minlength=c.n)


def _legs(c: Corpus, cities: np.ndarray) -> np.ndarray:
    """CEIL_2D length of each leg of the closed walk over 0-based ``cities``."""
    d = c.coords[np.roll(cities, -1)] - c.coords[cities]
    return np.ceil(np.sqrt((d * d).sum(axis=1)))


def _inv_speed(c: Corpus, carried: np.ndarray) -> np.ndarray:
    v = V_MAX - carried * (V_MAX - V_MIN) / c.capacity
    return 1.0 / np.maximum(v, V_MIN)


def travel_time(c: Corpus, tour: list[int], packing: list[int]) -> float:
    cities = np.asarray(tour) - 1
    carried = np.cumsum(_city_weight(c, np.asarray(packing, dtype=float))[cities])
    return float((_legs(c, cities) * _inv_speed(c, carried)).sum())


def gain(c: Corpus, tour: list[int], packing: list[int]) -> float:
    """Picked profit minus renting ratio times travel time."""
    profit = float(c.profit @ np.asarray(packing, dtype=float))
    return profit - c.renting_ratio * travel_time(c, tour, packing)


def check_solution(c: Corpus, tour: list[int], packing: list[int], reported: float) -> list[str]:
    """Tour is a permutation from city 1, packing is 0/1 within capacity, and
    the reported gain matches this module's evaluation to 1e-6 relative."""
    if len(tour) != c.n or sorted(tour) != list(range(1, c.n + 1)):
        return ["tour is not a permutation of 1..n"]
    if tour[0] != 1:
        return ["tour does not start at city 1"]
    if len(packing) != c.m or any(z not in (0, 1) for z in packing):
        return ["packing is not a 0/1 vector over the items"]
    failures = []
    load = float(c.weight @ np.asarray(packing, dtype=float))
    if load > c.capacity:
        failures.append(f"packing weighs {load} over capacity {c.capacity}")
    expected = gain(c, tour, packing)
    if abs(reported - expected) > 1e-6 * max(1.0, abs(expected)):
        failures.append(f"reported gain {reported!r} != recomputed {expected!r}")
    return failures


def delaunay_neighbours(c: Corpus) -> list[set[int]]:
    """0-based Delaunay neighbours of each 0-based city."""
    nbrs: list[set[int]] = [set() for _ in range(c.n)]
    for simplex in Delaunay(c.coords).simplices:
        for a in simplex:
            nbrs[a].update(int(b) for b in simplex if b != a)
    return nbrs


def check_two_opt(c: Corpus, nbrs: list[set[int]], tour: list[int], packing: list[int]) -> list[str]:
    """No reversal of tour positions a..b (1 <= a < b <= n-1) that makes
    tour[a-1]-tour[b] an edge, with tour[b] in ``nbrs`` of tour[a-1], lowers
    the travel time at the given packing."""
    cities = np.asarray(tour) - 1
    w_city = _city_weight(c, np.asarray(packing, dtype=float))
    carried = np.cumsum(w_city[cities])
    leg_time = _legs(c, cities) * _inv_speed(c, carried)
    arrive = np.concatenate(([0.0], np.cumsum(leg_time)))  # arrive[k]: at position k
    total = arrive[-1]
    pos = np.empty(c.n, dtype=int)
    pos[cities] = np.arange(c.n)
    tol = TWO_OPT_TOL * total
    for a in range(1, c.n):
        for v in nbrs[cities[a - 1]]:
            b = int(pos[v])
            if b <= a:
                continue
            # walk tour[a-1] -> tour[b], tour[b-1], ..., tour[a] -> tour[b+1]
            seg = cities[a - 1 : b + 1]
            walk = np.concatenate(([cities[a - 1]], seg[:0:-1], [cities[(b + 1) % c.n]]))
            d = c.coords[walk[1:]] - c.coords[walk[:-1]]
            dist = np.ceil(np.sqrt((d * d).sum(axis=1)))
            load = carried[a - 1] + np.concatenate(([0.0], np.cumsum(w_city[walk[1:-1]])))
            new_total = arrive[a - 1] + float((dist * _inv_speed(c, load)).sum()) + total - arrive[b + 1]
            if total - new_total > tol:
                return [f"2-OPT reversal of positions {a}..{b} lowers travel time "
                        f"{total!r} -> {new_total!r}"]
    return []


def check_construct(c: Corpus, tour: list[int], packing: list[int]) -> list[str]:
    """Every step goes to a nearest unvisited city, and the plan is worth at
    least the empty knapsack on the same tour."""
    unvisited = np.ones(c.n, dtype=bool)
    unvisited[tour[0] - 1] = False
    for k in range(c.n - 1):
        here, nxt = tour[k] - 1, tour[k + 1] - 1
        rest = np.flatnonzero(unvisited)
        step, best = ceil_dist(c.coords, here, [nxt])[0], ceil_dist(c.coords, here, rest).min()
        if step != best:
            return [f"step {k + 1} goes {step} to city {nxt + 1}, nearest unvisited is {best} away"]
        unvisited[nxt] = False
    empty = gain(c, tour, [0] * c.m)
    planned = gain(c, tour, packing)
    if planned < empty - 1e-9 * max(1.0, abs(empty)):
        return [f"plan gain {planned!r} below empty-knapsack gain {empty!r}"]
    return []
