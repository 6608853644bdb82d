"""Tour construction and 2-OPT improvement over Delaunay candidate edges."""

from __future__ import annotations

import math
import time as _time
from random import Random
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import Delaunay, QhullError

from ttp.evaluate import GAIN_EPS, PrefixCache, Solution, build_prefix_cache, velocities
from ttp.instance import EdgeWeightType, Instance, _distances

CandidateLists = dict[int, list[int]]


def nearest_neighbor_tour(
    inst: Instance,
    start: int = 1,
    rng: Optional[Random] = None,
    deadline: Optional[float] = None,
) -> list[int]:
    """Greedy nearest-neighbour tour from ``start``; ties broken by lowest id.

    When ``rng`` is given the second city is chosen uniformly at random and
    the rest of the walk stays greedy, which is how the solver diversifies
    restarts.  Once ``deadline`` (a ``time.monotonic()`` value) has passed,
    the cities not yet visited are appended in id order.
    """
    unvisited = set(range(1, inst.n + 1))
    unvisited.discard(start)
    tour = [start]
    if rng is not None and unvisited:
        second = rng.choice(sorted(unvisited))
        tour.append(second)
        unvisited.discard(second)
    while unvisited:
        if deadline is not None and _time.monotonic() >= deadline:
            tour.extend(sorted(unvisited))
            break
        here = tour[-1]
        nxt = min(unvisited, key=lambda c: (inst.distance(here, c), c))
        tour.append(nxt)
        unvisited.discard(nxt)
    return tour


def _past(deadline: Optional[float]) -> bool:
    return deadline is not None and _time.monotonic() >= deadline


def _by_distance(inst: Instance, neighbours, deadline: Optional[float]) -> CandidateLists:
    """Each city's neighbours sorted by (distance, id); once ``deadline``
    has passed, the cities not yet sorted get empty lists."""
    out: CandidateLists = {}
    for i, ns in neighbours.items():
        out[i] = [] if _past(deadline) else sorted(ns, key=lambda c: (inst.distance(i, c), c))
    return out


def _knn_candidates(inst: Instance, k: int = 8, deadline: Optional[float] = None) -> CandidateLists:
    k = min(k, inst.n - 1)
    cand: CandidateLists = {i: [] for i in range(1, inst.n + 1)}
    for i in cand:
        if _past(deadline):
            return cand
        others = sorted(
            (c for c in range(1, inst.n + 1) if c != i),
            key=lambda c: (inst.distance(i, c), c),
        )
        cand[i] = others[:k]
    # symmetrize: a knn relation is not necessarily mutual
    for i in range(1, inst.n + 1):
        for j in cand[i]:
            if i not in cand[j]:
                cand[j].append(i)
    return _by_distance(inst, cand, deadline)


def delaunay_candidates(inst: Instance, deadline: Optional[float] = None) -> CandidateLists:
    """Neighbour lists from the Delaunay triangulation of the city coordinates.

    EXPLICIT-distance instances (no coordinates) and degenerate point sets
    fall back to k-nearest-neighbour lists (k=8).  Duplicate coordinates are
    perturbed deterministically by an index-scaled epsilon first.  Once
    ``deadline`` (a ``time.monotonic()`` value) has passed, the lists not yet
    built are left empty; every city still has one.
    """
    if inst.coords is None:
        return _knn_candidates(inst, deadline=deadline)
    pts = np.array(inst.coords, dtype=float)
    if len(np.unique(pts, axis=0)) != len(pts):
        span = max(float(np.ptp(pts)), 1.0)
        eps = 1e-9 * span
        seen: dict[tuple[float, float], int] = {}
        for i in range(len(pts)):
            key = (pts[i, 0], pts[i, 1])
            if key in seen:
                pts[i] += eps * (i + 1)
            else:
                seen[key] = i
    try:
        tri = Delaunay(pts)
    except QhullError:
        return _knn_candidates(inst, deadline=deadline)
    neighbours: dict[int, set[int]] = {i: set() for i in range(1, inst.n + 1)}
    for simplex in tri.simplices:
        for a in simplex:
            for b in simplex:
                if a != b:
                    neighbours[a + 1].add(b + 1)
    return _by_distance(inst, neighbours, deadline)


def reverse_segment(seq: Sequence, i: int, j: int) -> list:
    """Reverse the elements between 1-based positions ``i`` and ``j`` inclusive.

    Works on any element type (city ids, or per-city item sets when walking
    attribute sequences in reverse).
    """
    if not (1 <= i <= j <= len(seq)):
        raise IndexError(f"segment ({i}, {j}) out of bounds for length {len(seq)}")
    out = list(seq)
    out[i - 1 : j] = out[i - 1 : j][::-1]
    return out


def _reversal(inst: Instance, tour: list[int], w_city: np.ndarray, cache: PrefixCache, a: int, b: int):
    """Tour positions a-1 .. n-1 once positions [a, b] (0-based, a >= 1) are
    reversed: the 0-based cities at a .. n-1, and per position from a-1 on
    the leg, the load, the velocity and the running travel time.

    The prefix before a is untouched.  Past b the set of cities carried is
    unchanged, but the loads are summed again in the new order, as a fresh
    walk would, so the result equals that walk bit for bit.
    """
    n = len(tour)
    at = cache.city_at
    cities = np.concatenate((at[b:a - 1:-1], at[b + 1:]))
    if inst.edge_weight_type is EdgeWeightType.EXPLICIT:
        inner = inst.explicit_dist[cities[: b - a], cities[1 : b - a + 1]]
    else:  # coordinate distances are exactly symmetric
        inner = cache.leg_dist[a:b][::-1]
    legs = np.concatenate((
        [inst.distance(tour[a - 1], tour[b])],
        inner,
        [inst.distance(tour[a], tour[(b + 1) % n])],
        cache.leg_dist[b + 1 :],
    ))
    load = w_city[cities]
    load[0] += cache.cum_weight[a - 1]
    cum_weight = np.concatenate(([cache.cum_weight[a - 1]], load.cumsum()))
    speed = velocities(inst, cum_weight)
    step = legs / speed
    step[0] += cache.arrive_time[a - 1]
    return cities, legs, cum_weight, speed, step.cumsum()


def _time_after_reversal(
    inst: Instance,
    tour: list[int],
    w_city: np.ndarray,
    cache: PrefixCache,
    a: int,
    b: int,
) -> float:
    """Total travel time if tour positions [a, b] (0-based, a >= 1) were
    reversed, reusing the prefix untouched by the move."""
    return float(_reversal(inst, tour, w_city, cache, a, b)[-1][-1])


def _reverse(inst: Instance, sol: Solution, cache: PrefixCache, a: int, b: int) -> None:
    """Apply the reversal of tour positions [a, b] to ``sol.tour`` and to
    ``cache`` in place; every array but ``city_weight`` changes from
    position a-1 on, ``suffix_dist`` everywhere, and ``deltas`` empties."""
    cities, legs, cum_weight, speed, elapsed = _reversal(inst, sol.tour, cache.city_weight, cache, a, b)
    sol.tour[a : b + 1] = sol.tour[a : b + 1][::-1]
    cache.city_at[a:] = cities
    cache.position[cities] = np.arange(a, inst.n)
    cache.leg_dist[a - 1 :] = legs
    cache.cum_weight[a:] = cum_weight[1:]
    cache.inv_speed[a:] = 1.0 / speed[1:]
    cache.arrive_time[a:] = elapsed[:-1]
    cache.total_time = float(elapsed[-1])
    cache.suffix_dist[:] = cache.leg_dist[::-1].cumsum()[::-1]
    cache.deltas.clear()


def _exact_length_steps(inst: Instance) -> bool:
    """Whether every travel time of an empty knapsack is an exact float: each
    leg over ``v_max`` an integer, and ``n`` of them summed below 2**53.

    So it is when ``v_max`` is 1/2**k and every distance an integer: always
    for CEIL_2D and EUC_2D, and for an EXPLICIT matrix that is made of
    integers and exactly symmetric (the reversed segment's legs are then the
    same numbers).
    """
    if inst.v_max > 1 or math.frexp(inst.v_max)[0] != 0.5:
        return False
    if inst.edge_weight_type is EdgeWeightType.EXPLICIT:
        d = inst.explicit_dist
        if not (np.array_equal(d, d.T) and np.array_equal(d, np.floor(d))):
            return False
        longest = float(np.abs(d).max())
    else:
        longest = math.hypot(*np.ptp(inst.coords, axis=0)) + 1.0
    return inst.n * longest / inst.v_max < 2.0**53


def _candidate_table(inst: Instance, candidates: CandidateLists):
    """The candidate lists as flat arrays: the 0-based city ``c`` owns
    entries ``start[c]`` .. ``start[c] + count[c] - 1`` of ``to`` (0-based
    ids, in list order) and of ``dist`` (the distances to them)."""
    count = np.array([len(candidates[c]) for c in range(1, inst.n + 1)], dtype=np.intp)
    start = count.cumsum() - count
    to = np.array([v for c in range(1, inst.n + 1) for v in candidates[c]], dtype=np.intp) - 1
    dist = _distances(inst, np.repeat(np.arange(inst.n), count), to)
    return count, start, to, dist


def _first_length_move(inst: Instance, cache: PrefixCache, table) -> Optional[tuple[int, int]]:
    """The probe loop's next move on an empty knapsack with exact travel
    times, from one numpy pass over every probe.

    A probe reverses positions [a, b] to create the candidate edge (u, v),
    u = tour[a - 1] and v = tour[b]; its travel-time change is the length
    change d(u, v) + d(tour[a], tour[b + 1]) - leg[a - 1] - leg[b] over
    ``v_max``.  Under ``_exact_length_steps`` that is exactly the difference
    of the two float totals, so the gain test below takes the probe loop's
    decision bit for bit.  Returns the first improving probe in the loop's
    scan order (position a, then candidate order), or None.
    """
    count, start, to, dist = table
    n = inst.n
    owners = cache.city_at[:-1]  # the city at position a - 1, a = 1 .. n - 1
    k = count[owners]
    a = np.repeat(np.arange(1, n), k)
    entry = np.repeat(start[owners] - (k.cumsum() - k), k) + np.arange(a.size)
    b = cache.position[to[entry]]
    keep = b > a
    a, b, entry = a[keep], b[keep], entry[keep]
    fourth = _distances(inst, cache.city_at[a], cache.city_at[(b + 1) % n])
    dlen = dist[entry] + fourth - cache.leg_dist[a - 1] - cache.leg_dist[b]
    improving = np.flatnonzero(inst.renting_ratio * (-dlen / inst.v_max) > GAIN_EPS)
    if not improving.size:
        return None
    return int(a[improving[0]]), int(b[improving[0]])


def _first_probed_move(
    inst: Instance,
    sol: Solution,
    cache: PrefixCache,
    candidates: CandidateLists,
    deadline: Optional[float],
) -> Optional[tuple[int, int]]:
    """The first improving probe in scan order, each priced by
    ``_time_after_reversal``; None when there is none or the deadline
    passes."""
    n = inst.n
    r = inst.renting_ratio
    for a in range(1, n):
        if deadline is not None and _time.monotonic() >= deadline:
            return None
        u = sol.tour[a - 1]
        for v in candidates[u]:
            b = int(cache.position[v - 1])
            if b <= a or b > n - 1:
                continue
            new_time = _time_after_reversal(inst, sol.tour, cache.city_weight, cache, a, b)
            # gain delta is -R * (time delta); with R = 0 the objective
            # cannot improve, so fall back to plain time descent ties off
            if r * (cache.total_time - new_time) > GAIN_EPS:
                return a, b
    return None


def two_opt_improve(
    inst: Instance,
    sol: Solution,
    cache: Optional[PrefixCache],
    candidates: CandidateLists,
    deadline: Optional[float] = None,
) -> Solution:
    """2-OPT descent on the tour, scored against the full TTP gain with the
    packing held fixed.

    Only moves creating a candidate-list edge are probed; first-improvement
    acceptance, scanning by tour position then candidate order.  Runs until a
    full pass finds no improving move or the deadline passes.  A given
    ``cache`` is copied, not changed.

    With nothing picked and exact travel times (``_exact_length_steps``),
    each pass prices every probe at once by its length change
    (``_first_length_move``) and checks the deadline once; otherwise each
    probe walks the reversed tour (``_time_after_reversal``).  Both accept
    the same moves.
    """
    sol = sol.copy()
    if cache is None or not np.array_equal(cache.city_at, np.array(sol.tour) - 1):
        cache = build_prefix_cache(inst, sol)
    else:
        cache = cache.copy()
    table = None
    if not cache.cum_weight.any() and _exact_length_steps(inst):
        table = _candidate_table(inst, candidates)
    while True:
        if table is None:
            move = _first_probed_move(inst, sol, cache, candidates, deadline)
        elif deadline is not None and _time.monotonic() >= deadline:
            move = None
        else:
            move = _first_length_move(inst, cache, table)
        if move is None:
            return sol
        _reverse(inst, sol, cache, *move)
