"""Tour construction and 2-OPT improvement over Delaunay candidate edges,
held once as the flat neighbour table (``CandidateTable``) that the descent
prices; a table built past its deadline is empty."""

from __future__ import annotations

import math
import time as _time
from random import Random
from typing import NamedTuple, Optional

import numpy as np

from ttp.evaluate import GAIN_EPS, PrefixCache, _retime, velocities
from ttp.instance import EdgeWeightType, Instance, _distances


class CandidateTable(NamedTuple):
    """Candidate lists as flat arrays: the 0-based city ``c`` owns entries
    ``start[c]`` .. ``start[c] + count[c] - 1`` of ``to`` (0-based ids, by
    (distance, id)) and of ``dist`` (their ``Instance.distance``)."""

    count: np.ndarray
    start: np.ndarray
    to: np.ndarray
    dist: np.ndarray


def nearest_neighbor_tour(
    inst: Instance,
    rng: Optional[Random] = None,
    deadline: Optional[float] = None,
) -> list[int]:
    """Greedy nearest-neighbour tour from city 1; ties broken by lowest id.

    When ``rng`` is given the second city is chosen uniformly at random and
    the rest of the walk stays greedy, which is how the solver diversifies
    restarts.  Once ``deadline`` (a ``time.monotonic()`` value) has passed,
    the cities not yet visited are appended in id order.
    """
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
        nxt = min(unvisited, key=lambda c: (inst.distance(here, c), c))
        tour.append(nxt)
        unvisited.discard(nxt)
    return tour


def _past(deadline: Optional[float]) -> bool:
    return deadline is not None and _time.monotonic() >= deadline


def _empty_table(n: int) -> CandidateTable:
    zeros = np.zeros(n, dtype=np.intp)
    return CandidateTable(zeros, zeros, np.empty(0, dtype=np.intp), np.empty(0))


def _mutual_table(inst: Instance, owner: np.ndarray, to: np.ndarray, deadline: Optional[float]) -> CandidateTable:
    """The directed edges (owner[e], to[e]) between 0-based cities and their
    reverses, each once, as the table whose rows are sorted by (distance,
    id); the empty table once ``deadline`` has passed."""
    n = inst.n
    owner, to = np.divmod(np.unique(np.concatenate((owner * n + to, to * n + owner))), n)
    if _past(deadline):
        return _empty_table(n)
    dist = _distances(inst, owner, to)
    order = np.lexsort((to, dist, owner))
    count = np.bincount(owner, minlength=n)
    return CandidateTable(count, count.cumsum() - count, to[order], dist[order])


def _knn_candidates(inst: Instance, k: int = 8, deadline: Optional[float] = None) -> CandidateTable:
    """The k nearest cities of each city by (distance, id), made mutual and
    sorted by (distance, id); the empty table once ``deadline`` has passed."""
    n = inst.n
    k = min(k, n - 1)
    near = np.empty((n, k), dtype=np.intp)
    for i in range(n):
        if _past(deadline):
            return _empty_table(n)
        others = np.delete(np.arange(n), i)
        near[i] = others[np.lexsort((others, _distances(inst, np.full(n - 1, i), others)))[:k]]
    return _mutual_table(inst, np.repeat(np.arange(n), k), near.ravel(), deadline)


def load_triangulation():
    """scipy's ``Delaunay`` and ``QhullError``.  ``scipy.spatial`` is imported
    here, on first use, and not with the package: it takes longer to load
    than all the rest, and only the Delaunay candidate lists need it."""
    from scipy.spatial import Delaunay, QhullError

    return Delaunay, QhullError


def delaunay_candidates(inst: Instance, deadline: Optional[float] = None) -> CandidateTable:
    """The candidate table of the Delaunay triangulation of the city
    coordinates, each city's row sorted by (distance, id).

    EXPLICIT-distance instances (no coordinates) and degenerate point sets
    fall back to k-nearest-neighbour lists (k=8).  Duplicate coordinates are
    perturbed deterministically by an index-scaled epsilon first, and a
    point that qhull still drops (``coplanar``) is joined to its nearest
    vertex.  Both kinds of list are made mutual and sorted at once, with the
    distances the table keeps (``_mutual_table``).  Once ``deadline`` (a
    ``time.monotonic()`` value) has passed, at any check, the table is
    empty: every city has a row, with no candidates in it.
    """
    if inst.coords is None:
        return _knn_candidates(inst, deadline=deadline)
    n = inst.n
    pts = np.array(inst.coords, dtype=float)
    first = np.unique(pts, axis=0, return_index=True)[1]
    if len(first) != n:  # every repeat of a point moves by eps * (its index + 1)
        later = np.setdiff1d(np.arange(n), first)
        pts[later] += (1e-9 * max(float(np.ptp(pts)), 1.0)) * (later + 1)[:, None]
    if _past(deadline):
        return _empty_table(n)
    Delaunay, QhullError = load_triangulation()
    try:
        tri = Delaunay(pts)
    except QhullError:
        return _knn_candidates(inst, deadline=deadline)
    s = tri.simplices.astype(np.intp)
    lone, near = tri.coplanar[:, [0, 2]].astype(np.intp).T  # (point, nearest vertex)
    owner, to = np.concatenate((s.ravel(), lone)), np.concatenate((s[:, [1, 2, 0]].ravel(), near))
    return _mutual_table(inst, owner, to, deadline)


def _reverse(inst: Instance, cache: PrefixCache, a: int, b: int) -> None:
    """Apply the reversal of tour positions [a, b] (0-based, 1 <= a <= b) to
    ``cache`` in place: ``city_at`` and ``position`` over the segment,
    ``leg_dist`` from a-1 to b, and the loads and times from a-1 on
    (``_retime``).  Distances are symmetric, so the legs inside
    the segment are the same numbers in reverse order.

    Past b the set of cities carried is unchanged, but the loads are summed
    again in the new order, as a fresh walk would.
    """
    at, legs = cache.city_at, cache.leg_dist
    at[a : b + 1] = at[a : b + 1][::-1].copy()
    cache.position[at[a : b + 1]] = np.arange(a, b + 1)
    legs[a:b] = legs[a:b][::-1].copy()
    legs[a - 1] = inst.distance(at.item(a - 1) + 1, at.item(a) + 1)
    legs[b] = inst.distance(at.item(b) + 1, at.item((b + 1) % inst.n) + 1)
    _retime(inst, cache, a - 1)


def _exact_length_steps(inst: Instance) -> bool:
    """Whether every travel time of an empty knapsack is an exact float: each
    leg over ``v_max`` an integer, and ``n`` of them summed below 2**53.

    So it is when ``v_max`` is 1/2**k and every distance an integer: always
    for CEIL_2D and EUC_2D, and for an EXPLICIT matrix made of integers.
    """
    if inst.v_max > 1 or math.frexp(inst.v_max)[0] != 0.5:
        return False
    if inst.edge_weight_type is EdgeWeightType.EXPLICIT:
        d = inst.explicit_dist
        if not np.array_equal(d, np.floor(d)):
            return False
        longest = float(d.max())
    else:
        longest = math.hypot(*np.ptp(inst.coords, axis=0)) + 1.0
    return inst.n * longest / inst.v_max < 2.0**53


def _probes(inst: Instance, cache: PrefixCache, table: CandidateTable):
    """Every probe of a pass, in the scan order of the descent: tour position
    a = 1 .. n-1, then the candidate order of u = tour[a - 1].  A probe
    reverses positions [a, b] to create the candidate edge (u, v), v =
    tour[b]; probes with b <= a are skipped.  Returns the arrays a and b and
    the two legs each probe creates, d(u, v) and d(tour[a], tour[b + 1])."""
    count, start, to, dist = table
    n = inst.n
    owners = cache.city_at[:-1]  # the city at position a - 1, a = 1 .. n - 1
    k = count[owners]
    a = np.repeat(np.arange(1, n), k)
    entry = np.repeat(start[owners] - (k.cumsum() - k), k) + np.arange(a.size)
    b = cache.position[to[entry]]
    keep = b > a
    a, b, entry = a[keep], b[keep], entry[keep]
    return a, b, dist[entry], _distances(inst, cache.city_at[a], cache.city_at[(b + 1) % n])


def _first_length_move(inst: Instance, cache: PrefixCache, table: CandidateTable) -> Optional[tuple[int, int]]:
    """The descent's next move on an empty knapsack with exact travel
    times, from one numpy pass over every probe.

    A probe's travel-time change is the length change d(u, v) +
    d(tour[a], tour[b + 1]) - leg[a - 1] - leg[b] over ``v_max``.  Under
    ``_exact_length_steps`` that is exactly the difference of the two float
    totals, so the gain test below takes the walk's decision bit for bit.
    Returns the first improving probe in scan order, or None.
    """
    a, b, first, last = _probes(inst, cache, table)
    dlen = first + last - cache.leg_dist[a - 1] - cache.leg_dist[b]
    improving = np.flatnonzero(inst.renting_ratio * (-dlen / inst.v_max) > GAIN_EPS)
    if not improving.size:
        return None
    return int(a[improving[0]]), int(b[improving[0]])


def _runs(lengths: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The runs first[r], first[r] + 1, .., first[r] + lengths[r] - 1,
    concatenated."""
    return np.repeat(first - (lengths.cumsum() - lengths), lengths) + np.arange(lengths.sum())


def _times_after_reversals(
    inst: Instance,
    cache: PrefixCache,
    a: np.ndarray,
    b: np.ndarray,
    first: np.ndarray,
    last: np.ndarray,
) -> np.ndarray:
    """Total travel time if tour positions [a[p], b[p]] (0-based, 1 <= a <= b)
    were reversed, for every probe p, whose new legs are ``first[p]`` =
    d(tour[a - 1], tour[b]) and ``last[p]`` = d(tour[a], tour[b + 1]).

    One row per probe walks the tour positions lo - 1 .. n - 1, lo = min(a):
    zeros before a - 1, then the load ``cum_weight[a - 1]`` with the leg
    ``first``, then the reversed segment, whose legs are the segment's own
    in reverse order, and the unchanged rest of the tour.
    Adding 0.0 changes no float, each element sees the IEEE operations of a
    walk from position a - 1 in the walk's order, and ``cumsum`` adds along
    a row from left to right, so every total equals that walk bit for bit.
    """
    lo = int(a.min())
    cols = inst.n - lo + 1
    load_at = cache.city_weight[cache.city_at]
    loads = np.empty((a.size, cols))
    loads[:] = load_at[lo - 1 :]
    legs = np.empty((a.size, cols))
    legs[:] = cache.leg_dist[lo - 1 :]
    flat_loads, flat_legs = loads.reshape(-1), legs.reshape(-1)
    origin = np.arange(0, loads.size, cols) + 1 - lo  # flat index of position 0 per row
    seg = b - a + 1
    new = _runs(seg, a)  # the positions a .. b of each probe
    old = np.repeat(a + b, seg) - new  # the position that held the city now there
    at_new = np.repeat(origin, seg) + new
    flat_loads[at_new] = load_at[old]
    # the new leg at a position is the old leg from old - 1 to old, as
    # distances are symmetric; the one written at b is replaced by ``last``
    flat_legs[at_new] = cache.leg_dist[old - 1]
    flat_legs[origin + b] = last
    before = _runs(a - lo, origin + lo - 1)
    flat_loads[before] = 0.0
    flat_legs[before] = 0.0
    at_start = origin + a - 1
    flat_loads[at_start] = cache.cum_weight[a - 1]
    flat_legs[at_start] = first
    step = legs / velocities(inst, loads.cumsum(axis=1))
    step.reshape(-1)[at_start] += cache.arrive_time[a - 1]
    return step.cumsum(axis=1)[:, -1]


# Elements per chunk of a packed pass: chunks are large enough to spread
# numpy's fixed cost per call over many probes and small enough to stay in
# cache, and a pass that finds a move early prices few probes past it.
_CHUNK_ELEMENTS = 2**15


def _first_packed_move(
    inst: Instance, cache: PrefixCache, table: CandidateTable, deadline: Optional[float]
) -> Optional[tuple[int, int]]:
    """The first improving probe in scan order, priced in chunks of probes by
    ``_times_after_reversals``; None when there is none or the deadline
    passes.

    Chunks start at 8 probes and double, each capped at ``_CHUNK_ELEMENTS``
    elements (at least one probe); the deadline is checked before each.
    """
    a, b, first, last = _probes(inst, cache, table)
    done, rows = 0, 8
    while done < a.size:
        if _past(deadline):
            return None
        cols = inst.n - int(a[done]) + 1  # of a chunk starting at this probe
        end = min(a.size, done + max(1, min(rows, _CHUNK_ELEMENTS // cols)))
        chunk = slice(done, end)
        times = _times_after_reversals(inst, cache, a[chunk], b[chunk], first[chunk], last[chunk])
        # the gain change is -R * (time change); with R = 0 nothing improves
        improving = np.flatnonzero(inst.renting_ratio * (cache.total_time - times) > GAIN_EPS)
        if improving.size:
            return int(a[done + improving[0]]), int(b[done + improving[0]])
        done, rows = end, 2 * rows
    return None


def two_opt_improve(
    inst: Instance,
    cache: PrefixCache,
    candidates: CandidateTable,
    deadline: Optional[float] = None,
) -> None:
    """2-OPT descent on the tour of ``cache``, in place, scored against the
    full TTP gain with the packing held fixed.

    Only moves creating an edge of the table ``candidates`` are probed;
    first-improvement acceptance, scanning by tour position then candidate
    order.  Runs until a full pass finds no improving move or the deadline
    passes, which is checked before any pass is priced.

    With nothing picked and exact travel times (``_exact_length_steps``),
    each pass prices every probe at once by its length change
    (``_first_length_move``) and checks the deadline once; otherwise it
    walks the reversed tours in chunks of probes (``_first_packed_move``).
    Both accept the moves of a probe-by-probe walk.
    """
    lengths_only = not cache.cum_weight.any() and _exact_length_steps(inst)
    while True:
        if not lengths_only:
            move = _first_packed_move(inst, cache, candidates, deadline)
        elif _past(deadline):
            move = None
        else:
            move = _first_length_move(inst, cache, candidates)
        if move is None:
            return
        _reverse(inst, cache, *move)
