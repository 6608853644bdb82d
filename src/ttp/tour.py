"""Tour construction and 2-OPT improvement over Delaunay candidate edges,
held once as the flat neighbour table (``CandidateTable``) that the descent
prices; a table built past its deadline is empty."""

from __future__ import annotations

import math
import time as _time
from itertools import chain
from random import Random
from typing import NamedTuple, Optional

import numpy as np

from ttp.evaluate import GAIN_EPS, PrefixCache, _retime, velocities
from ttp.instance import EdgeWeightType, Instance, _distances


class CandidateTable(NamedTuple):
    """Candidate lists as flat arrays: the 0-based city ``c`` owns entries
    ``start[c]`` .. ``start[c] + count[c] - 1`` of ``to`` (0-based ids, by
    (distance, id)) and of ``dist`` (their ``Instance.distance``).  The
    rows are mutual: v is in the row of u exactly when u is in the row of
    v, which the resumed length descent relies on."""

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

    The cities left are kept in id order, so ``min`` returns the lowest id
    among the nearest.
    """
    left = list(range(2, inst.n + 1))
    tour = [1]
    if rng is not None and left:
        tour.append(rng.choice(left))
        left.remove(tour[-1])
    distance = inst.distance
    while left:
        if deadline is not None and _time.monotonic() >= deadline:
            tour.extend(left)
            break
        here = tour[-1]
        tour.append(min(left, key=lambda c: distance(here, c)))
        left.remove(tour[-1])
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


def _length_descent(inst: Instance, cache: PrefixCache, table: CandidateTable, deadline: Optional[float]) -> None:
    """The 2-OPT descent on an empty knapsack with exact travel times, each
    pass resumed where the last move was found; the deadline is checked
    before each pass.

    A probe's travel-time change is the length change d(u, v) +
    d(tour[a], tour[b + 1]) - leg[a - 1] - leg[b] over ``v_max``.  Under
    ``_exact_length_steps`` that is exactly the difference of the two float
    totals, so the gain test below takes the walk's decision bit for bit.
    A probe with d(u, v) >= leg[a - 1] + leg[b] cannot improve, as its other
    new leg is not negative and every length here is an integer, summed
    exactly; it is rejected without computing that leg.

    Resuming.  A probe's decision depends only on the positions and the
    successors of its two cities.  Reversing [A, B] moves only the cities at
    A .. B, and gives new successors only to the cities at A - 1 .. B, the
    window.  Every probe before the move in scan order did not improve, and
    one whose owner lies before A - 1 and whose target lies outside the
    window is unchanged.  The table is mutual, so the owners before A - 1
    with a target in the window are the candidates of the window's cities.
    So the next move is the first improving probe of (i) the rows of those
    back owners, by position, then (ii) the rows of the owners from position
    A - 1 on: those of a full rescan, as each row is priced in its order and
    its unchanged probes only repeat their "no".

    The tour (1-based ids, closed by city 1), the positions and the legs are
    Python lists during the descent, and are written to the state once at
    its end, through one ``_retime``.
    """
    n, r, v_max, distance = inst.n, inst.renting_ratio, inst.v_max, inst.distance
    pairs = list(zip((table.to + 1).tolist(), table.dist.tolist()))
    rows = [[]] + [pairs[s : s + k] for s, k in zip(table.start.tolist(), table.count.tolist())]
    at = (cache.city_at + 1).tolist() + [1]
    pos = [0] + cache.position.tolist()
    leg = cache.leg_dist.tolist()

    def first_move(back, scan):
        # the owners at the positions ``back``, then those from position
        # ``scan`` on; p = a - 1
        for p in chain(back, range(scan, n - 1)):
            succ, out = at[p + 1], leg[p]
            for v, d in rows[at[p]]:
                b = pos[v]
                if b > p + 1 and d < out + leg[b]:
                    last = distance(succ, at[b + 1])
                    if r * (-(d + last - out - leg[b]) / v_max) > GAIN_EPS:
                        return p + 1, b, d, last
        return None

    moved = False
    back, scan = [], 0
    while not _past(deadline):
        move = first_move(back, scan)
        if move is None:
            break
        a, b, first, last = move
        at[a : b + 1] = at[a : b + 1][::-1]
        for k in range(a, b + 1):
            pos[at[k]] = k
        leg[a:b] = leg[a:b][::-1]
        leg[a - 1], leg[b] = first, last
        scan = a - 1
        back = sorted({pos[v] for q in range(scan, b + 1) for v, _ in rows[at[q]] if pos[v] < scan})
        moved = True
    if moved:
        cache.city_at[:] = at[:n]
        cache.city_at -= 1
        cache.position[:] = pos[1:]
        cache.leg_dist[:] = leg
        _retime(inst, cache, 0)


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

    One row per probe walks the positions lo - 1 .. n - 1 of its reversed
    tour, lo = min(a), on from the state's load ``cum_weight[lo - 1]`` and
    time ``arrive_time[lo - 1]``.  The city at a position p of [a, b] is
    the one that stood at a + b - p, and below b the leg leaving it is the
    old leg into a + b - p, as distances are symmetric; the legs at a - 1
    and b are ``first`` and ``last``.

    The state equals a walk of its tour, and ``cumsum`` adds along a row
    from left to right, as the state's sums do.  So up to a - 1 a row
    repeats the state's loads and times bit for bit, from there every
    element sees the IEEE operations of a walk of the reversed tour, and
    every total equals that walk bit for bit.  The loads along a row never
    decrease, as ``velocities`` requires.
    """
    lo = int(a.min())
    pos = np.arange(lo - 1, inst.n)
    a_, b_ = a[:, None], b[:, None]
    inside = (a_ <= pos) & (pos <= b_)
    src = np.where(inside, a_ + b_ - pos, pos)  # the old position of the city now at pos
    loads = cache.city_weight[cache.city_at][src]
    loads[:, 0] = cache.cum_weight[lo - 1]
    legs = cache.leg_dist[src - inside]
    row = np.arange(a.size)
    legs[row, a - lo] = first
    legs[row, b - lo + 1] = last
    step = legs / velocities(inst, loads.cumsum(axis=1))
    step[:, 0] += cache.arrive_time[lo - 1]
    return step.cumsum(axis=1)[:, -1]


def _reversal_bounds(
    inst: Instance,
    cache: PrefixCache,
    a: np.ndarray,
    b: np.ndarray,
    first: np.ndarray,
    last: np.ndarray,
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Bounds (lower, upper, margin) on the travel-time change of every
    probe.  The walk of ``_times_after_reversals`` minus ``total_time`` lies
    in [lower - margin, upper + margin], and the two decisions of
    ``_first_packed_move`` taken on them are those of the walk.  None
    wherever the proof below does not hold: on an instance without
    ``exact_loads``, at a final load over capacity, and when the
    speeds are too far apart (eta).

    The change.  Reversing positions [a, b] leaves every load before a and
    after b as it was: the loads are exact integers, so their sums do not
    depend on the order of addition.  With W = ``cum_weight``, f(x) =
    1/(v_max - nu*x) the inverse speed (nu = ``weight_velocity_slope``),
    A = W[a-1] and B = W[b], the change is, in real arithmetic,

        first*f(A) + last*f(B) - (arrive[b+1] - arrive[a-1]) + I,
        I = sum_{j=a}^{b-1} leg[j] * f(A + B - W[j]),

    arrive[n] being ``total_time``.  Every argument of f in I lies in
    [A, B], and f is convex on [0, C].  With P = sum leg[j] and Q = sum
    leg[j]*W[j] over j = a .. b-1, both from prefix sums over the tour:

        chord:   I <= P*f(A) + nu*f(A)*f(B) * (B*P - Q),
        tangent: I >= P*f(x0) + nu*f(x0)**2 * ((A + B - x0)*P - Q),

    the chord as (f(B) - f(A)) / (B - A) = nu*f(A)*f(B), the tangent at any
    x0 in [A, B] by convexity.  x0 is the mean argument A + B - Q/P rounded
    to a whole load, so the tangent is Jensen's bound P*f(mean) up to a term
    of second order, while its validity does not depend on how x0 was
    computed; x0, B - x0 and B - x0 + A are exact integers.

    Rounding.  Let u = 2**-53, k = v_max/v_min > 1, L the tour length,
    Lam = (L + first + last)/v_min, which bounds the old and the new total
    time and every part of either, and kappa = nu*W[n-1]/v_min < k (at a
    full knapsack, W[n-1] = C, it is k - 1).  A computed speed of a load in
    [0, C] is within (3k + 1)u of the real one, relative: the clamp of
    ``velocities`` only moves it closer, and at a load of exactly C it
    returns v_min, which is the real speed.  So an inverse speed, or a leg
    over a speed, is within (3k + 3)u.  To first order in u:

    * ``total_time``, the walk's total and each ``arrive_time`` are left to
      right sums of at most n such nonnegative terms, each within
      (n + 3k + 2)u*Lam; that is 2(n + 3k + 2)u*Lam on total minus walk and
      (2n + 6k + 5)u*Lam on the old segment's time;
    * first*f(A) and last*f(B) are within (3k + 4)u*Lam together, and the
      two sums that join them to the old time within 4u*Lam;
    * P and Q are within (2n + 1)u*L and (2n + 3)u*L*W[n-1].  A bound's
      coefficient nu*f*f is within (6k + 10)u and at most nu/v_min**2, and
      |B*P - Q| and |(A + B - x0)*P - Q| are at most P*(B - A), so each
      bound on I is within (2n + 3k + 6)u*Lam + (4n + 6k + 18)u*kappa*Lam,
      and the sum that adds it to the rest within (3 + kappa)u*Lam;
    * a decision compares R*(margin - lower) or R*(-upper - margin) with
      GAIN_EPS.  Rounding is monotone, so it is the walk's once the bound
      clears the walk's change by u*(margin + (3 + kappa)*Lam) more.

    As k > 1 and kappa < k, the sum is below k(10n + 6k + 67)u*Lam +
    u*margin.  The margin is eta*Lam with eta = k(10n + 6k + 67) * 2**-52,
    twice that first term, which covers u*margin, the terms of second order
    and the rounding of the margin itself while eta < 2**-10.
    """
    k = inst.v_max / inst.v_min
    eta = k * (10.0 * inst.n + 6.0 * k + 67.0) * 2.0**-52
    if not inst.exact_loads or cache.cum_weight.item(-1) > inst.capacity or eta >= 2.0**-10:
        return None
    nu, weight, inv = inst.weight_velocity_slope, cache.cum_weight, cache.inv_speed
    dist = np.concatenate(([0.0], cache.leg_dist.cumsum()))  # the legs before each position
    moment = np.concatenate(([0.0], (cache.leg_dist * weight).cumsum()))
    arrive = np.append(cache.arrive_time, cache.total_time)
    lo_load, hi_load, f_lo, f_hi = weight[a - 1], weight[b], inv[a - 1], inv[b]
    span = dist[b] - dist[a]
    moved = moment[b] - moment[a]
    mean = lo_load + hi_load - np.divide(moved, span, out=np.zeros_like(span), where=span > 0)
    x0 = np.clip(np.rint(mean), lo_load, hi_load)
    f0 = 1.0 / (inst.v_max - x0 * nu)
    ends = first * f_lo + last * f_hi - (arrive[b + 1] - arrive[a - 1])
    lower = ends + (span * f0 + nu * f0 * f0 * ((hi_load - x0 + lo_load) * span - moved))
    upper = ends + (span * f_lo + nu * f_lo * f_hi * (hi_load * span - moved))
    return lower, upper, (eta / inst.v_min) * (dist[-1] + first + last)


# Elements per chunk of a packed pass: chunks are large enough to spread
# numpy's fixed cost per call over many probes and small enough to stay in
# cache, and a pass that finds a move early prices few probes past it.
_CHUNK_ELEMENTS = 2**15


def _first_packed_move(
    inst: Instance, cache: PrefixCache, table: CandidateTable, deadline: Optional[float]
) -> Optional[tuple[int, int]]:
    """The first improving probe in scan order; None when there is none or
    the deadline passes.

    A probe improves when R*(``total_time`` - its walk's time) > GAIN_EPS,
    R the renting ratio.  On an instance with ``exact_loads`` and a final
    load within capacity, one numpy step bounds every probe's time change
    (``_reversal_bounds``, which says None where its proof does not hold).
    The bounds reject every probe with
    R*(margin - lower) <= GAIN_EPS, and take the first probe left without
    its walk when R*(-upper - margin) > GAIN_EPS.  Only the probes left
    before it are walked by ``_times_after_reversals``; elsewhere every
    probe is.  Either way the pass returns the probe of a probe-by-probe
    walk.

    The walked probes go in chunks that start at 8 probes and double, each
    capped at ``_CHUNK_ELEMENTS`` elements (at least one probe); the
    deadline is checked before the pass and before each chunk.
    """
    if _past(deadline):
        return None
    a, b, first, last = _probes(inst, cache, table)
    walk, stop = np.arange(a.size), a.size  # the probes left, and how many to walk
    bounds = _reversal_bounds(inst, cache, a, b, first, last)
    if bounds is not None:
        lower, upper, margin = bounds
        r = inst.renting_ratio
        walk = np.flatnonzero(r * (margin - lower) > GAIN_EPS)
        sure = np.flatnonzero(r * (-upper[walk] - margin[walk]) > GAIN_EPS)
        stop = int(sure[0]) if sure.size else walk.size
    done, rows = 0, 8
    while done < stop:
        if _past(deadline):
            return None
        cols = inst.n - int(a[walk[done]]) + 1  # of a chunk starting at this probe
        end = min(stop, done + max(1, min(rows, _CHUNK_ELEMENTS // cols)))
        chunk = walk[done:end]
        times = _times_after_reversals(inst, cache, a[chunk], b[chunk], first[chunk], last[chunk])
        # the gain change is -R * (time change); with R = 0 nothing improves
        improving = np.flatnonzero(inst.renting_ratio * (cache.total_time - times) > GAIN_EPS)
        if improving.size:
            return int(a[chunk[improving[0]]]), int(b[chunk[improving[0]]])
        done, rows = end, 2 * rows
    if stop < walk.size:
        return int(a[walk[stop]]), int(b[walk[stop]])
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
    a probe is priced by its length change, and each pass resumes where the
    last move was found (``_length_descent``).  Otherwise every pass is the
    packed pass (``_first_packed_move``), from position 1: within capacity on
    whole weights, an O(1) load interval per probe decides most probes, and
    the reversed tours of the rest are walked in chunks of probes.  Both
    accept the moves of a probe-by-probe walk.
    """
    if not cache.cum_weight.any() and _exact_length_steps(inst):
        _length_descent(inst, cache, candidates, deadline)
        return
    while (move := _first_packed_move(inst, cache, candidates, deadline)) is not None:
        _reverse(inst, cache, *move)
