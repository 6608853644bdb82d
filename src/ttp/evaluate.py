"""Exact and incremental evaluation of the TTP objective.

The gain of a (tour, packing) pair is total picked profit minus the knapsack
rent, where rent is the renting ratio times the load-dependent travel time.
Velocity drops linearly with carried weight from v_max (empty) to v_min
(full).  Over-capacity packings are evaluated with velocity clamped at v_min
and flagged infeasible instead of being rejected, so search operators can
probe and discard them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from ttp.instance import Instance, _distances, sequential_sum

# Absolute tolerance used when deciding improvement ties on gains.
GAIN_EPS = 1e-9


@dataclass
class Solution:
    """A tour permutation (1-based city ids, starting at city 1) plus a
    binary picking plan over items 1..m."""

    tour: list[int]
    packing: list[int]

    def validate(self, inst: Instance) -> None:
        if len(self.tour) != inst.n or sorted(self.tour) != list(range(1, inst.n + 1)):
            raise ValueError("tour is not a permutation of 1..n")
        if self.tour[0] != 1:
            raise ValueError("tour must start at city 1")
        if len(self.packing) != inst.m:
            raise ValueError("packing length does not match item count")
        if any(z not in (0, 1) for z in self.packing):
            raise ValueError("packing entries must be 0 or 1")


@dataclass(frozen=True)
class EvalResult:
    total_profit: float
    travel_time: float
    gain: float
    final_weight: float
    feasible: bool


@dataclass
class PrefixCache:
    """The incremental tour state: per-tour-position data for probing flips
    and 2-OPT moves without a full walk.

    ``city_at[k]`` is the 0-based id of the city at tour position k and
    ``position[city-1]`` the position of a 1-based city id;
    ``city_weight[city-1]`` the picked weight homed at a city;
    ``cum_weight[k]`` the carried weight after collecting at position k and
    ``inv_speed[k]`` one over the velocity under that load;
    ``arrive_time[k]`` the travel time accumulated upon arriving there;
    ``leg_dist[k]`` the distance from position k to the next (cyclically);
    ``packing`` the picking plan, one byte 0 or 1 per item, which reads as
    a Python int.  The knapsack load is ``cum_weight[-1]``; distances to
    the tour's end are summed from ``leg_dist`` by their readers.

    The state is the solution: its tour is ``city_at`` and its plan
    ``packing``, and ``solution()`` copies both out as lists.  ``flip`` and
    the 2-OPT move update it in place.  The build and every update write the
    loads and times from the first tour position they change, through one
    routine, ``_retime``, or, on an instance with ``exact_loads``, by
    shifting the loads by the flipped weight, so the state stays
    bit-identical to a fresh build, and ``gain`` equals
    ``evaluate(...).gain`` of ``solution()``.

    ``probe`` is the one thing kept beyond the solution: on an instance with
    ``exact_loads``, the last ``delta_flip`` leaves its 0-based item and the
    suffix speeds and inverse speeds it priced, for ``flip`` of that item
    to commit.  Every write to the state (``flip``, ``_retime``) drops it.
    """

    city_at: np.ndarray
    position: np.ndarray
    city_weight: np.ndarray
    cum_weight: np.ndarray
    inv_speed: np.ndarray
    arrive_time: np.ndarray
    leg_dist: np.ndarray
    total_time: float
    packing: bytearray
    probe: Optional[tuple[int, np.ndarray, np.ndarray]] = field(default=None, repr=False)

    def gain(self, inst: Instance) -> float:
        """The gain of this solution, as ``evaluate`` computes it."""
        return _profit(inst, self.packing) - inst.renting_ratio * self.total_time

    def solution(self) -> Solution:
        """A copy of the solution this state describes."""
        return Solution((self.city_at + 1).tolist(), list(self.packing))


def velocities(inst: Instance, carried: np.ndarray) -> np.ndarray:
    """The velocity under each load: v_max - load * (v_max - v_min) / capacity,
    clamped at v_min, and exactly v_min at or past capacity.

    ``carried`` is a 1-D array of loads or a 2-D array of rows of loads, and
    every row must be nondecreasing, as the running loads along a tour are.
    Then the last entry of a row holds its largest load and its lowest
    speed, so the clamp and the exact-v_min mask, both written in place,
    are applied only when the last speed of some row falls below v_min or
    its last load reaches capacity; otherwise they would change nothing.
    """
    v = carried * inst.weight_velocity_slope
    np.subtract(inst.v_max, v, out=v)
    if carried.ndim == 1:
        top, low = carried.item(-1), v.item(-1)
    else:
        top, low = carried[:, -1].max(), v[:, -1].min()
    if low < inst.v_min or top >= inst.capacity:
        np.maximum(v, inst.v_min, out=v)
        v[carried >= inst.capacity] = inst.v_min
    return v


def _profit(inst: Instance, packing: Sequence[int]) -> float:
    return sequential_sum(inst.profit[np.flatnonzero(packing)])


def evaluate(inst: Instance, sol: Solution) -> EvalResult:
    """Full objective evaluation of a solution; raises ``ValueError`` when
    ``sol`` fails ``Solution.validate``."""
    cache = build_prefix_cache(inst, sol)
    total_profit = _profit(inst, sol.packing)
    final_weight = float(cache.cum_weight[-1])
    return EvalResult(
        total_profit=total_profit,
        travel_time=cache.total_time,
        gain=total_profit - inst.renting_ratio * cache.total_time,
        final_weight=final_weight,
        feasible=final_weight <= inst.capacity,
    )


def build_prefix_cache(inst: Instance, sol: Solution) -> PrefixCache:
    """The tour state of ``sol``, which it copies (the packing as bytes);
    raises ``ValueError`` when ``sol`` fails ``Solution.validate``.

    Legs come from ``_distances``, which equals ``Instance.distance``, and
    the picked weight per city is summed in item order.
    """
    sol.validate(inst)
    picked = np.flatnonzero(sol.packing)
    city_weight = np.zeros(inst.n)
    np.add.at(city_weight, inst.city[picked] - 1, inst.weight[picked])  # in item order
    city_at = np.array(sol.tour, dtype=np.intp) - 1
    position = np.empty(inst.n, dtype=np.intp)
    position[city_at] = np.arange(inst.n)
    cache = PrefixCache(
        city_at=city_at,
        position=position,
        city_weight=city_weight,
        cum_weight=np.empty(inst.n),
        inv_speed=np.empty(inst.n),
        arrive_time=np.zeros(inst.n),
        leg_dist=_distances(inst, city_at, np.roll(city_at, -1)),
        total_time=0.0,
        packing=bytearray(map(int, sol.packing)),
    )
    _retime(inst, cache, 0)
    return cache


def _retime(inst: Instance, cache: PrefixCache, k: int) -> None:
    """Rewrite ``cum_weight[k:]``, ``inv_speed[k:]``, ``arrive_time[k+1:]``
    and ``total_time`` from ``city_at``, ``city_weight`` and ``leg_dist``,
    continuing from ``cum_weight[k-1]`` and ``arrive_time[k]``; drops the
    kept probe.

    The loads and inverse speeds are accumulated straight into the views
    ``cum_weight[k:]`` and ``inv_speed[k:]``.  Every sum runs left to right
    (``np.add.accumulate``, the ``cumsum`` loop without the Python wrapper
    of ``np.cumsum``) and continues from the entry before k, so it adds the
    same floats in the same order as a walk over the whole tour, and the
    state equals a fresh ``build_prefix_cache`` bit for bit.
    """
    cache.probe = None
    cum_weight = cache.cum_weight[k:]
    # every index is valid; "clip" spares the buffered copy of mode "raise"
    cache.city_weight.take(cache.city_at[k:], out=cum_weight, mode="clip")
    if k:
        cum_weight[0] += cache.cum_weight.item(k - 1)
    np.add.accumulate(cum_weight, out=cum_weight)
    speed = velocities(inst, cum_weight)
    np.divide(1.0, speed, out=cache.inv_speed[k:])
    _write_times(cache, k, speed)


def _write_times(cache: PrefixCache, k: int, speed: np.ndarray) -> None:
    """Rewrite ``arrive_time[k+1:]`` and ``total_time`` from the speeds
    ``speed`` at positions k on, continuing from ``arrive_time[k]``;
    ``speed`` is overwritten."""
    step = np.divide(cache.leg_dist[k:], speed, out=speed)
    step[0] += cache.arrive_time.item(k)  # 0.0 at k = 0, which changes no float
    np.add.accumulate(step, out=step)
    cache.arrive_time[k + 1:] = step[:-1]
    cache.total_time = step.item(-1)


def delta_flip(inst: Instance, cache: PrefixCache, item: int) -> float:
    """Gain change from flipping item ``item`` (1-based), in time proportional
    to the tour suffix after the item's home city.  The state is unchanged,
    but on an instance with ``exact_loads`` it keeps the suffix speeds and
    inverse speeds priced here as its ``probe``, for ``flip`` to commit."""
    if not (1 <= item <= inst.m):
        raise IndexError(f"item index out of range: {item}")
    j = item - 1  # .item(j) reads a Python number, cheaper than a numpy scalar
    sign = -1.0 if cache.packing[j] else 1.0
    k0 = cache.position.item(inst.city.item(j) - 1)
    load = cache.cum_weight[k0:] + sign * inst.weight.item(j)
    speed = velocities(inst, load)
    inv = np.divide(1.0, speed)
    if inst.exact_loads:
        cache.probe = (j, speed, inv)
    step = np.subtract(inv, cache.inv_speed[k0:], out=load)
    np.multiply(cache.leg_dist[k0:], step, out=step)
    dt = np.add.accumulate(step, out=step).item(-1)
    return sign * inst.profit.item(j) - inst.renting_ratio * dt


def flip(inst: Instance, cache: PrefixCache, item: int) -> None:
    """Flip item ``item`` (1-based) in ``cache.packing`` and bring the rest
    of the state up to date in place: ``city_weight`` at the item's city,
    then ``cum_weight``, ``inv_speed``, ``arrive_time`` and ``total_time``
    over the tour suffix from that city.  The tour fields are left as they
    are, and the kept probe is dropped.

    With ``exact_loads`` the loads are shifted by the item's weight, which
    equals summing them afresh; and when the kept probe is this item's, its
    speeds are the new ones, so they are committed, not computed again.
    Otherwise the flip is ``flip_items`` of the one item.
    """
    if not inst.exact_loads:
        flip_items(inst, cache, (item,))
        return
    if not (1 <= item <= inst.m):
        raise IndexError(f"item index out of range: {item}")
    j, packing = item - 1, cache.packing
    packing[j] ^= 1
    city = inst.city.item(j)
    k = cache.position.item(city - 1)
    w = inst.weight.item(j) if packing[j] else -inst.weight.item(j)
    cache.city_weight[city - 1] += w
    load = cache.cum_weight[k:]
    np.add(load, w, out=load)
    probe, cache.probe = cache.probe, None
    if probe is not None and probe[0] == j:
        _, speed, inv = probe
        cache.inv_speed[k:] = inv
    else:
        speed = velocities(inst, load)
        np.divide(1.0, speed, out=cache.inv_speed[k:])
    _write_times(cache, k, speed)


def flip_items(inst: Instance, cache: PrefixCache, items: Iterable[int]) -> None:
    """Flip every item of ``items`` (1-based) in ``cache.packing``, then
    bring the state up to date in place with one ``_retime`` from the first
    tour position touched; the tour fields are left as they are.  With no
    items nothing is written.

    The picked weight of each touched city is summed afresh in item order,
    left to right as ``sequential_sum`` and ``build_prefix_cache`` add, not
    adjusted by the flipped weights, which on float weights would leave a
    rounding residue.  The state before that position is untouched and
    equals a fresh build, so the one ``_retime`` gives the state that
    flipping the items one by one gives, bit for bit.
    """
    rows = []
    for item in items:
        if not (1 <= item <= inst.m):
            raise IndexError(f"item index out of range: {item}")
        rows.append(item - 1)
    if not rows:
        return
    packing, weight = cache.packing, inst.weight
    for j in rows:
        packing[j] ^= 1
    cities = {inst.city.item(j) for j in rows}
    for city in cities:
        total = 0.0
        for i in inst.city_items[city - 1]:
            if packing[i]:
                total += weight.item(i)
        cache.city_weight[city - 1] = total
    _retime(inst, cache, min(cache.position.item(city - 1) for city in cities))
