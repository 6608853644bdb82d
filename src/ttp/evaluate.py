"""Exact and incremental evaluation of the TTP objective.

The gain of a (tour, packing) pair is total picked profit minus the knapsack
rent, where rent is the renting ratio times the load-dependent travel time.
Velocity drops linearly with carried weight from v_max (empty) to v_min
(full).  Over-capacity packings are evaluated with velocity clamped at v_min
and flagged infeasible instead of being rejected, so search operators can
probe and discard them uniformly.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field

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

    def copy(self) -> "Solution":
        return Solution(list(self.tour), list(self.packing))

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
    ``suffix_dist[k]`` the tour distance from position k to the end of the
    cyclic tour (back to city 1);
    ``deltas[item]`` a ``delta_flip`` result already computed on this state.

    ``flip`` and the 2-OPT move update it in place.  Every update repeats the
    arithmetic of ``build_prefix_cache`` on the suffix it changes, so the
    state stays bit-identical to a fresh build.
    """

    city_at: np.ndarray
    position: np.ndarray
    city_weight: np.ndarray
    cum_weight: np.ndarray
    inv_speed: np.ndarray
    arrive_time: np.ndarray
    leg_dist: np.ndarray
    suffix_dist: np.ndarray
    total_time: float
    # a probe costs a fixed ~10 us of numpy calls; on tiny instances SA
    # probes the same few items thousands of times between two updates
    deltas: dict[int, float] = field(default_factory=dict)

    def copy(self) -> "PrefixCache":
        return deepcopy(self)


def velocity_at(inst: Instance, cumulative_weight: float) -> float:
    """Velocity under the given load; exactly v_min at capacity, clamped
    at v_min past it."""
    if cumulative_weight >= inst.capacity:
        return inst.v_min
    v = inst.v_max - cumulative_weight * inst.weight_velocity_slope
    return max(v, inst.v_min)


def velocities(inst: Instance, carried: np.ndarray) -> np.ndarray:
    """``velocity_at`` over an array of loads, with the same arithmetic."""
    v = np.maximum(inst.v_max - carried * inst.weight_velocity_slope, inst.v_min)
    v[carried >= inst.capacity] = inst.v_min
    return v


def _walk(inst: Instance, sol: Solution):
    """One pass over the tour: the picked weight per city, the tour as 0-based
    city ids, loads, velocities and legs per position, and the running travel
    time after each leg.

    Legs come from ``_distances``, which equals ``Instance.distance``, and
    every sum runs left to right (``cumsum``), so the floats equal those of a
    plain loop over the tour.
    """
    picked = np.flatnonzero(sol.packing)
    city_weight = np.zeros(inst.n)
    np.add.at(city_weight, inst.city[picked] - 1, inst.weight[picked])  # in item order
    city_at = np.array(sol.tour, dtype=np.intp) - 1
    if city_at.size and not 0 <= city_at.min() <= city_at.max() < inst.n:
        raise IndexError("city id out of range")
    cum_weight = city_weight[city_at].cumsum()
    speed = velocities(inst, cum_weight)
    leg_dist = _distances(inst, city_at, np.roll(city_at, -1))
    elapsed = (leg_dist / speed).cumsum()
    return city_weight, city_at, cum_weight, speed, leg_dist, elapsed


def evaluate(inst: Instance, sol: Solution) -> EvalResult:
    """Full objective evaluation of a solution."""
    if len(sol.packing) != inst.m:
        raise ValueError("packing length does not match item count")
    _, _, cum_weight, _, _, elapsed = _walk(inst, sol)
    total_profit = sequential_sum(inst.profit[np.flatnonzero(sol.packing)])
    time = float(elapsed[-1])
    final_weight = float(cum_weight[-1])
    return EvalResult(
        total_profit=total_profit,
        travel_time=time,
        gain=total_profit - inst.renting_ratio * time,
        final_weight=final_weight,
        feasible=final_weight <= inst.capacity + 1e-12,
    )


def build_prefix_cache(inst: Instance, sol: Solution) -> PrefixCache:
    city_weight, city_at, cum_weight, speed, leg_dist, elapsed = _walk(inst, sol)
    position = np.empty(inst.n, dtype=np.intp)
    position[city_at] = np.arange(inst.n)
    return PrefixCache(
        city_at=city_at,
        position=position,
        city_weight=city_weight,
        cum_weight=cum_weight,
        inv_speed=1.0 / speed,
        arrive_time=np.concatenate(([0.0], elapsed[:-1])),
        leg_dist=leg_dist,
        suffix_dist=leg_dist[::-1].cumsum()[::-1].copy(),
        total_time=float(elapsed[-1]),
    )


def delta_flip(inst: Instance, sol: Solution, cache: PrefixCache, item: int) -> float:
    """Gain change from flipping item ``item`` (1-based), in time proportional
    to the tour suffix after the item's home city."""
    if not (1 <= item <= inst.m):
        raise IndexError(f"item index out of range: {item}")
    delta = cache.deltas.get(item)
    if delta is None:
        j = item - 1  # .item(j) reads a Python number, cheaper than a numpy scalar
        sign = -1.0 if sol.packing[j] else 1.0
        k0 = cache.position[inst.city.item(j) - 1]
        new_inv = 1.0 / velocities(inst, cache.cum_weight[k0:] + sign * inst.weight.item(j))
        dt = (cache.leg_dist[k0:] * (new_inv - cache.inv_speed[k0:])).cumsum()[-1]
        delta = cache.deltas[item] = sign * inst.profit.item(j) - inst.renting_ratio * float(dt)
    return delta


def flip(inst: Instance, sol: Solution, cache: PrefixCache, item: int) -> None:
    """Flip item ``item`` (1-based) in ``sol.packing`` and bring ``cache`` up
    to date in place: ``city_weight`` at the item's city, then
    ``cum_weight``, ``inv_speed``, ``arrive_time`` and ``total_time`` over the
    tour suffix from that city, and empties ``deltas``.  The tour fields are
    left as they are."""
    sol.packing[item - 1] ^= 1
    cache.deltas.clear()
    city = inst.city[item - 1]
    # summed afresh in item order, as build_prefix_cache does, not adjusted
    # by the flipped weight, which would leave a rounding residue
    homed = np.flatnonzero(inst.city == city)
    cache.city_weight[city - 1] = sequential_sum(inst.weight[[j for j in homed if sol.packing[j]]])
    k0 = cache.position[city - 1]
    load = cache.city_weight[cache.city_at[k0:]]
    if k0:
        load[0] += cache.cum_weight[k0 - 1]
    cum_weight = load.cumsum()
    speed = velocities(inst, cum_weight)
    step = cache.leg_dist[k0:] / speed
    step[0] += cache.arrive_time[k0]
    elapsed = step.cumsum()
    cache.cum_weight[k0:] = cum_weight
    cache.inv_speed[k0:] = 1.0 / speed
    cache.arrive_time[k0 + 1:] = elapsed[:-1]
    cache.total_time = float(elapsed[-1])
