"""Independent reference evaluator, written straight from the objective
definition and kept separate from the library's evaluation path.

Used as the differential-test oracle: it recomputes distances itself and
walks the tour with no caching or incremental shortcuts.
"""

import math

from ttp.instance import EdgeWeightType, Instance


def ref_distance(inst: Instance, i: int, j: int) -> float:
    if inst.edge_weight_type is EdgeWeightType.EXPLICIT:
        return float(inst.explicit_dist[i - 1][j - 1])
    xi, yi = inst.coords[i - 1]
    xj, yj = inst.coords[j - 1]
    d = math.sqrt((xi - xj) ** 2 + (yi - yj) ** 2)
    if inst.edge_weight_type is EdgeWeightType.CEIL_2D:
        return float(math.ceil(d))
    return float(math.floor(d + 0.5))  # TSPLIB's nint: halves round up


def ref_evaluate(inst: Instance, tour: list[int], packing: list[int]):
    """Returns (total_profit, travel_time, gain, final_weight, feasible)."""
    slope = (inst.v_max - inst.v_min) / inst.capacity
    profit = 0.0
    weight_at = {c: 0.0 for c in range(1, inst.n + 1)}
    for j in range(inst.m):
        if packing[j]:
            profit += inst.profit.item(j)
            weight_at[inst.city.item(j)] += inst.weight.item(j)
    time = 0.0
    carried = 0.0
    for k in range(inst.n):
        carried += weight_at[tour[k]]
        v = inst.v_max - carried * slope
        if v < inst.v_min:
            v = inst.v_min
        time += ref_distance(inst, tour[k], tour[(k + 1) % inst.n]) / v
    gain = profit - inst.renting_ratio * time
    return profit, time, gain, carried, carried <= inst.capacity
