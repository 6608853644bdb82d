"""Item scoring for the picking heuristic.

An item's score is profit / (weight^alpha * suffix distance), where the
suffix distance is the tour distance from the item's home city to the end of
the cyclic tour.  Raising alpha above 1 amplifies the weight's influence,
which pays off on instances where many items compete for capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ttp.evaluate import PrefixCache
from ttp.instance import Instance, sequential_sum

DEFAULT_ALPHA = 1.5


@dataclass
class ScoreTable:
    """Per-item scores plus the aggregate statistics driving plan construction.

    ``scores[j]``, ``marginal[j]`` and ``suffix[j]`` are indexed by 0-based
    item index; ``suffix[j]`` is the distance from the item's city to the end
    of the tour (``suffix_distances``).
    Items whose standalone insertion gain is nonpositive (or that cannot fit
    at all) are excluded from ``order``, ``avg_score``, ``max_score`` and the
    positive count ``l``.
    """

    scores: list[float]
    marginal: list[float]
    suffix: list[float]
    avg_score: float
    max_score: float
    positive_count: int
    ratio: float
    order: list[int]  # 1-based item indices, descending score, ties by index


def _power(w: float, alpha: float) -> float:
    """``w ** alpha`` by Python's ``pow``, +inf where that overflows."""
    try:
        return w ** alpha
    except OverflowError:
        return math.inf


def _powers(weights: np.ndarray, alpha: float) -> np.ndarray:
    """``_power`` of every weight, called once per distinct weight: the
    weights in sorted order, grouped where a weight differs from the one
    before."""
    order = np.argsort(weights)
    ordered = weights[order]
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = np.array([_power(w, alpha) for w in ordered[first].tolist()])
    powers = np.empty(len(ordered))
    powers[order] = distinct[first.cumsum() - 1]
    return powers


def suffix_distances(cache: PrefixCache) -> np.ndarray:
    """Per tour position k, the distance from k to the end of the cyclic
    tour, summed from the tour's end.  Every suffix distance, and the tour
    length (position 0), is summed this way, which the plan's chord bound
    relies on."""
    return cache.leg_dist[::-1].cumsum()[::-1]


def build_score_table(inst: Instance, cache: PrefixCache, alpha: float = DEFAULT_ALPHA) -> ScoreTable:
    """The table of every item under the current tour, in one pass over the
    item arrays.

    An item's score is profit / (weight^alpha * suffix), +inf when its suffix
    distance is zero (the item is effectively free to carry).  Its marginal
    gain is its standalone insertion gain into an empty knapsack, charging
    the slowed speed over the whole suffix: profit - R * suffix / v, -inf for
    an item heavier than the capacity.  ``weight ** alpha`` is Python's
    ``pow``, which ``np.power`` may not match in the last bit, taken once
    per distinct weight; where it overflows it reads as +inf, which scores
    the item 0, the limit of the formula.  The mean score is a ``sequential_sum``, whose order of
    additions does not depend on the Python version, as the builtin
    ``sum``'s does from 3.12 on.
    """
    suffix = suffix_distances(cache)[cache.position[inst.city - 1]]
    speed = inst.v_max - inst.weight * inst.weight_velocity_slope
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scores = inst.profit / (_powers(inst.weight, alpha) * suffix)
        marginal = inst.profit - inst.renting_ratio * suffix / speed
    scores[suffix == 0.0] = math.inf  # also where an infinite power meets it
    marginal[(inst.weight > inst.capacity) | (speed <= 0)] = -math.inf
    eligible = np.flatnonzero(marginal > 0)
    l = len(eligible)
    if l:
        top = scores[eligible]
        finite = top[np.isfinite(top)]
        avg = sequential_sum(finite) / l if len(finite) else math.inf
        mx = float(top.max())
    else:
        avg = 0.0
        mx = 0.0
    return ScoreTable(
        scores=scores.tolist(),
        marginal=marginal.tolist(),
        suffix=suffix.tolist(),
        avg_score=avg,
        max_score=mx,
        positive_count=l,
        ratio=l / inst.m if inst.m else 0.0,
        order=(eligible[np.argsort(-scores[eligible], kind="stable")] + 1).tolist(),
    )
