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

    ``scores[j]`` and ``marginal[j]`` are indexed by 0-based item index.
    Items whose standalone insertion gain is nonpositive (or that cannot fit
    at all) are excluded from ``order``, ``avg_score``, ``max_score`` and the
    positive count ``l``.
    """

    scores: list[float]
    marginal: list[float]
    avg_score: float
    max_score: float
    positive_count: int
    ratio: float
    order: list[int]  # 1-based item indices, descending score, ties by index


def build_score_table(inst: Instance, cache: PrefixCache, alpha: float = DEFAULT_ALPHA) -> ScoreTable:
    """The table of every item under the current tour, in one pass over the
    item arrays.

    An item's score is profit / (weight^alpha * suffix), +inf when its suffix
    distance is zero (the item is effectively free to carry).  Its marginal
    gain is its standalone insertion gain into an empty knapsack, charging
    the slowed speed over the whole suffix: profit - R * suffix / v, -inf for
    an item heavier than the capacity.  ``weight ** alpha`` is Python's
    ``pow``, which ``np.power`` may not match in the last bit, and the mean
    score is a ``sequential_sum``, whose order of additions does not depend
    on the Python version, as the builtin ``sum``'s does from 3.12 on.
    """
    suffix = cache.suffix_dist[cache.position[inst.city - 1]]
    speed = inst.v_max - inst.weight * inst.weight_velocity_slope
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero suffix divides a positive profit by zero: +inf
        scores = inst.profit / (np.array([w ** alpha for w in inst.weight.tolist()]) * suffix)
        marginal = inst.profit - inst.renting_ratio * suffix / speed
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
        avg_score=avg,
        max_score=mx,
        positive_count=l,
        ratio=l / inst.m if inst.m else 0.0,
        order=(eligible[np.argsort(-scores[eligible], kind="stable")] + 1).tolist(),
    )
