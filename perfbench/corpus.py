"""Deterministic TTP instance corpus in the three categories of Polyakovskiy
et al. 2014 ("A comprehensive benchmark set and heuristics for the TTP").

* A: 1 item per city, bounded strongly correlated (p = w + 100), capacity
  1/11 of the total item weight.
* B: 5 items per city, uncorrelated with similar weights (w in 1000..1010),
  capacity 5/11 of the total item weight.
* C: 10 items per city, uncorrelated, capacity 10/11 of the total item weight.

The TSPLIB tours behind the published instances are not bundled, so cities
are random integer points: one uniform point in each of n cells drawn from a
square grid of ceil(sqrt(n)) x ceil(sqrt(n)) cells of 100 x 100 units
(stratified, so that tour work varies less from seed to seed than with fully
uniform points); distances are CEIL_2D.

The renting ratio is scaled per instance so that a fixed share of the items
pays for itself: an item is worth picking alone when its profit exceeds the
rent of carrying it from its city to the end of the tour at its slowed speed
(``ttp.scoring.marginal_gain``).  The ratio is set so that exactly that share
of the items clears this bar on this module's own nearest-neighbour tour.
Without it the plan picks nothing (at R = 5 on a 5000 x 5000 grid) or picks
a number of items that swings from seed to seed.

Run ``python3 perfbench/corpus.py <category> <n> <seed>`` to print one
instance.  This module does not import the program.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

import numpy as np

V_MIN = 0.1
V_MAX = 1.0

CELL = 100  # side of a grid cell

# category -> (items per city, capacity share in elevenths, knapsack type,
#              share of the items worth picking alone)
CATEGORIES = {
    "A": (1, 1, "bounded strongly corr", 0.25),
    "B": (5, 5, "uncorrelated, similar weights", 0.02),
    "C": (10, 10, "uncorrelated", 0.25),
}


@dataclass(frozen=True)
class Corpus:
    """One generated instance: the text the program reads plus the same data
    as arrays for the checker.  Item ``j`` (1-based) is row ``j - 1``."""

    n: int
    coords: np.ndarray  # (n, 2) integer coordinates
    profit: np.ndarray
    weight: np.ndarray
    city: np.ndarray  # 1-based home city of each item
    capacity: float
    renting_ratio: float
    text: str

    @property
    def m(self) -> int:
        return len(self.profit)


def ceil_dist(coords: np.ndarray, i: int, js) -> np.ndarray:
    """CEIL_2D distances from 0-based city ``i`` to the 0-based cities ``js``."""
    d = coords[js] - coords[i]
    return np.ceil(np.sqrt((d * d).sum(axis=-1)))


def suffix_distances(coords: np.ndarray) -> np.ndarray:
    """Distance from each 0-based city to the end of the greedy
    nearest-neighbour tour from city 1 (ties to the lowest id)."""
    n = len(coords)
    unvisited = np.ones(n, dtype=bool)
    unvisited[0] = False
    tour, legs = [0], []
    for _ in range(n - 1):
        rest = np.flatnonzero(unvisited)
        d = ceil_dist(coords, tour[-1], rest)
        k = int(np.argmin(d))
        legs.append(float(d[k]))
        tour.append(int(rest[k]))
        unvisited[tour[-1]] = False
    legs.append(float(ceil_dist(coords, tour[-1], [0])[0]))
    suffix = np.empty(n)
    suffix[tour] = np.cumsum(legs[::-1])[::-1]
    return suffix


def generate(category: str, n: int, seed: int) -> Corpus:
    per_city, elevenths, ktype, worth_share = CATEGORIES[category]
    rng = random.Random(f"{category}-{n}-{seed}")
    side = math.ceil(math.sqrt(n))
    cells = rng.sample(range(side * side), n)
    coords = np.array([((c % side) * CELL + rng.randrange(CELL),
                        (c // side) * CELL + rng.randrange(CELL)) for c in cells], dtype=float)

    rows = []
    for c in range(2, n + 1):
        for _ in range(per_city):
            if category == "A":
                w = rng.randint(1, 1000)
                p = w + 100
            elif category == "B":
                w = rng.randint(1000, 1010)
                p = rng.randint(1, 1000)
            else:
                w = rng.randint(1, 1000)
                p = rng.randint(1, 1000)
            rows.append((p, w, c))
    profit = np.array([r[0] for r in rows], dtype=float)
    weight = np.array([r[1] for r in rows], dtype=float)
    city = np.array([r[2] for r in rows], dtype=int)
    capacity = float(math.floor(elevenths / 11 * weight.sum()))

    # an item is worth picking alone while R < profit * speed / suffix
    # distance; items too heavy to move at all (speed <= 0) never are
    speed = V_MAX - weight * (V_MAX - V_MIN) / capacity
    bar = np.sort(profit * speed / suffix_distances(coords)[city - 1])[::-1]
    bar = bar[bar > 0]
    if len(bar) < 2:
        raise ValueError(f"too few items fit to set a renting ratio ({category}, n={n})")
    worth = min(max(1, int(worth_share * len(profit))), len(bar) - 1)
    renting_ratio = float(f"{(bar[worth - 1] + bar[worth]) / 2:.6g}")

    name = f"{category.lower()}{n}-s{seed}"
    lines = [
        f"PROBLEM NAME: {name}",
        f"KNAPSACK DATA TYPE: {ktype}",
        f"DIMENSION: {n}",
        f"NUMBER OF ITEMS: {len(rows)}",
        f"CAPACITY OF KNAPSACK: {capacity:.0f}",
        f"MIN SPEED: {V_MIN}",
        f"MAX SPEED: {V_MAX}",
        f"RENTING RATIO: {renting_ratio}",
        "EDGE_WEIGHT_TYPE: CEIL_2D",
        "NODE_COORD_SECTION (INDEX, X, Y):",
    ]
    lines += [f"{i} {x:.0f} {y:.0f}" for i, (x, y) in enumerate(coords, start=1)]
    lines.append("ITEMS SECTION (INDEX, PROFIT, WEIGHT, ASSIGNED NODE NUMBER):")
    lines += [f"{j} {p} {w} {c}" for j, (p, w, c) in enumerate(rows, start=1)]
    return Corpus(
        n=n,
        coords=coords,
        profit=profit,
        weight=weight,
        city=city,
        capacity=capacity,
        renting_ratio=renting_ratio,
        text="\n".join(lines) + "\n",
    )


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in CATEGORIES:
        sys.exit("usage: corpus.py {A,B,C} <n> <seed>")
    sys.stdout.write(generate(sys.argv[1], int(sys.argv[2]), int(sys.argv[3])).text)
