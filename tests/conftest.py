import random
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from ttp.evaluate import Solution, build_prefix_cache, evaluate
from ttp.instance import EdgeWeightType, Instance, load_instance

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def example5() -> Instance:
    """The 5-city / 4-item worked-example instance with explicit distances."""
    return load_instance(FIXTURES / "example5.ttp")


@pytest.fixture(scope="session")
def category_c() -> Instance:
    return load_instance(FIXTURES / "category_c_20.ttp")


def columns(rows) -> dict:
    """``Instance`` keyword arguments for items given as (profit, weight, city) rows."""
    profit, weight, city = zip(*rows) if rows else ((), (), ())
    return dict(profit=profit, weight=weight, city=city)


def make_random_instance(rng: random.Random, n: int, m: int,
                         cap_fraction: tuple[float, float] = (0.3, 0.8)) -> Instance:
    coords = np.array([[rng.uniform(0, 100), rng.uniform(0, 100)] for _ in range(n)])
    rows = [(rng.randint(10, 100), rng.randint(1, 50), rng.randint(2, n)) for _ in range(m)]
    total = sum(w for _, w, _ in rows)
    cap = max(1.0, round(rng.uniform(*cap_fraction) * total)) if m else 10.0
    return Instance(
        name=f"rand-n{n}-m{m}",
        n=n,
        m=m,
        coords=coords,
        **columns(rows),
        capacity=cap,
        v_min=0.1,
        v_max=1.0,
        renting_ratio=rng.uniform(0.5, 5.0),
        edge_weight_type=EdgeWeightType.CEIL_2D,
    )


def float_instance(rng: random.Random, n: int, m: int, explicit: bool = False) -> Instance:
    """Random instance with float profits and weights, so that sums in
    another order would round differently; EXPLICIT distances are
    symmetric floats."""
    base = make_random_instance(rng, n, 0)
    rows = [(rng.uniform(1, 100), rng.uniform(0.1, 40), rng.randint(2, n)) for _ in range(m)]
    cap = max(1.0, rng.uniform(0.2, 0.7) * sum(w for _, w, _ in rows))
    if explicit:
        d = np.array([[rng.uniform(1, 50) for _ in range(n)] for _ in range(n)])
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        return Instance(base.name, n, m, None, **columns(rows), capacity=cap, v_min=0.1, v_max=1.0,
                        renting_ratio=rng.uniform(0.5, 5.0), edge_weight_type=EdgeWeightType.EXPLICIT,
                        explicit_dist=d)
    return Instance(base.name, n, m, base.coords, **columns(rows), capacity=cap, v_min=0.1, v_max=1.0,
                    renting_ratio=rng.uniform(0.5, 5.0),
                    edge_weight_type=rng.choice([EdgeWeightType.CEIL_2D, EdgeWeightType.EUC_2D]))


def feasible_packings(inst: Instance):
    for z in product([0, 1], repeat=inst.m):
        if sum(inst.weight.item(j) * z[j] for j in range(inst.m)) <= inst.capacity:
            yield list(z)


def brute_force_best_packing(inst: Instance, tour: list[int]) -> float:
    """Exhaustive 2^m enumeration of feasible plans on a fixed tour."""
    return max(evaluate(inst, Solution(list(tour), z)).gain for z in feasible_packings(inst))


def brute_force_best_solution(inst: Instance) -> float:
    """Exhaustive tour x packing enumeration; only viable for tiny instances."""
    best = float("-inf")
    for perm in permutations(range(2, inst.n + 1)):
        tour = [1] + list(perm)
        best = max(best, brute_force_best_packing(inst, tour))
    return best


def random_solution(rng: random.Random, inst: Instance, feasible: bool = True) -> Solution:
    rest = list(range(2, inst.n + 1))
    rng.shuffle(rest)
    tour = [1] + rest
    packing = [0] * inst.m
    order = list(range(inst.m))
    rng.shuffle(order)
    weight = 0.0
    for j in order:
        if rng.random() < 0.5:
            w = inst.weight.item(j)
            if feasible and weight + w > inst.capacity:
                continue
            packing[j] = 1
            weight += w
    return Solution(tour, packing)


def improved(inst: Instance, sol: Solution, improve, *args) -> Solution:
    """The solution that ``improve(inst, state, *args)`` leaves in a state
    built for ``sol``; ``sol`` is not changed."""
    cache = build_prefix_cache(inst, sol)
    improve(inst, cache, *args)
    return cache.solution()


def drift_instance_text(rng: random.Random) -> str:
    """A 4-city instance file with one item at each of cities 2..4, whose
    float weights near 1e5 add up to different totals in different orders;
    the capacity is the smallest of those totals, so a packing of all three
    fits in some orders of addition and not in others.  Profits far above
    the rent make every item worth picking."""
    while True:
        weights = [rng.uniform(0.9e5, 1.1e5) for _ in range(3)]
        totals = {(weights[a] + weights[b]) + weights[c] for a, b, c in permutations(range(3))}
        if len(totals) > 1:
            break
    coords = [(rng.randint(0, 100), rng.randint(0, 100)) for _ in range(4)]
    homes = rng.sample(range(2, 5), 3)
    return "\n".join([
        "PROBLEM NAME: drift",
        "KNAPSACK DATA TYPE: float weights",
        "DIMENSION: 4",
        "NUMBER OF ITEMS: 3",
        f"CAPACITY OF KNAPSACK: {min(totals)!r}",
        "MIN SPEED: 0.1",
        "MAX SPEED: 1",
        f"RENTING RATIO: {rng.uniform(0.01, 0.1)!r}",
        "EDGE_WEIGHT_TYPE: CEIL_2D",
        "NODE_COORD_SECTION (INDEX, X, Y):",
        *(f"{i} {x} {y}" for i, (x, y) in enumerate(coords, 1)),
        "ITEMS SECTION (INDEX, PROFIT, WEIGHT, ASSIGNED NODE NUMBER):",
        *(f"{j} {rng.uniform(1e5, 2e5)!r} {w!r} {c}" for j, (w, c) in enumerate(zip(weights, homes), 1)),
    ]) + "\n"


def point_set(rng, kind):
    """(coordinates, edge weight type) of one kind of set of 40 points:

    * ``ceil-grid``: CEIL_2D on a 12 x 12 integer grid, where many lengths
      are exact integers, the rounding points of CEIL_2D;
    * ``euc-half``: EUC_2D on a grid of step 0.5, where some lengths are
      exact halves, which EUC_2D rounds up;
    * ``ceil-float`` and ``euc-float``: uniform float coordinates, negative
      ones too;
    * ``duplicates``: EUC_2D on 6 distinct integer points, each repeated;
    * ``int-array``: CEIL_2D on an integer grid given as an int64 array.
    """
    n = 40
    if kind in ("ceil-float", "euc-float"):
        pts = [(rng.uniform(-500, 500), rng.uniform(-500, 500)) for _ in range(n)]
    elif kind == "duplicates":
        distinct = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(6)]
        pts = [rng.choice(distinct) for _ in range(n)]
    else:
        cells = rng.sample([(x, y) for x in range(12) for y in range(12)], n)
        step = 0.5 if kind == "euc-half" else 1
        pts = [(x * step, y * step) for x, y in cells]
    coords = np.array(pts, dtype=np.int64 if kind == "int-array" else float)
    ewt = EdgeWeightType.EUC_2D if kind.startswith("euc") or kind == "duplicates" else EdgeWeightType.CEIL_2D
    return coords, ewt


POINT_SETS = ["ceil-grid", "euc-half", "ceil-float", "euc-float", "duplicates", "int-array"]


def points_instance(coords, ewt) -> Instance:
    """An item-less instance on the coordinates ``coords``."""
    return Instance("pts", len(coords), 0, coords, [], [], [], 10.0, 0.1, 1.0, 1.0, ewt)
