import dataclasses
import math
import random

import pytest

from ttp.evaluate import Solution, build_prefix_cache
from ttp.scoring import build_score_table

from conftest import columns, make_random_instance
from loop_eval import loop_item_score, loop_score_table
from ttp.instance import EdgeWeightType, Instance
import numpy as np


@pytest.fixture
def ex_cache(example5):
    return build_prefix_cache(example5, Solution([1, 2, 3, 4, 5], [0, 0, 0, 0]))


def test_golden_scores_alpha_1(example5, ex_cache):
    scores = build_score_table(example5, ex_cache, 1.0).scores
    assert scores == pytest.approx([1.01, 0.8, 1.0, 1.0])


def test_score_alpha_15(example5, ex_cache):
    assert build_score_table(example5, ex_cache, 1.5).scores[0] == pytest.approx(101 / (10**1.5 * 10))


def test_zero_suffix_gives_infinite_score():
    # both cities at the same spot: suffix distance from city 2 is 0
    inst = Instance("dup", 2, 1, np.array([[0.0, 0.0], [0.0, 0.0]]),
                    [5], [1], [2], 10, 0.1, 1, 1, EdgeWeightType.CEIL_2D)
    cache = build_prefix_cache(inst, Solution([1, 2], [0]))
    table = build_score_table(inst, cache, 1.5)
    assert table.scores == [math.inf]
    assert table.order == [1]


def test_marginal_gain_hand_values(example5, ex_cache):
    marginal = build_score_table(example5, ex_cache).marginal
    # item 1: 101 - 10 / (1 - 10*0.09) = 1
    assert marginal[0] == pytest.approx(1.0)
    # item 4: suffix 1, w=2 -> 2 - 1/(1 - 0.18)
    assert marginal[3] == pytest.approx(2 - 1 / 0.82)


def test_marginal_gain_weightless_limit():
    inst = make_random_instance(random.Random(1), 5, 0)
    inst = Instance(inst.name, inst.n, 1, inst.coords, [1000.0], [1e-9], [3], inst.capacity,
                    inst.v_min, inst.v_max, inst.renting_ratio, inst.edge_weight_type)
    sol = Solution(list(range(1, 6)), [0])
    cache = build_prefix_cache(inst, sol)
    suffix = inst.distance(3, 4) + inst.distance(4, 5) + inst.distance(5, 1)  # from item 1's city 3
    expect = 1000.0 - inst.renting_ratio * suffix / inst.v_max
    assert build_score_table(inst, cache).marginal[0] == pytest.approx(expect, rel=1e-6)


def test_overweight_item_is_ineligible(example5):
    inst = Instance(example5.name, 5, 4, None, example5.profit, [100.0] * 4, example5.city, 10, 0.1, 1, 1,
                    EdgeWeightType.EXPLICIT, example5.explicit_dist)
    cache = build_prefix_cache(inst, Solution([1, 2, 3, 4, 5], [0] * 4))
    table = build_score_table(inst, cache, 1.0)
    assert table.marginal == [-math.inf] * 4
    assert table.positive_count == 0
    assert table.ratio == 0.0
    assert table.order == []


def test_table_on_worked_example(example5, ex_cache):
    table = build_score_table(example5, ex_cache, 1.0)
    assert table.positive_count == 4
    assert table.ratio == 1.0
    assert table.avg_score == pytest.approx((1.01 + 0.8 + 1.0 + 1.0) / 4)
    assert table.max_score == pytest.approx(1.01)
    # descending score, ties broken by lower item index
    assert table.order == [1, 3, 4, 2]


def test_single_item_table():
    rng = random.Random(2)
    inst = make_random_instance(rng, 5, 1, cap_fraction=(2.0, 2.0))
    cache = build_prefix_cache(inst, Solution(list(range(1, 6)), [0]))
    table = build_score_table(inst, cache, 1.5)
    if table.positive_count:
        assert table.avg_score == table.max_score == table.scores[0]
        assert table.ratio == 1.0


def test_profit_scaling_invariance():
    rng = random.Random(13)
    inst = make_random_instance(rng, 6, 8)
    sol = Solution(list(range(1, 7)), [0] * 8)
    cache = build_prefix_cache(inst, sol)
    base = build_score_table(inst, cache, 1.5)
    lam = 3.7
    scaled = dataclasses.replace(inst, profit=inst.profit * lam)
    cache2 = build_prefix_cache(scaled, sol)
    table2 = build_score_table(scaled, cache2, 1.5)
    for j in range(inst.m):
        assert table2.scores[j] == pytest.approx(base.scores[j] * lam)
    # argsort by score unchanged
    key = lambda t: sorted(range(1, inst.m + 1), key=lambda j: (-t.scores[j - 1], j))
    assert key(table2) == key(base)


def test_alpha_monotonicity():
    rng = random.Random(19)
    inst = make_random_instance(rng, 6, 10)
    cache = build_prefix_cache(inst, Solution(list(range(1, 7)), [0] * 10))
    s1 = build_score_table(inst, cache, 1.0).scores
    s2 = build_score_table(inst, cache, 2.0).scores
    for j, w in enumerate(inst.weight):
        if w > 1:
            assert s2[j] < s1[j]
        elif w < 1:
            assert s2[j] > s1[j]


def test_equal_weight_items_order_alpha_invariant(example5):
    # items 2 and 4 both weigh 2: their relative score order must not
    # depend on alpha
    cache = build_prefix_cache(example5, Solution([1, 2, 3, 4, 5], [0] * 4))
    for alpha in (0.5, 1.0, 1.5, 3.0):
        scores = build_score_table(example5, cache, alpha).scores
        assert scores[3] > scores[1]


def test_table_tracks_tour_reversal():
    rng = random.Random(37)
    inst = make_random_instance(rng, 8, 10)
    tour = list(range(1, 9))
    cache = build_prefix_cache(inst, Solution(tour, [0] * 10))
    t1 = build_score_table(inst, cache, 1.5)
    new_tour = tour[:2] + tour[2:7][::-1] + tour[7:]  # positions 3 .. 7 reversed
    cache2 = build_prefix_cache(inst, Solution(new_tour, [0] * 10))
    t2 = build_score_table(inst, cache2, 1.5)
    # from-scratch recomputation on the reversed tour agrees entry by entry
    for j in range(1, 11):
        assert t2.scores[j - 1] == pytest.approx(loop_item_score(inst, cache2, j, 1.5))
    # and at least one item whose suffix distance changed moved its score
    assert any(
        not math.isclose(a, b, rel_tol=1e-12)
        for a, b in zip(t1.scores, t2.scores)
    )


def edge_case_instance(rng: random.Random, kind: EdgeWeightType, n: int, m: int) -> tuple[Instance, list[int]]:
    """Random instance and tour with float profits and weights, whose last
    tour city lies on city 1 (a zero suffix distance and +inf scores), one
    item heavier than the capacity (-inf marginal gain) and one item a copy
    of another (tied scores)."""
    rows = [(rng.uniform(1, 100), rng.uniform(0.1, 40), rng.randint(2, n)) for _ in range(m - 2)]
    tour = [1] + rng.sample(range(2, n + 1), n - 1)
    last = tour[-1] - 1
    k = rng.randrange(m - 2)
    rows[k] = (*rows[k][:2], last + 1)
    cap = max(1.0, rng.uniform(0.2, 0.7) * sum(w for _, w, _ in rows))
    rows += [rng.choice(rows), (50.0, 1.05 * cap, rng.randint(2, n))]
    common = dict(name=kind.value, n=n, m=m, **columns(rows), capacity=cap, v_min=0.1,
                  v_max=rng.choice([1.0, 0.7, 2.0]), renting_ratio=rng.uniform(0.1, 5.0))
    if kind is EdgeWeightType.EXPLICIT:
        d = np.array([[rng.uniform(1, 60) for _ in range(n)] for _ in range(n)])
        d = (d + d.T) / 2.0
        d[0, last] = d[last, 0] = 0.0
        np.fill_diagonal(d, 0.0)
        return Instance(coords=None, edge_weight_type=kind, explicit_dist=d, **common), tour
    coords = np.array([[rng.uniform(0, 100), rng.uniform(0, 100)] for _ in range(n)])
    coords[last] = coords[0]
    return Instance(coords=coords, edge_weight_type=kind, **common), tour


@pytest.mark.parametrize("kind", list(EdgeWeightType))
def test_table_equals_item_by_item_reference(kind):
    rng = random.Random(kind.value)
    seen = {"inf_score": 0, "neg_inf_marginal": 0, "tie": 0}
    for _ in range(60):
        inst, tour = edge_case_instance(rng, kind, rng.randint(3, 12), rng.randint(3, 40))
        cache = build_prefix_cache(inst, Solution(tour, [0] * inst.m))
        alpha = rng.choice([1.0, 1.5, rng.uniform(0.3, 3.0)])
        table = build_score_table(inst, cache, alpha)
        expect = loop_score_table(inst, cache, alpha)
        for name, value in expect.items():
            assert getattr(table, name) == value, name
        seen["inf_score"] += math.inf in table.scores
        seen["neg_inf_marginal"] += -math.inf in table.marginal
        seen["tie"] += len(set(table.scores)) < inst.m
    assert all(seen.values()), seen


@pytest.mark.parametrize("alpha", [400.0, 2000.0, -2000.0])
def test_table_at_an_overflowing_alpha_equals_the_reference(alpha):
    # weight ** alpha overflows for some weights and underflows to 0 for
    # others: an overflow scores the item 0, an underflow or a zero suffix +inf
    rng = random.Random(int(alpha))
    zero = inf = 0
    for _ in range(20):
        inst, tour = edge_case_instance(rng, rng.choice(list(EdgeWeightType)), rng.randint(3, 12), rng.randint(3, 40))
        cache = build_prefix_cache(inst, Solution(tour, [0] * inst.m))
        table = build_score_table(inst, cache, alpha)
        expect = loop_score_table(inst, cache, alpha)
        for name, value in expect.items():
            assert getattr(table, name) == value, name
        assert not any(math.isnan(s) for s in table.scores)
        zero += table.scores.count(0.0)
        inf += table.scores.count(math.inf)
    assert zero and inf
