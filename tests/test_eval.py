import dataclasses
import math
import random

import numpy as np
import pytest

from ttp.evaluate import (
    Solution,
    build_prefix_cache,
    delta_flip,
    evaluate,
    flip,
    velocities,
)
from ttp.instance import sequential_sum
from ttp.packing import _flip_bound
from ttp.scoring import build_score_table

from conftest import float_instance, make_random_instance, random_solution
from loop_eval import loop_city_weights, velocity_at
from reference_eval import ref_evaluate


def test_worked_example_heavy_item(example5):
    res = evaluate(example5, Solution([1, 2, 3, 4, 5], [1, 0, 0, 0]))
    # G = 101 - 1 * (1 + 10/0.1) = 0
    assert res.gain == pytest.approx(0.0, abs=1e-9)
    assert res.travel_time == pytest.approx(101.0, abs=1e-9)
    assert res.feasible


def test_worked_example_three_items(example5):
    res = evaluate(example5, Solution([1, 2, 3, 4, 5], [0, 1, 1, 1]))
    assert res.total_profit == 18
    assert res.travel_time == pytest.approx(15.40, abs=0.01)
    assert res.gain == pytest.approx(2.60, abs=0.01)
    assert res.final_weight == 8


def test_city_weight(example5):
    def city_weight(packing, city):
        return build_prefix_cache(example5, Solution([1, 2, 3, 4, 5], packing)).city_weight[city - 1]

    assert city_weight([1, 0, 0, 0], 2) == 10
    for c in range(1, 6):
        assert city_weight([0, 0, 0, 0], c) == 0
    # back-solved from v_c = 0.46 at city 4 on plan {2,3,4}
    assert city_weight([0, 1, 1, 1], 4) == 4


def test_velocity_at(example5):
    assert velocity_at(example5, 0) == example5.v_max
    assert velocity_at(example5, 10) == pytest.approx(0.1)
    assert velocity_at(example5, 6) == pytest.approx(0.46)
    # exact floor at capacity, clamped past it
    assert velocity_at(example5, example5.capacity) == example5.v_min
    assert velocity_at(example5, example5.capacity * 2) == example5.v_min
    loads = [0.0, 6.0, 10.0, example5.capacity, example5.capacity * 2]
    assert velocities(example5, np.array(loads)).tolist() == [velocity_at(example5, w) for w in loads]


def masked_everywhere(inst, carried):
    """``velocities`` without its shortcut: the clamp and the exact-v_min
    mask are applied on every call."""
    v = np.maximum(inst.v_max - carried * inst.weight_velocity_slope, inst.v_min)
    v[carried >= inst.capacity] = inst.v_min
    return v


def nondecreasing_row(rng: random.Random, length: int, end: float, capacity: float) -> list[float]:
    """Loads ending at ``end``, with repeats, and capacity itself where it
    lies below the end."""
    body = [rng.choice([rng.uniform(0, end), end, min(capacity, end)]) for _ in range(length - 1)]
    return sorted(body) + [end]


def ulps(x: float, k: int) -> float:
    """``x`` moved by ``k`` ulps, down for negative ``k``."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


@pytest.mark.parametrize("v_max", [0.5, 1.0, 2.0])
def test_velocities_shortcut_equals_the_mask_everywhere(v_max):
    rng = random.Random(int(4 * v_max))
    base = make_random_instance(rng, 4, 0)
    # rows with a velocity that only the exact-v_min mask sets (at or past
    # capacity), and rows below capacity with one that only the clamp
    # raises (rounding pushes it under v_min): a shortcut that skipped
    # either would fail the comparison on them
    masked = clamped = 0
    for trial in range(20_000):
        if trial >= 300 and masked and clamped >= 3:
            break
        cap = rng.uniform(1.0, 1e4)
        inst = dataclasses.replace(base, capacity=cap, v_max=v_max, v_min=rng.uniform(0.01, 0.9) * v_max)
        # below, one to three ulps below, exactly at, one ulp above and past capacity
        ends = [0.5 * cap, ulps(cap, -3), ulps(cap, -2), ulps(cap, -1), cap, ulps(cap, 1), 1.5 * cap]
        for end in ends:
            row = np.array(nondecreasing_row(rng, rng.randint(1, 6), end, cap))
            assert np.array_equal(velocities(inst, row), masked_everywhere(inst, row))
            raw = v_max - row * inst.weight_velocity_slope
            masked += bool(((row >= cap) & (raw != inst.v_min)).any())
            clamped += bool(((row < cap) & (raw < inst.v_min)).any())
        length = rng.randint(1, 6)
        for batch in (ends[:4], ends, rng.choices(ends, k=5)):
            rows = np.array([nondecreasing_row(rng, length, end, cap) for end in batch])
            assert np.array_equal(velocities(inst, rows), masked_everywhere(inst, rows))
    assert masked and clamped >= 3


def test_empty_packing_travels_at_vmax(example5):
    res = evaluate(example5, Solution([1, 2, 3, 4, 5], [0, 0, 0, 0]))
    tour_len = 1 + 5 + 3 + 1 + 1
    assert res.gain == pytest.approx(-example5.renting_ratio * tour_len / example5.v_max)


@pytest.mark.parametrize("tour, packing", [
    ([1, 2, 3, 4, 5], [0, 0]),  # two entries for four items
    ([1, 2, 3, 5, 5], [0, 0, 0, 0]),  # city 4 missing, city 5 twice
    ([1, 2, 3, 4, 5], [2, 0, 0, 0]),  # an entry that is not 0 or 1
], ids=["short-packing", "repeated-city", "entry-2"])
def test_evaluate_rejects_bad_packing_length(example5, tour, packing):
    with pytest.raises(ValueError):
        evaluate(example5, Solution(tour, packing))


def test_overweight_packing_flagged_infeasible(example5):
    res = evaluate(example5, Solution([1, 2, 3, 4, 5], [1, 1, 1, 1]))
    assert not res.feasible
    assert res.final_weight == 18
    # a hair over: feasibility has no tolerance
    inst = dataclasses.replace(example5, m=2, profit=[1.0, 1.0], weight=[0.5, 0.5000000000001],
                               city=[2, 3], capacity=1.0)
    res = evaluate(inst, Solution([1, 2, 3, 4, 5], [1, 1]))
    assert res.final_weight == 1.0000000000001 and not res.feasible
    assert ref_evaluate(inst, [1, 2, 3, 4, 5], [1, 1])[3:] == (res.final_weight, False)


def test_suffix_distances_summed_from_the_legs(example5):
    # with alpha = 0 an item's score is its profit over its suffix distance
    cache = build_prefix_cache(example5, Solution([1, 2, 3, 4, 5], [0, 1, 1, 1]))
    scores = build_score_table(example5, cache, alpha=0.0).scores
    # items 1..4 sit at cities 2..5, whose suffixes are 10, 5, 2 and d(5, 1) = 1
    assert scores == (example5.profit / [10, 5, 2, example5.distance(5, 1)]).tolist()
    # the annealer's bound reads the full cyclic tour length, 11
    _, eta, slack = _flip_bound(example5, cache)
    assert slack == 3.0 * eta * example5.renting_ratio * 11 / example5.v_min


def test_prefix_cache_matches_recomputation():
    rng = random.Random(3)
    for _ in range(20):
        inst = make_random_instance(rng, 8, rng.randint(0, 10))
        sol = random_solution(rng, inst)
        cache = build_prefix_cache(inst, sol)
        res = evaluate(inst, sol)
        assert cache.total_time == pytest.approx(res.travel_time, rel=1e-12)
        # cache entries at every position match a from-scratch walk
        carried = 0.0
        time = 0.0
        w_city = loop_city_weights(inst, sol.packing)
        for k in range(inst.n):
            carried += w_city[sol.tour[k] - 1]
            assert cache.cum_weight[k] == pytest.approx(carried)
            assert cache.arrive_time[k] == pytest.approx(time)
            time += inst.distance(sol.tour[k], sol.tour[(k + 1) % inst.n]) / velocity_at(inst, carried)
        assert np.all(np.diff(cache.cum_weight) >= 0)


def test_delta_flip_hand_case(example5):
    sol = Solution([1, 2, 3, 4, 5], [0, 0, 0, 0])
    cache = build_prefix_cache(example5, sol)
    # picking item 1 slows only the 10 units of suffix after city 2
    assert delta_flip(example5, cache, 1) == pytest.approx(101 - (10 / 0.1 - 10 / 1))


def test_delta_flip_involution(example5):
    rng = random.Random(5)
    for _ in range(50):
        sol = random_solution(rng, example5)
        cache = build_prefix_cache(example5, sol)
        j = rng.randint(1, example5.m)
        d1 = delta_flip(example5, cache, j)
        sol.packing[j - 1] ^= 1
        cache2 = build_prefix_cache(example5, sol)
        d2 = delta_flip(example5, cache2, j)
        assert d1 + d2 == pytest.approx(0.0, abs=1e-9)


def test_delta_flip_matches_brute_force():
    rng = random.Random(11)
    for _ in range(30):
        inst = make_random_instance(rng, rng.randint(3, 7), rng.randint(1, 8))
        sol = random_solution(rng, inst, feasible=False)
        cache = build_prefix_cache(inst, sol)
        base = evaluate(inst, sol).gain
        for j in range(1, inst.m + 1):
            flipped = Solution(sol.tour, list(sol.packing))
            flipped.packing[j - 1] ^= 1
            expect = evaluate(inst, flipped).gain - base
            got = delta_flip(inst, cache, j)
            assert got == pytest.approx(expect, rel=1e-6, abs=1e-9)


def test_flip_sums_a_citys_weight_in_item_order():
    # several float weights per city, which summed in another order often
    # round differently
    rng = random.Random(8)
    reordered = 0
    for _ in range(20):
        inst = float_instance(rng, rng.randint(2, 5), rng.randint(8, 30))
        cache = build_prefix_cache(inst, random_solution(rng, inst, feasible=False))
        for _ in range(3 * inst.m):
            flip(inst, cache, rng.randint(1, inst.m))
            for c, homed in enumerate(inst.city_items):
                picked = inst.weight[[j for j in homed if cache.packing[j]]]
                assert cache.city_weight[c] == sequential_sum(picked)
                reordered += sequential_sum(picked[::-1]) != sequential_sum(picked)
    assert reordered > 0


def test_delta_flip_bad_index(example5):
    sol = Solution([1, 2, 3, 4, 5], [0, 0, 0, 0])
    cache = build_prefix_cache(example5, sol)
    with pytest.raises(IndexError):
        delta_flip(example5, cache, 0)
    with pytest.raises(IndexError):
        delta_flip(example5, cache, 5)


def test_matches_reference_evaluator():
    rng = random.Random(99)
    for _ in range(100):
        inst = make_random_instance(rng, rng.randint(2, 8), rng.randint(0, 12))
        sol = random_solution(rng, inst, feasible=False)
        res = evaluate(inst, sol)
        profit, time, gain, weight, feasible = ref_evaluate(inst, sol.tour, sol.packing)
        assert res.total_profit == pytest.approx(profit)
        assert res.travel_time == pytest.approx(time, rel=1e-12)
        assert res.gain == pytest.approx(gain, rel=1e-12, abs=1e-12)
        assert res.final_weight == pytest.approx(weight)
        assert res.feasible == feasible


def test_monotone_slowdown():
    rng = random.Random(21)
    for _ in range(50):
        inst = make_random_instance(rng, rng.randint(3, 7), rng.randint(1, 8))
        sol = random_solution(rng, inst)
        base = evaluate(inst, sol).travel_time
        zeros = [j for j in range(inst.m) if not sol.packing[j]]
        if not zeros:
            continue
        j = rng.choice(zeros)
        sol.packing[j] = 1
        assert evaluate(inst, sol).travel_time >= base - 1e-12


def test_gain_decomposition():
    rng = random.Random(31)
    for _ in range(50):
        inst = make_random_instance(rng, rng.randint(3, 7), rng.randint(0, 8))
        sol = random_solution(rng, inst)
        res = evaluate(inst, sol)
        assert res.gain + inst.renting_ratio * res.travel_time == pytest.approx(res.total_profit, rel=1e-9, abs=1e-9)


def test_solution_validation(example5):
    with pytest.raises(ValueError):
        Solution([2, 1, 3, 4, 5], [0, 0, 0, 0]).validate(example5)
    with pytest.raises(ValueError):
        Solution([1, 2, 3, 4], [0, 0, 0, 0]).validate(example5)
    with pytest.raises(ValueError):
        Solution([1, 2, 3, 4, 5], [0, 0, 2, 0]).validate(example5)
    Solution([1, 2, 3, 4, 5], [1, 0, 1, 0]).validate(example5)


@pytest.mark.parametrize("tour, packing", [
    ([1, 2, 3, 4, 5], [1]),  # one entry for four items
    ([1, 2, 3, 4, 5], [2, 0, 0, 0]),  # an entry that is not 0 or 1
    ([1, 2, 3, 5, 5], [0, 0, 0, 0]),  # city 4 missing, city 5 twice
], ids=["short-packing", "entry-2", "repeated-city"])
def test_state_rejects_an_invalid_solution(example5, tour, packing):
    with pytest.raises(ValueError):
        build_prefix_cache(example5, Solution(tour, packing))
