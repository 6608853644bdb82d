import random
import time

import pytest

from ttp.evaluate import Solution, build_prefix_cache, evaluate
from ttp.instance import EdgeWeightType, Instance, Item
from ttp.packing import (
    SolverConfig,
    bit_flip_search,
    default_beta,
    initial_picking_plan,
    simulated_annealing_kp,
)

from conftest import brute_force_best_packing, make_random_instance


TOUR5 = [1, 2, 3, 4, 5]


def plan_for(inst, tour, **kw):
    cache = build_prefix_cache(inst, Solution(list(tour), [0] * inst.m))
    return initial_picking_plan(inst, tour, cache, SolverConfig(**kw))


# --- parameters --------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        SolverConfig(beta=1.5)
    with pytest.raises(ValueError):
        SolverConfig(sa_cooling=1.0)
    with pytest.raises(ValueError):
        SolverConfig(sa_t0=0.0)
    SolverConfig(beta=0.0, sa_cooling=0.5, sa_t0=2.0)


def test_default_beta_bands():
    def inst_with(n, m):
        rng = random.Random(0)
        return make_random_instance(rng, n, m)

    assert default_beta(inst_with(5, 4)) == 1.0     # 1 item per city
    assert default_beta(inst_with(5, 12)) == 0.65   # factor 3
    assert default_beta(inst_with(5, 40)) == 0.5    # factor 10


# --- initial picking plan ----------------------------------------------------

def test_initial_plan_low_threshold(example5):
    # with the threshold at the average score, everything but the heavy
    # outlier clears it and fits together
    z = plan_for(example5, TOUR5, beta=0.0, alpha=1.0)
    assert z == [0, 1, 1, 1]


def test_initial_plan_high_threshold(example5):
    # beta = 1 puts the threshold at the maximum score, so phase 1 picks
    # nothing; phase 2 greedily inserts by score, so the top-scored heavy
    # item goes in first and exhausts the whole capacity
    z = plan_for(example5, TOUR5, beta=1.0, alpha=1.0)
    assert z == [1, 0, 0, 0]
    assert evaluate(example5, Solution(TOUR5, z)).gain == pytest.approx(0.0, abs=1e-9)


def test_initial_plan_feasible_and_deterministic():
    rng = random.Random(6)
    for _ in range(30):
        inst = make_random_instance(rng, rng.randint(3, 8), rng.randint(1, 12))
        tour = list(range(1, inst.n + 1))
        z1 = plan_for(inst, tour, beta=0.5)
        z2 = plan_for(inst, tour, beta=0.5)
        assert z1 == z2
        res = evaluate(inst, Solution(tour, z1))
        assert res.feasible
        assert res.gain >= evaluate(inst, Solution(tour, [0] * inst.m)).gain - 1e-9


def test_initial_plan_picks_nothing_past_its_deadline():
    rng = random.Random(7)
    picked = 0
    for _ in range(10):
        inst = make_random_instance(rng, rng.randint(3, 8), rng.randint(1, 12))
        tour = list(range(1, inst.n + 1))
        cache = build_prefix_cache(inst, Solution(list(tour), [0] * inst.m))
        params = SolverConfig(beta=0.0)
        assert initial_picking_plan(inst, tour, cache, params, time.monotonic()) == [0] * inst.m
        later = time.monotonic() + 1e6
        plan = initial_picking_plan(inst, tour, cache, params, later)
        assert plan == plan_for(inst, tour, beta=0.0)
        picked += any(plan)
    assert picked


def test_initial_plan_empty_when_nothing_profitable():
    # profits too small to pay the rent of slowing down: empty plan
    inst = make_random_instance(random.Random(9), 4, 0)
    items = (Item(1, 0.001, 50.0, 2), Item(2, 0.001, 50.0, 3))
    inst = Instance(inst.name, 4, 2, inst.coords, items, 60.0, 0.1, 1.0, 10.0,
                    EdgeWeightType.CEIL_2D)
    tour = [1, 2, 3, 4]
    assert plan_for(inst, tour, beta=0.5) == [0, 0]


def test_initial_plan_no_items():
    inst = make_random_instance(random.Random(10), 5, 0)
    assert plan_for(inst, list(range(1, 6)), beta=0.5) == []


# --- bit-flip hill climbing --------------------------------------------------

def test_bit_flip_never_worsens_and_is_feasible():
    rng = random.Random(14)
    for _ in range(20):
        inst = make_random_instance(rng, rng.randint(3, 7), rng.randint(1, 10))
        tour = list(range(1, inst.n + 1))
        sol = Solution(tour, [0] * inst.m)
        base = evaluate(inst, sol).gain
        z = bit_flip_search(inst, sol, None, rng=random.Random(1))
        res = evaluate(inst, Solution(tour, z))
        assert res.feasible
        assert res.gain >= base - 1e-9


def test_bit_flip_output_is_single_flip_optimal():
    rng = random.Random(15)
    for _ in range(15):
        inst = make_random_instance(rng, rng.randint(3, 6), rng.randint(1, 8))
        tour = list(range(1, inst.n + 1))
        z = bit_flip_search(inst, Solution(tour, [0] * inst.m), None,
                            rng=random.Random(2))
        base = evaluate(inst, Solution(tour, z)).gain
        weight = sum(it.weight for it in inst.items if z[it.index - 1])
        for j in range(inst.m):
            flipped = list(z)
            flipped[j] ^= 1
            w = weight + (inst.items[j].weight if flipped[j] else -inst.items[j].weight)
            if w > inst.capacity:
                continue
            assert evaluate(inst, Solution(tour, flipped)).gain <= base + 1e-9


def test_bit_flip_heavy_item_is_a_local_optimum(example5):
    # from {item 1} no single feasible flip improves: dropping item 1 costs
    # 101 - 90 = 11 of gain and nothing else fits beside it
    sol = Solution(TOUR5, [1, 0, 0, 0])
    z = bit_flip_search(example5, sol, None, rng=random.Random(3))
    assert z == [1, 0, 0, 0]


# --- simulated annealing -----------------------------------------------------

def test_sa_returns_feasible_never_worse():
    rng = random.Random(27)
    for _ in range(15):
        inst = make_random_instance(rng, rng.randint(3, 7), rng.randint(1, 10))
        tour = list(range(1, inst.n + 1))
        sol = Solution(tour, [0] * inst.m)
        base = evaluate(inst, sol).gain
        params = SolverConfig(sa_iters_per_temp=200)
        z = simulated_annealing_kp(inst, sol, None, params, rng=random.Random(4))
        res = evaluate(inst, Solution(tour, z))
        assert res.feasible
        assert res.gain >= base - 1e-9


def test_sa_escapes_heavy_item_local_optimum(example5):
    # a generous start temperature lets the annealer drop the heavy item and
    # repack the three light ones, which bit-flip search cannot do
    sol = Solution(TOUR5, [1, 0, 0, 0])
    params = SolverConfig(sa_t0=20.0, sa_iters_per_temp=500)
    z = simulated_annealing_kp(example5, sol, None, params, rng=random.Random(5))
    gain = evaluate(example5, Solution(TOUR5, z)).gain
    assert gain == pytest.approx(2.596121799727314, abs=1e-9)
    assert z == [0, 1, 1, 1]


def test_sa_matches_brute_force_on_fixed_tours():
    rng = random.Random(33)
    hits = 0
    trials = 15
    for _ in range(trials):
        inst = make_random_instance(rng, rng.randint(3, 6), rng.randint(2, 8))
        tour = list(range(1, inst.n + 1))
        opt = brute_force_best_packing(inst, tour)
        params = SolverConfig(sa_t0=50.0, sa_iters_per_temp=400)
        z = simulated_annealing_kp(inst, Solution(tour, [0] * inst.m), None,
                                   params, rng=random.Random(6))
        if evaluate(inst, Solution(tour, z)).gain >= opt - 1e-6:
            hits += 1
    assert hits >= trials - 1


def test_sa_no_items(example5):
    inst = make_random_instance(random.Random(40), 4, 0)
    z = simulated_annealing_kp(inst, Solution([1, 2, 3, 4], []), None,
                               SolverConfig())
    assert z == []


def test_sa_deterministic_given_rng(example5):
    sol = Solution(TOUR5, [0, 0, 0, 0])
    params = SolverConfig(sa_t0=5.0, sa_iters_per_temp=300)
    z1 = simulated_annealing_kp(example5, sol, None, params, rng=random.Random(7))
    z2 = simulated_annealing_kp(example5, sol, None, params, rng=random.Random(7))
    assert z1 == z2
