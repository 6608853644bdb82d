import itertools
import random
import time
import types

import pytest

import loop_eval
import ttp.packing as packing_mod
from ttp.evaluate import GAIN_EPS, Solution, build_prefix_cache, delta_flip, evaluate
from ttp.instance import EdgeWeightType, Instance, parse_instance
from ttp.packing import (
    SolverConfig,
    bit_flip_search,
    default_beta,
    initial_picking_plan,
    simulated_annealing_kp,
)
from ttp.solver import solve

from conftest import (brute_force_best_packing, drift_instance_text, float_instance, improved,
                      make_random_instance, random_solution)
from loop_eval import loop_bit_flip_search, loop_simulated_annealing
from reference_eval import ref_evaluate
from test_state import assert_state_is_fresh


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
    inst = Instance(inst.name, 4, 2, inst.coords, [0.001, 0.001], [50.0, 50.0], [2, 3], 60.0, 0.1, 1.0,
                    10.0, EdgeWeightType.CEIL_2D)
    tour = [1, 2, 3, 4]
    assert plan_for(inst, tour, beta=0.5) == [0, 0]


def test_initial_plan_rejects_a_tour_that_is_not_the_states(example5):
    cache = build_prefix_cache(example5, Solution(TOUR5, [0] * 4))
    with pytest.raises(ValueError):
        initial_picking_plan(example5, [1, 3, 2, 4, 5], cache, SolverConfig())


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
        z = improved(inst, sol, bit_flip_search, None, random.Random(1)).packing
        res = evaluate(inst, Solution(tour, z))
        assert res.feasible
        assert res.gain >= base - 1e-9


def test_bit_flip_output_is_single_flip_optimal():
    rng = random.Random(15)
    for _ in range(15):
        inst = make_random_instance(rng, rng.randint(3, 6), rng.randint(1, 8))
        tour = list(range(1, inst.n + 1))
        z = improved(inst, Solution(tour, [0] * inst.m), bit_flip_search, None, random.Random(2)).packing
        base = evaluate(inst, Solution(tour, z)).gain
        weight = sum(w for w, picked in zip(inst.weight.tolist(), z) if picked)
        for j in range(inst.m):
            flipped = list(z)
            flipped[j] ^= 1
            w = weight + (inst.weight.item(j) if flipped[j] else -inst.weight.item(j))
            if w > inst.capacity:
                continue
            assert evaluate(inst, Solution(tour, flipped)).gain <= base + 1e-9


def test_bit_flip_heavy_item_is_a_local_optimum(example5):
    # from {item 1} no single feasible flip improves: dropping item 1 costs
    # 101 - 90 = 11 of gain and nothing else fits beside it
    sol = Solution(TOUR5, [1, 0, 0, 0])
    z = improved(example5, sol, bit_flip_search, None, random.Random(3)).packing
    assert z == [1, 0, 0, 0]


def test_bit_flip_takes_the_reference_decisions(monkeypatch):
    # the memo answers repeat probes until the next flip: every flip must
    # still improve at its exact price, and the climb must flip what the
    # climber that prices every probe flips, from the same random stream
    real_flip, real_delta = packing_mod.flip, packing_mod.delta_flip
    calls = {"ours": 0, "ref": 0}

    def checked_flip(inst, cache, j):
        assert real_delta(inst, cache, j) > GAIN_EPS
        real_flip(inst, cache, j)

    def counted(key):
        def probe(*args):
            calls[key] += 1
            return real_delta(*args)
        return probe

    monkeypatch.setattr(packing_mod, "flip", checked_flip)
    monkeypatch.setattr(packing_mod, "delta_flip", counted("ours"))
    monkeypatch.setattr(loop_eval, "delta_flip", counted("ref"))
    rng = random.Random(16)
    for k in range(30):
        inst = make_random_instance(rng, rng.randint(3, 12), rng.randint(1, 30))
        sol = random_solution(rng, inst) if k % 2 else Solution(random_solution(rng, inst).tour, [0] * inst.m)
        rng_a, rng_b = random.Random(k), random.Random(k)
        got = improved(inst, sol, bit_flip_search, None, rng_a).packing
        assert got == loop_bit_flip_search(inst, sol, rng_b)
        assert rng_a.getstate() == rng_b.getstate()
    assert calls["ours"] < calls["ref"]


# --- simulated annealing -----------------------------------------------------

def test_sa_returns_feasible_never_worse():
    rng = random.Random(27)
    for _ in range(15):
        inst = make_random_instance(rng, rng.randint(3, 7), rng.randint(1, 10))
        tour = list(range(1, inst.n + 1))
        sol = Solution(tour, [0] * inst.m)
        base = evaluate(inst, sol).gain
        params = SolverConfig(sa_iters_per_temp=200)
        z = improved(inst, sol, simulated_annealing_kp, params, None, random.Random(4)).packing
        res = evaluate(inst, Solution(tour, z))
        assert res.feasible
        assert res.gain >= base - 1e-9


def test_sa_escapes_heavy_item_local_optimum(example5):
    # a generous start temperature lets the annealer drop the heavy item and
    # repack the three light ones, which bit-flip search cannot do
    sol = Solution(TOUR5, [1, 0, 0, 0])
    params = SolverConfig(sa_t0=20.0, sa_iters_per_temp=500)
    z = improved(example5, sol, simulated_annealing_kp, params, None, random.Random(5)).packing
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
        z = improved(inst, Solution(tour, [0] * inst.m), simulated_annealing_kp,
                     params, None, random.Random(6)).packing
        if evaluate(inst, Solution(tour, z)).gain >= opt - 1e-6:
            hits += 1
    assert hits >= trials - 1


def test_sa_no_items(example5):
    inst = make_random_instance(random.Random(40), 4, 0)
    z = improved(inst, Solution([1, 2, 3, 4], []), simulated_annealing_kp,
                 SolverConfig(), None, random.Random(0)).packing
    assert z == []


def test_sa_deterministic_given_rng(example5):
    sol = Solution(TOUR5, [0, 0, 0, 0])
    params = SolverConfig(sa_t0=200.0, sa_iters_per_temp=300)
    # each run anneals a state of its own, built from the same solution
    z1 = improved(example5, sol, simulated_annealing_kp, params, None, random.Random(7)).packing
    z2 = improved(example5, sol, simulated_annealing_kp, params, None, random.Random(7)).packing
    assert z1 == z2


def test_sa_cut_by_its_deadline_hands_back_the_reference_best(monkeypatch):
    # a clock that reads 0, 1, 2, ... at each check, so the deadline ``stop``
    # passes at the check before iteration stop + 1; 300 iterations end a run
    config = SolverConfig(sa_t0=200.0, sa_iters_per_temp=30, sa_cooling=0.5)
    undone = []
    real = packing_mod.flip_items

    def flip_back(inst, cache, changed):
        undone.append(len(changed))
        real(inst, cache, changed)

    monkeypatch.setattr(packing_mod, "flip_items", flip_back)
    rng = random.Random(90)
    for stop in (0, 1, 2, 5, 13, 29, 30, 31, 77, 150, 299, 10_000):
        for trial in range(4):
            inst = float_instance(rng, rng.randint(4, 12), rng.randint(5, 30))
            sol = random_solution(rng, inst, feasible=True)
            ticks = itertools.count()
            monkeypatch.setattr(packing_mod, "_time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
            cache = build_prefix_cache(inst, sol)
            simulated_annealing_kp(inst, cache, config, stop, random.Random(trial))
            assert list(cache.packing) == loop_simulated_annealing(inst, sol, config, random.Random(trial), stop)
            assert_state_is_fresh(inst, cache)
    # the cut often falls where the current packing is not the best one, so
    # the items flipped since the best are flipped back
    assert sum(1 for size in undone if size) >= len(undone) // 3


def test_every_stage_returns_a_packing_whose_tour_order_load_fits():
    # a running sum of the picked weights, added in pick order, can fit the
    # capacity where the load summed in tour order, which evaluate reads,
    # exceeds it; every stage must keep to the load in tour order
    rng = random.Random(19)
    tour = [1, 4, 3, 2]
    sa = dict(sa_t0=1.0, sa_cooling=0.5, sa_iters_per_temp=50)
    for trial in range(30):
        inst = parse_instance(drift_instance_text(rng))
        empty = Solution(tour, [0] * inst.m)
        results = [
            (tour, plan_for(inst, tour)),
            (tour, improved(inst, empty, bit_flip_search, None, random.Random(trial)).packing),
            (tour, improved(inst, empty, simulated_annealing_kp, SolverConfig(**sa), None,
                            random.Random(trial)).packing),
        ]
        for use_sa in (True, False):
            rec = solve(inst, SolverConfig(max_restarts=1, tour_in=tour, use_sa=use_sa, seed=trial, **sa))
            results.append((rec.best_tour, rec.best_packing))
        for got_tour, packing in results:
            assert evaluate(inst, Solution(got_tour, packing)).feasible, (trial, packing)
            assert ref_evaluate(inst, got_tour, packing)[4], (trial, packing)
