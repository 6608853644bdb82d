"""Differential tests of the incremental tour state: after every ``flip`` and
every 2-OPT reversal the state must equal a fresh ``build_prefix_cache``
exactly, and the numpy probes must equal the plain loops of
``loop_eval.py`` exactly, not to a tolerance.  Every stage that updates a
state must leave it equal to a fresh build of its own solution, on every
return."""

import dataclasses
import json
import random
import types

import numpy as np
import pytest

import ttp.packing as packing_mod
import ttp.tour as tour_mod
from ttp.evaluate import Solution, build_prefix_cache, delta_flip, evaluate, flip
from ttp.instance import EdgeWeightType, Instance, _distances
from ttp.packing import SolverConfig, bit_flip_search, initial_picking_plan, simulated_annealing_kp
from ttp.tour import delaunay_candidates, two_opt_improve

from conftest import float_instance, random_solution
from loop_eval import lists_table, loop_delta_flip, loop_prefix_arrays, loop_time_after_reversal

ARRAYS = ("city_at", "position", "city_weight", "cum_weight", "inv_speed",
          "arrive_time", "leg_dist")


def assert_state_is_fresh(inst: Instance, cache) -> None:
    sol = cache.solution()
    fresh = build_prefix_cache(inst, sol)
    for name in ARRAYS:
        assert np.array_equal(getattr(cache, name), getattr(fresh, name)), name
    assert cache.total_time == fresh.total_time
    assert cache.packing == fresh.packing == sol.packing
    assert cache.gain(inst) == evaluate(inst, sol).gain


def assert_build_equals_loop(inst: Instance, sol: Solution) -> None:
    cache = build_prefix_cache(inst, sol)
    expected = loop_prefix_arrays(inst, sol.tour, sol.packing)
    del expected["suffix_dist"]  # the state keeps none; test_scoring checks the table's
    for name, expect in expected.items():
        got = getattr(cache, name)
        assert (got == expect) if name == "total_time" else np.array_equal(got, expect), name


@pytest.mark.parametrize("explicit", [False, True])
def test_flip_keeps_state_equal_to_fresh_build(explicit):
    rng = random.Random(41 + explicit)
    flips = 0
    for _ in range(30):
        inst = float_instance(rng, rng.randint(2, 15), rng.randint(1, 25), explicit)
        sol = random_solution(rng, inst, feasible=False)  # over capacity too
        cache = build_prefix_cache(inst, sol)
        assert_build_equals_loop(inst, sol)
        for _ in range(2 * inst.m):
            for probe in rng.choices(range(1, inst.m + 1), k=3):
                expect = loop_delta_flip(inst, sol.tour, cache.packing, probe)
                assert delta_flip(inst, cache, probe) == expect
            assert_state_is_fresh(inst, cache)  # a probe changes nothing
            j = rng.randint(1, inst.m)
            before = list(cache.packing)
            flip(inst, cache, j)
            assert cache.packing[j - 1] == 1 - before[j - 1]
            assert [a ^ b for a, b in zip(before, cache.packing)].count(1) == 1
            assert_state_is_fresh(inst, cache)
            flips += 1
    assert flips > 500


def test_flip_rejects_an_item_out_of_range(example5):
    sol = Solution([1, 2, 3, 4, 5], [0, 1, 0, 0])
    cache = build_prefix_cache(example5, sol)
    for item in (0, -1, example5.m + 1):
        for probe in (delta_flip, flip):
            with pytest.raises(IndexError, match=f"item index out of range: {item}"):
                probe(example5, cache, item)
        assert cache.solution() == sol
        assert_state_is_fresh(example5, cache)


@pytest.mark.parametrize("zero,one", [(0.0, 1.0), (False, True), (np.int64(0), np.int64(1))])
def test_state_holds_its_packing_as_python_ints(example5, zero, one):
    # Solution.validate accepts any number equal to 0 or 1
    tour = [1, 2, 3, 4, 5]
    given = Solution(tour, [zero, one, zero, one])
    cache = build_prefix_cache(example5, given)
    assert cache.gain(example5) == evaluate(example5, given).gain
    assert_state_is_fresh(example5, cache)
    flip(example5, cache, 1)
    flip(example5, cache, 2)
    packing = cache.solution().packing
    assert packing == [1, 0, 0, 1] and all(type(z) is int for z in packing)
    assert json.dumps(packing) == "[1, 0, 0, 1]"
    assert_state_is_fresh(example5, cache)


@pytest.mark.parametrize("explicit", [False, True])
def test_reversal_keeps_state_equal_to_fresh_build(explicit):
    rng = random.Random(43 + explicit)
    for _ in range(30):
        inst = float_instance(rng, rng.randint(3, 15), rng.randint(0, 25), explicit)
        sol = random_solution(rng, inst, feasible=False)
        cache = build_prefix_cache(inst, sol)
        for _ in range(10):
            a = rng.randint(1, inst.n - 2)
            b = rng.randint(a + 1, inst.n - 1)
            first = _distances(inst, cache.city_at[[a - 1]], cache.city_at[[b]])
            last = _distances(inst, cache.city_at[[a]], cache.city_at[[(b + 1) % inst.n]])
            probe = tour_mod._times_after_reversals(inst, cache, np.array([a]), np.array([b]), first, last)[0]
            assert probe == loop_time_after_reversal(inst, sol.tour, sol.packing, a, b)
            for j in range(1, inst.m + 1):
                delta_flip(inst, cache, j)
            tour_mod._reverse(inst, cache, a, b)
            sol.tour[a : b + 1] = sol.tour[a : b + 1][::-1]
            assert cache.solution() == sol
            assert probe == cache.total_time
            assert_state_is_fresh(inst, cache)
            assert_build_equals_loop(inst, sol)
            for j in range(1, inst.m + 1):
                assert delta_flip(inst, cache, j) == loop_delta_flip(inst, sol.tour, sol.packing, j)


@pytest.mark.parametrize("budget", [1, 211, tour_mod._CHUNK_ELEMENTS])
@pytest.mark.parametrize("explicit", [False, True])
def test_batched_times_equal_the_walk_for_every_probe(monkeypatch, explicit, budget):
    # no probe may improve, so a packed pass prices every probe of the tour
    monkeypatch.setattr(tour_mod, "GAIN_EPS", np.inf)
    monkeypatch.setattr(tour_mod, "_CHUNK_ELEMENTS", budget)
    real = tour_mod._times_after_reversals
    chunks = []

    def recording(inst_, cache_, a, b, first, last):
        times = real(inst_, cache_, a, b, first, last)
        chunks.append((a, b, times))
        return times

    monkeypatch.setattr(tour_mod, "_times_after_reversals", recording)
    rng = random.Random(59 + explicit)
    priced = 0
    for _ in range(12):
        inst = float_instance(rng, rng.randint(3, 30), rng.randint(1, 40), explicit)
        sol = random_solution(rng, inst, feasible=False)
        cache = build_prefix_cache(inst, sol)
        every = {c: [v for v in range(1, inst.n + 1) if v != c] for c in range(1, inst.n + 1)}
        table = lists_table(inst, every)
        chunks.clear()
        assert tour_mod._first_packed_move(inst, cache, table, None) is None
        a, b, _, _ = tour_mod._probes(inst, cache, table)
        assert a.size == (inst.n - 1) * (inst.n - 2) // 2  # every pair 1 <= a < b <= n - 1
        assert np.array_equal(np.concatenate([c[0] for c in chunks]), a)
        assert np.array_equal(np.concatenate([c[1] for c in chunks]), b)
        for ca, cb, times in chunks:
            assert ca.size == 1 or ca.size * (inst.n - ca[0] + 1) <= budget
            for x, y, t in zip(ca.tolist(), cb.tolist(), times.tolist()):
                assert t == loop_time_after_reversal(inst, sol.tour, sol.packing, x, y)
                priced += 1
    assert priced > 1000


def test_two_opt_accepted_moves_keep_state(monkeypatch):
    real = tour_mod._reverse
    accepted = []

    def checking(inst_, cache_, a, b):
        real(inst_, cache_, a, b)
        assert_state_is_fresh(inst_, cache_)
        accepted.append((a, b))

    monkeypatch.setattr(tour_mod, "_reverse", checking)
    rng = random.Random(47)
    for k in range(12):
        inst = float_instance(rng, rng.randint(5, 20), rng.randint(0, 20), explicit=k % 3 == 0)
        sol = random_solution(rng, inst, feasible=False)
        given = build_prefix_cache(inst, sol)
        two_opt_improve(inst, given, delaunay_candidates(inst), None)
        assert_state_is_fresh(inst, given)
        assert given.packing == sol.packing
    assert len(accepted) > 20


def test_improvers_hand_back_the_state_of_what_they_return(monkeypatch):
    real = packing_mod._flip_back
    flipped_back = []

    def recording(inst_, cache_, changed):
        flipped_back.append(len(changed))
        real(inst_, cache_, changed)

    monkeypatch.setattr(packing_mod, "_flip_back", recording)
    rng = random.Random(53)
    for k in range(12):
        inst = float_instance(rng, rng.randint(3, 12), rng.randint(0, 20), explicit=k % 3 == 0)
        sol = random_solution(rng, inst, feasible=True)
        before = Solution(list(sol.tour), list(sol.packing))
        for improve in (
            lambda cache: bit_flip_search(inst, cache, None, random.Random(k)),
            # a high final temperature ends the run away from its best packing
            lambda cache: simulated_annealing_kp(
                inst, cache, SolverConfig(sa_t0=1e4, sa_cooling=0.1, sa_iters_per_temp=30),
                None, random.Random(k)),
        ):
            given = build_prefix_cache(inst, sol)
            improve(given)
            assert_state_is_fresh(inst, given)
            assert given.solution().tour == sol.tour
            assert sol == before  # the state holds a copy of the solution
        # the plan replaces a picked packing with the plan of an empty one
        config = SolverConfig(beta=rng.random())
        empty = build_prefix_cache(inst, Solution(sol.tour, [0] * inst.m))
        given = build_prefix_cache(inst, sol)
        plan = initial_picking_plan(inst, sol.tour, given, config)
        assert plan == initial_picking_plan(inst, sol.tour, empty, config)
        assert_state_is_fresh(inst, given)
        assert given.solution() == Solution(sol.tour, plan) and plan is not given.packing
    assert any(flipped_back)


def test_plan_hands_back_its_phase_1_state(monkeypatch):
    # phase 2 adds only items priced above 0, so it loses to phase 1 only by
    # rounding.  Priced at +1 here, it adds item 2 to phase 1's item 1; the
    # full knapsack then crawls at v_min over the 100-long rest of the tour
    # and costs more rent than item 2's profit, so phase 1's plan wins
    monkeypatch.setattr(packing_mod, "delta_flip", lambda *args: 1.0)
    d = np.array([[0.0, 1.0, 50.0], [1.0, 0.0, 50.0], [50.0, 50.0, 0.0]])
    inst = Instance("fallback", 3, 2, None, [6.0, 5.0], [5.0, 5.0], [2, 2], 10.0, 0.1, 1.0, 0.01,
                    EdgeWeightType.EXPLICIT, d)
    tour = [1, 2, 3]
    given = build_prefix_cache(inst, Solution(tour, [0, 0]))
    assert initial_picking_plan(inst, tour, given, SolverConfig(beta=0.0)) == [1, 0]
    assert evaluate(inst, Solution(tour, [1, 0])).gain > evaluate(inst, Solution(tour, [1, 1])).gain
    assert given.packing == [1, 0]
    assert_state_is_fresh(inst, given)


@pytest.mark.parametrize("stop", range(1, 40, 3))
def test_improvers_hand_back_the_state_at_their_deadline(monkeypatch, stop):
    # a clock that passes the deadline after ``stop`` checks, mid-run
    rng = random.Random(71 + stop)
    inst = float_instance(rng, 9, 14)
    sol = random_solution(rng, inst, feasible=True)
    config = SolverConfig(sa_t0=50.0, sa_iters_per_temp=4)
    clock = types.SimpleNamespace(monotonic=lambda: next(ticks))
    monkeypatch.setattr(packing_mod, "_time", clock)
    monkeypatch.setattr(tour_mod, "_time", clock)
    for improve in (
        lambda cache: bit_flip_search(inst, cache, stop, random.Random(1)),
        lambda cache: simulated_annealing_kp(inst, cache, config, stop, random.Random(2)),
        lambda cache: two_opt_improve(inst, cache, delaunay_candidates(inst), stop),
    ):
        ticks = iter(range(1000))
        given = build_prefix_cache(inst, sol)
        improve(given)
        assert_state_is_fresh(inst, given)
    ticks = iter(range(1000))
    given = build_prefix_cache(inst, Solution(sol.tour, [0] * inst.m))
    plan = initial_picking_plan(inst, sol.tour, given, SolverConfig(beta=0.0), stop)
    assert given.packing == plan
    assert_state_is_fresh(inst, given)


def test_improvers_hand_back_the_state_on_an_early_return():
    rng = random.Random(67)
    # no items, and items of which none can pay its rent: the plan and the
    # annealer return at once, with nothing picked
    for inst in (float_instance(rng, 6, 0), dataclasses.replace(float_instance(rng, 7, 9), renting_ratio=1e9)):
        sol = Solution(list(range(1, inst.n + 1)), [0] * inst.m)
        given = build_prefix_cache(inst, sol)
        assert initial_picking_plan(inst, sol.tour, given, SolverConfig()) == [0] * inst.m
        assert_state_is_fresh(inst, given)
        simulated_annealing_kp(inst, given, SolverConfig(), None, random.Random(1))
        assert given.solution() == sol
        assert_state_is_fresh(inst, given)
