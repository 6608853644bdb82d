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

import ttp.evaluate as evaluate_mod
import ttp.packing as packing_mod
import ttp.tour as tour_mod
from ttp.evaluate import Solution, build_prefix_cache, delta_flip, evaluate, flip
from ttp.instance import EdgeWeightType, Instance, _distances
from ttp.packing import SolverConfig, bit_flip_search, initial_picking_plan, simulated_annealing_kp
from ttp.tour import delaunay_candidates, two_opt_improve

from conftest import columns, float_instance, make_random_instance, random_solution
from loop_eval import lists_table, loop_delta_flip, loop_prefix_arrays, loop_time_after_reversal

ARRAYS = ("city_at", "position", "city_weight", "cum_weight", "inv_speed",
          "arrive_time", "leg_dist")


def assert_state_is_fresh(inst: Instance, cache) -> None:
    sol = cache.solution()
    fresh = build_prefix_cache(inst, sol)
    for name in ARRAYS:
        assert np.array_equal(getattr(cache, name), getattr(fresh, name)), name
    assert cache.total_time == fresh.total_time
    assert list(cache.packing) == list(fresh.packing) == sol.packing
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
    # the state's entries read as Python ints; its solution copies them to a list
    assert [cache.packing[j] for j in range(4)] == [1, 0, 0, 1]
    assert all(type(z) is int for z in cache.packing)
    packing = cache.solution().packing
    assert type(packing) is list
    assert packing == [1, 0, 0, 1] and all(type(z) is int for z in packing)
    assert json.dumps(packing) == "[1, 0, 0, 1]"
    assert_state_is_fresh(example5, cache)


def integer_instance(rng: random.Random, n: int, per_city: int, explicit: bool) -> Instance:
    """Random instance with ``per_city`` items at each of cities 2..n and
    integer weights, so its loads are exact (``Instance.exact_loads``)."""
    rows = [(rng.uniform(1, 100), rng.randint(1, 50), c) for c in range(2, n + 1) for _ in range(per_city)]
    capacity = rng.uniform(0.2, 0.7) * sum(w for _, w, _ in rows)
    return dataclasses.replace(float_instance(rng, n, 0, explicit), m=len(rows), **columns(rows), capacity=capacity)


def commits_over_random_steps(monkeypatch, rng: random.Random, inst: Instance, steps: int) -> int:
    """Random steps on a state of ``inst``, each checked against a fresh
    build: a probe; a flip of the item probed last; a flip of another item;
    or a probe, a 2-OPT move over the probed city's position and a flip of
    the probed item.  A flip commits a probe when it makes no ``velocities``
    call, and it must do so just when the instance has exact loads and the
    probe is of that item, with no write to the state since.  Returns the
    number of commits."""
    real, calls = evaluate_mod.velocities, [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(evaluate_mod, "velocities", counting)
    cache = build_prefix_cache(inst, random_solution(rng, inst, feasible=False))
    probed, kept, commits = 1, False, 0  # kept: no write since the last probe

    def probe(j):
        nonlocal probed, kept
        price = delta_flip(inst, cache, j)
        assert price == loop_delta_flip(inst, cache.solution().tour, list(cache.packing), j)
        probed, kept = j, True

    def flipped(j):
        nonlocal kept, commits
        before = calls[0]
        flip(inst, cache, j)
        committed = calls[0] == before
        assert committed == (inst.exact_loads and kept and j == probed)
        kept, commits = False, commits + committed

    for _ in range(steps):
        step = rng.randrange(4)
        if step == 0:
            probe(rng.randint(1, inst.m))
        elif step == 1:
            flipped(probed)
        elif step == 2:
            flipped(rng.choice([j for j in range(1, inst.m + 1) if j != probed]))
        else:
            probe(rng.randint(1, inst.m))
            k = cache.position.item(inst.city.item(probed - 1) - 1)
            a = rng.randint(1, min(k, inst.n - 2))
            tour_mod._reverse(inst, cache, a, rng.randint(max(k, a + 1), inst.n - 1))
            kept = False
            assert_state_is_fresh(inst, cache)
            flipped(probed)
        assert_state_is_fresh(inst, cache)
    return commits


@pytest.mark.parametrize("per_city", [1, 5, 10])
@pytest.mark.parametrize("explicit", [False, True])
def test_flip_commits_the_probe_it_priced_on_exact_loads(monkeypatch, explicit, per_city):
    rng = random.Random(83 + 2 * per_city + explicit)
    commits = 0
    for _ in range(8):
        inst = integer_instance(rng, rng.randint(3, 12), per_city, explicit)
        assert inst.exact_loads and inst.m >= 2
        commits += commits_over_random_steps(monkeypatch, rng, inst, 40)
    assert commits > 0


@pytest.mark.parametrize("explicit", [False, True])
def test_flip_commits_no_probe_on_float_weights(monkeypatch, explicit):
    rng = random.Random(89 + explicit)
    commits = 0
    for _ in range(8):
        inst = float_instance(rng, rng.randint(3, 12), rng.randint(2, 30), explicit)
        assert not inst.exact_loads
        commits += commits_over_random_steps(monkeypatch, rng, inst, 40)
    assert commits == 0


def test_exact_loads_needs_whole_weights_summing_below_2_to_the_53():
    inst = make_random_instance(random.Random(97), 6, 9)
    assert inst.exact_loads and inst.weight_velocity_slope == (inst.v_max - inst.v_min) / inst.capacity
    halved = inst.weight.copy()
    halved[4] = 0.5
    assert not dataclasses.replace(inst, weight=halved).exact_loads
    for top in (2.0**52 - 1, 2.0**52):  # a total of 2**53 - 1, then 2**53
        big = dataclasses.replace(inst, m=2, profit=[1.0, 1.0], weight=[2.0**52, top], city=[2, 3], capacity=4.0)
        assert big.exact_loads == (top < 2.0**52)
        assert big.weight_velocity_slope == (big.v_max - big.v_min) / 4.0


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
        assert list(given.packing) == sol.packing
    assert len(accepted) > 20


def test_improvers_hand_back_the_state_of_what_they_return(monkeypatch):
    real = packing_mod.flip_items
    flipped_back = []

    def recording(inst_, cache_, changed):
        flipped_back.append(len(changed))
        real(inst_, cache_, changed)

    monkeypatch.setattr(packing_mod, "flip_items", recording)
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
    # and costs more rent than item 2's profit, so phase 1's plan wins.  That
    # add fills the knapsack to capacity, past the load line of the plan's
    # chord bound, so it is priced, by the patched price
    priced = []
    monkeypatch.setattr(packing_mod, "delta_flip", lambda inst, cache, j: priced.append(j) or 1.0)
    d = np.array([[0.0, 1.0, 50.0], [1.0, 0.0, 50.0], [50.0, 50.0, 0.0]])
    inst = Instance("fallback", 3, 2, None, [6.0, 5.0], [5.0, 5.0], [2, 2], 10.0, 0.1, 1.0, 0.01,
                    EdgeWeightType.EXPLICIT, d)
    tour = [1, 2, 3]
    given = build_prefix_cache(inst, Solution(tour, [0, 0]))
    assert initial_picking_plan(inst, tour, given, SolverConfig(beta=0.0)) == [1, 0]
    assert 2 in priced
    assert evaluate(inst, Solution(tour, [1, 0])).gain > evaluate(inst, Solution(tour, [1, 1])).gain
    assert list(given.packing) == [1, 0]
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
    assert list(given.packing) == plan
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
