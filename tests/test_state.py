"""Differential tests of the incremental tour state: after every ``flip`` and
every 2-OPT reversal the state must equal a fresh ``build_prefix_cache``
exactly, and the numpy probes must equal the plain loops of
``loop_eval.py`` exactly, not to a tolerance."""

import dataclasses
import random

import numpy as np
import pytest

import ttp.tour as tour_mod
from ttp.evaluate import PrefixCache, Solution, build_prefix_cache, delta_flip, flip
from ttp.instance import EdgeWeightType, Instance, Item, _distances
from ttp.packing import SolverConfig, bit_flip_search, simulated_annealing_kp
from ttp.tour import delaunay_candidates, two_opt_improve

from conftest import make_random_instance, random_solution
from loop_eval import loop_delta_flip, loop_prefix_arrays, loop_time_after_reversal

ARRAYS = ("city_at", "position", "city_weight", "cum_weight", "inv_speed",
          "arrive_time", "leg_dist", "suffix_dist")


def float_instance(rng: random.Random, n: int, m: int, explicit: bool = False) -> Instance:
    """Random instance with float profits and weights, so that sums in
    another order would round differently; EXPLICIT distances are
    symmetric only up to rounding, so direction matters."""
    base = make_random_instance(rng, n, 0)
    items = tuple(Item(j, rng.uniform(1, 100), rng.uniform(0.1, 40), rng.randint(2, n))
                  for j in range(1, m + 1))
    cap = max(1.0, rng.uniform(0.2, 0.7) * sum(it.weight for it in items))
    if explicit:
        d = np.array([[rng.uniform(1, 50) for _ in range(n)] for _ in range(n)])
        d = (d + d.T) / 2.0
        d = d * (1 + 1e-12 * np.triu(np.ones((n, n))))  # asymmetric in the last bits
        np.fill_diagonal(d, 0.0)
        return Instance(base.name, n, m, None, items, cap, 0.1, 1.0,
                        rng.uniform(0.5, 5.0), EdgeWeightType.EXPLICIT, d)
    return Instance(base.name, n, m, base.coords, items, cap, 0.1, 1.0,
                    rng.uniform(0.5, 5.0), rng.choice([EdgeWeightType.CEIL_2D, EdgeWeightType.EUC_2D]))


def assert_state_is_fresh(inst: Instance, sol: Solution, cache) -> None:
    fresh = build_prefix_cache(inst, sol)
    for name in ARRAYS:
        assert np.array_equal(getattr(cache, name), getattr(fresh, name)), name
    assert cache.total_time == fresh.total_time
    assert np.array_equal(cache.city_at, np.array(sol.tour) - 1)


def assert_build_equals_loop(inst: Instance, sol: Solution) -> None:
    cache = build_prefix_cache(inst, sol)
    for name, expect in loop_prefix_arrays(inst, sol.tour, sol.packing).items():
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
            for probe in rng.choices(range(1, inst.m + 1), k=3):  # repeats hit ``deltas``
                expect = loop_delta_flip(inst, sol.tour, sol.packing, probe)
                assert delta_flip(inst, sol, cache, probe) == expect
            j = rng.randint(1, inst.m)
            before = list(sol.packing)
            flip(inst, sol, cache, j)
            assert sol.packing[j - 1] == 1 - before[j - 1]
            assert_state_is_fresh(inst, sol, cache)
            flips += 1
    assert flips > 500


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
                delta_flip(inst, sol, cache, j)
            tour_mod._reverse(inst, sol, cache, a, b)
            assert probe == cache.total_time
            assert_state_is_fresh(inst, sol, cache)
            assert_build_equals_loop(inst, sol)
            for j in range(1, inst.m + 1):
                assert delta_flip(inst, sol, cache, j) == loop_delta_flip(inst, sol.tour, sol.packing, j)


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
        table = tour_mod._candidate_table(inst, every)
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


def test_copy_equals_its_source_and_shares_no_buffer():
    rng = random.Random(61)
    inst = float_instance(rng, 12, 20)
    sol = random_solution(rng, inst, feasible=False)
    cache = build_prefix_cache(inst, sol)
    delta_flip(inst, sol, cache, 1)
    twin = cache.copy()
    for f in dataclasses.fields(PrefixCache):
        mine, theirs = getattr(twin, f.name), getattr(cache, f.name)
        if isinstance(mine, np.ndarray):
            assert np.array_equal(mine, theirs) and mine.dtype == theirs.dtype, f.name
            assert not np.shares_memory(mine, theirs), f.name
        else:
            assert mine == theirs, f.name
    assert twin.deltas == {1: cache.deltas[1]} and twin.deltas is not cache.deltas


def test_two_opt_accepted_moves_keep_state(monkeypatch):
    real = tour_mod._reverse
    accepted = []

    def checking(inst_, sol_, cache_, a, b):
        real(inst_, sol_, cache_, a, b)
        assert_state_is_fresh(inst_, sol_, cache_)
        accepted.append((a, b))

    monkeypatch.setattr(tour_mod, "_reverse", checking)
    rng = random.Random(47)
    for k in range(12):
        inst = float_instance(rng, rng.randint(5, 20), rng.randint(0, 20), explicit=k % 3 == 0)
        sol = random_solution(rng, inst, feasible=False)
        given = build_prefix_cache(inst, sol)
        out = two_opt_improve(inst, sol, given, delaunay_candidates(inst), None)
        assert_state_is_fresh(inst, sol, given)  # the caller's state is left alone
        assert out.packing == sol.packing
    assert len(accepted) > 20


def test_improvers_leave_a_given_state_alone():
    rng = random.Random(53)
    inst = float_instance(rng, 10, 20)
    sol = Solution(list(range(1, 11)), [0] * inst.m)
    cache = build_prefix_cache(inst, sol)
    bit_flip_search(inst, sol, cache, rng=random.Random(1))
    simulated_annealing_kp(inst, sol, cache, SolverConfig(sa_iters_per_temp=50), rng=random.Random(2))
    assert sol.packing == [0] * inst.m
    assert_state_is_fresh(inst, sol, cache)
