"""The tangent bound that lets simulated annealing reject a flip probe
without ``delta_flip``: the bound must never fall below the exact delta
where it is used, and the filtered loop must take every decision of the
loop that prices every probe, from the same random stream."""

import dataclasses
import random

import numpy as np
import pytest

import loop_eval
import ttp.packing as packing_mod
from ttp.evaluate import Solution, build_prefix_cache, delta_flip
from ttp.instance import EdgeWeightType, Instance
from ttp.packing import _LOAD_LINE, SolverConfig, _flip_bound, _flip_ub, _slopes, simulated_annealing_kp

from conftest import columns, improved, random_solution
from loop_eval import loop_simulated_annealing

KINDS = ("ceil-float", "ceil-int", "euc-int", "explicit")


def bound_instance(rng: random.Random, kind: str, n: int, m: int, v_max: float = 1.0,
                   v_min: float = 0.1, r=None, float_weights: bool = True) -> Instance:
    """Random instance of one distance kind; EXPLICIT distances are
    symmetric floats.  With float weights every third item
    is so light that the bound's tangent is tight to rounding level."""
    if float_weights:
        rows = [(rng.uniform(1, 100), rng.uniform(0.1, 40), rng.randint(2, n)) if j % 3
                else (rng.uniform(1e-6, 1e-3), rng.uniform(1e-9, 1e-6), rng.randint(2, n))
                for j in range(1, m + 1)]
    else:
        rows = [(rng.randint(1, 100), rng.randint(1, 40), rng.randint(2, n)) for _ in range(m)]
    cap = max(1.0, rng.uniform(0.2, 0.7) * sum(w for _, w, _ in rows))
    common = dict(name=kind, n=n, m=m, **columns(rows), capacity=cap, v_min=v_min, v_max=v_max,
                  renting_ratio=rng.uniform(0.1, 5.0) if r is None else r)
    if kind == "explicit":
        d = np.array([[rng.uniform(1, 60) for _ in range(n)] for _ in range(n)])
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        return Instance(coords=None, edge_weight_type=EdgeWeightType.EXPLICIT, explicit_dist=d, **common)
    if kind == "ceil-float":
        coords = np.array([[rng.uniform(0, 100), rng.uniform(0, 100)] for _ in range(n)])
    else:
        coords = np.array([[rng.randint(0, 30), rng.randint(0, 30)] for _ in range(n)], dtype=float)
    ewt = EdgeWeightType.EUC_2D if kind == "euc-int" else EdgeWeightType.CEIL_2D
    return Instance(coords=coords, edge_weight_type=ewt, **common)


def with_capacity(inst: Instance, capacity: float) -> Instance:
    return dataclasses.replace(inst, capacity=capacity)


def bound_applies(inst: Instance, cache, w: float, adding: bool) -> bool:
    """The annealing loop's test: a drop is bounded at any load, an
    addition only while its final load stays below the load line."""
    return not adding or float(cache.cum_weight[-1]) + w < inst.capacity * _LOAD_LINE


def check_state(inst: Instance, sol: Solution, counts: dict) -> None:
    cache = build_prefix_cache(inst, sol)
    bound = _flip_bound(inst, cache)
    slope = _slopes(cache)
    load = float(cache.cum_weight[-1])
    for j in range(1, inst.m + 1):
        adding = not sol.packing[j - 1]
        w = float(inst.weight[j - 1])
        if adding and load + w > inst.capacity:
            continue  # infeasible: the annealing loop never prices it
        if not bound_applies(inst, cache, w, adding):
            counts["addition fallback"] += 1
            continue
        k0 = int(cache.position[inst.city[j - 1] - 1])
        ub = _flip_ub(bound, float(inst.profit[j - 1]), w, slope[k0], adding)
        delta = delta_flip(inst, cache, j)
        assert ub >= delta, (inst.name, j, ub, delta)
        counts["checked"] += 1
        counts["decisive"] += ub <= 0
        counts["full drop"] += not adding and abs(load - inst.capacity) <= 1e-9 * inst.capacity


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("v_max, v_min", [(1.0, 0.1), (3.0, 0.01), (0.75, 0.5)])
def test_bound_is_never_below_the_exact_delta(kind, v_max, v_min):
    rng = random.Random(f"{kind} {v_max}")
    counts = dict.fromkeys(("checked", "decisive", "addition fallback", "full drop"), 0)
    for k in range(25):
        inst = bound_instance(rng, kind, rng.randint(2, 20), rng.randint(1, 30), v_max, v_min,
                              r=[0.0, 1e-8, None, None, None][k % 5], float_weights=k % 2 == 0)
        sol = random_solution(rng, inst)
        check_state(inst, sol, counts)
        # the same packing with the capacity right at, just above or just
        # below its load, and with the lightest item left out fitting just
        # past the load line
        load = float(build_prefix_cache(inst, sol).cum_weight[-1])
        if load > 0:
            for slack in (0.0, 5e-10, 2e-9, 1e-6, -1e-6):
                check_state(with_capacity(inst, load * (1 + slack)), sol, counts)
        left = [w for w, picked in zip(inst.weight.tolist(), sol.packing) if not picked]
        if left:
            check_state(with_capacity(inst, (load + min(left)) * (1 + 5e-10)), sol, counts)
    assert counts["checked"] > 300 and counts["decisive"] > 100
    assert counts["addition fallback"] >= 20 and counts["full drop"] >= 200, counts


def count_calls(monkeypatch, module, name: str = "delta_flip") -> dict:
    calls = {"n": 0}
    real = getattr(module, name)

    def counting(*args):
        calls["n"] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def run_both(monkeypatch, inst, sol, params, seed):
    """The filtered and the reference annealing from one seed: their
    packings, their ``delta_flip`` calls and their random states after."""
    ours, ref = count_calls(monkeypatch, packing_mod), count_calls(monkeypatch, loop_eval)
    rng_a, rng_b = random.Random(seed), random.Random(seed)
    got = improved(inst, sol, simulated_annealing_kp, params, None, rng_a).packing
    expect = loop_simulated_annealing(inst, sol, params, rng_b)
    assert got == expect
    assert rng_a.getstate() == rng_b.getstate()
    return ours["n"], ref["n"]


@pytest.mark.parametrize("kind", KINDS)
def test_annealing_takes_the_reference_decisions(monkeypatch, kind):
    rng = random.Random(KINDS.index(kind))
    ours = ref = 0
    for k in range(8):
        inst = bound_instance(rng, kind, rng.randint(3, 25), rng.randint(1, 40),
                              v_max=rng.choice([1.0, 2.0, 0.5]),
                              r=0.0 if k == 0 else None, float_weights=k % 2 == 1)
        sol = random_solution(rng, inst)
        for t0 in (None, 0.5, 20.0, 1e4):
            params = SolverConfig(sa_t0=t0, sa_cooling=0.6, sa_iters_per_temp=60)
            a, b = run_both(monkeypatch, inst, sol, params, seed=k)
            assert a <= b
            ours, ref = ours + a, ref + b
    assert ours < 0.6 * ref


@pytest.mark.parametrize("m", [1, 2, 3, 64, 79, 790, 12495])
def test_item_draws_follow_randint(monkeypatch, m):
    # the loop draws items as rng.randint(1, m) would; a different stream
    # would pick other items and leave the generator in another state
    rng = random.Random(m)
    n = 30 if m > 100 else 6
    inst = bound_instance(rng, "ceil-float", n, m)
    sol = random_solution(rng, inst)
    params = SolverConfig(sa_t0=5.0, sa_cooling=0.5, sa_iters_per_temp=40)
    run_both(monkeypatch, inst, sol, params, seed=m)


def test_at_capacity_drops_are_bounded(monkeypatch):
    # everything picked and the capacity right at, or just above, the load:
    # additions are infeasible, and the bound decides drops at any load, so
    # a full knapsack prices only the drops it cannot reject
    items = columns([(1000.0 + j, 1.0 + 0.1 * j, 2 + j % 5) for j in range(1, 11)])
    coords = np.array([[3.0 * i, (i * i) % 7] for i in range(6)])
    total = float(np.cumsum(items["weight"])[-1])
    sol = Solution([1, 2, 3, 4, 5, 6], [1] * 10)
    params = SolverConfig(sa_t0=1.0, sa_cooling=0.5, sa_iters_per_temp=50)
    for capacity in (total, total * (1 + 5e-10), total * (1 + 1e-6)):
        inst = Instance("full", 6, 10, coords, **items, capacity=capacity, v_min=0.1, v_max=1.0,
                        renting_ratio=0.5)
        bounded = count_calls(monkeypatch, packing_mod, "_flip_ub")
        ours, ref = run_both(monkeypatch, inst, sol, params, seed=3)
        assert ref == 500
        assert bounded["n"] > 0 and ours < ref / 10
