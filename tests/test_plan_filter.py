"""The chord bound that lets the picking plan take an item without
``delta_flip``: the bound must never exceed the exact price where it is
used, and the plan that commits the items it takes with one retime must
pick what the plan that prices every pick picks, and leave a state equal to
a fresh build, also when its deadline passes mid-phase."""

import dataclasses
import random
import types

import numpy as np
import pytest

import loop_eval
import ttp.packing as packing_mod
from ttp.evaluate import Solution, build_prefix_cache, delta_flip
from ttp.instance import Instance
from ttp.packing import _LOAD_LINE, SolverConfig, _flip_bound, _pick_lb, initial_picking_plan
from ttp.scoring import suffix_distances

from conftest import columns, float_instance, random_solution
from loop_eval import loop_initial_picking_plan
from test_sa_filter import KINDS, bound_instance
from test_state import assert_state_is_fresh


def tight_instance(rng: random.Random, kind: str, n: int, m: int, v_max: float = 1.0,
                   v_min: float = 0.1) -> Instance:
    """Random instance with integer weights, an integer capacity that whole
    subsets of items can fill exactly, and a renting ratio that makes some
    items barely worth their weight; so the bound leaves some picks to
    pricing."""
    inst = bound_instance(rng, kind, n, m, v_max, v_min, float_weights=False)
    rows = [(rng.randint(1, 100), rng.randint(1, 12), rng.randint(2, n)) for _ in range(m)]
    capacity = max(1, round(rng.uniform(0.3, 0.9) * sum(w for _, w, _ in rows)))
    length = float(build_prefix_cache(inst, Solution(list(range(1, n + 1)), [0] * inst.m)).leg_dist.sum())
    return dataclasses.replace(inst, **columns(rows), capacity=float(capacity),
                               renting_ratio=rng.uniform(0.5, 4.0) * 200.0 * v_min / max(length, 1.0))


def check_bound(inst: Instance, sol: Solution, counts: dict) -> None:
    cache = build_prefix_cache(inst, sol)
    bound = _flip_bound(inst, cache)
    load = cache.cum_weight.item(-1)
    suffix = suffix_distances(cache).tolist()
    for j in range(inst.m):
        w = inst.weight.item(j)
        if cache.packing[j] or load + w >= inst.capacity * _LOAD_LINE:
            continue  # past the load line, the plan prices every pick
        k0 = cache.position.item(inst.city.item(j) - 1)
        lb = _pick_lb(inst, bound, inst.profit.item(j), w, load, suffix[k0])
        assert lb <= delta_flip(inst, cache, j + 1), (inst.name, j)
        counts["checked"] += 1
        counts["decisive"] += lb > 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("v_max, v_min", [(1.0, 0.1), (3.0, 0.01), (0.75, 0.5)])
def test_bound_is_never_above_the_exact_price(kind, v_max, v_min):
    rng = random.Random(f"{kind} {v_max} plan")
    counts = {"checked": 0, "decisive": 0}
    for k in range(25):
        maker = tight_instance if k % 2 else bound_instance
        inst = maker(rng, kind, rng.randint(2, 20), rng.randint(1, 30), v_max, v_min)
        if not inst.exact_loads:
            inst = dataclasses.replace(inst, weight=np.ceil(inst.weight))
        sol = random_solution(rng, inst)
        check_bound(inst, sol, counts)
        empty = Solution(sol.tour, [0] * inst.m)
        check_bound(inst, empty, counts)
        # in an empty knapsack the chord is exact: each item priced at its
        # computed chord costs within rounding of its profit
        cache = build_prefix_cache(inst, empty)
        r_nu, _, _ = _flip_bound(inst, cache)
        suffix = suffix_distances(cache)[cache.position[inst.city - 1]]
        w = np.minimum(inst.weight, inst.capacity / 2)  # below the load line, where it is used
        chord = r_nu * w * (1.0 / inst.v_max) * (1.0 / (inst.v_max - inst.weight_velocity_slope * w)) * suffix
        tied = np.where((w == inst.weight) & (chord > 0), chord, inst.profit)
        check_bound(dataclasses.replace(inst, profit=tied), empty, counts)
    assert counts["checked"] > 300 and 50 < counts["decisive"] < counts["checked"]


def counted(monkeypatch) -> dict:
    """Counts, in the plan's module, the ``delta_flip`` calls and the picks
    that ``_pick_lb`` decides."""
    counts = {"priced": 0, "sure": 0}
    real_price, real_lb = packing_mod.delta_flip, packing_mod._pick_lb

    def price(*args):
        counts["priced"] += 1
        return real_price(*args)

    def lb(*args):
        value = real_lb(*args)
        counts["sure"] += value > 0
        return value

    monkeypatch.setattr(packing_mod, "delta_flip", price)
    monkeypatch.setattr(packing_mod, "_pick_lb", lb)
    return counts


def check_plan(inst: Instance, sol: Solution, config: SolverConfig, deadline=None) -> None:
    """The plan and the reference plan from states of ``sol``: the same
    packing, and a state equal to a fresh build."""
    given, ref = build_prefix_cache(inst, sol), build_prefix_cache(inst, sol)
    plan = initial_picking_plan(inst, sol.tour, given, config, deadline)
    assert plan == loop_initial_picking_plan(inst, sol.tour, ref, config, deadline) == list(given.packing)
    assert_state_is_fresh(inst, given)


@pytest.mark.parametrize("kind", KINDS)
def test_plan_takes_the_reference_picks(monkeypatch, kind):
    rng = random.Random(f"plan {kind}")
    counts = counted(monkeypatch)
    exact_priced = 0  # delta_flip calls of plans on exact loads
    for k in range(30):
        n, m, v_max = rng.randint(3, 25), rng.randint(1, 60), rng.choice([1.0, 2.0, 0.5])
        if k % 3 == 0:
            inst = bound_instance(rng, kind, n, m, v_max=v_max, float_weights=k % 2 == 0)
        else:
            inst = tight_instance(rng, kind, n, m, v_max=v_max)
        sol = random_solution(rng, inst)
        for beta in (None, 0.0, 1.0):
            for alpha in (1.0, 1.5, 3.0):
                before = dict(counts)
                check_plan(inst, sol, SolverConfig(alpha=alpha, beta=beta))
                if inst.exact_loads:
                    exact_priced += counts["priced"] - before["priced"]
                else:
                    assert counts["sure"] == before["sure"]
    assert counts["sure"] > 1000 and exact_priced > 50 and counts["priced"] > exact_priced


@pytest.mark.parametrize("stop", range(1, 40, 3))
def test_plan_at_a_deadline_mid_phase_takes_the_reference_picks(monkeypatch, stop):
    # one clock for both plans that passes the deadline after ``stop``
    # checks of each: the plan checks once per city in phase 1 and once per
    # item in phase 2, as the reference does
    rng = random.Random(stop)
    ticks = {packing_mod: 0, loop_eval: 0}

    def clock(module):
        def monotonic():
            ticks[module] += 1
            return ticks[module]
        return types.SimpleNamespace(monotonic=monotonic)

    monkeypatch.setattr(packing_mod, "_time", clock(packing_mod))
    monkeypatch.setattr(loop_eval, "_time", clock(loop_eval))
    cases = [tight_instance(rng, kind, rng.randint(10, 30), rng.randint(20, 60)) for kind in ("explicit", "euc-int")]
    cases.append(float_instance(rng, rng.randint(10, 30), rng.randint(20, 60), explicit=True))
    cut = 0
    for inst in cases:
        ticks.update(dict.fromkeys(ticks, 0))
        check_plan(inst, random_solution(rng, inst), SolverConfig(beta=0.0), stop + 0.5)
        assert ticks[packing_mod] == ticks[loop_eval]
        cut += ticks[packing_mod] > stop
    assert cut
