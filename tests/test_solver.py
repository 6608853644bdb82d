import itertools
import json
import math
import random
import sys
import time
import types
from dataclasses import fields, replace
from pathlib import Path

import pytest

import loop_eval
import ttp.evaluate as eval_mod
import ttp.packing as packing_mod
import ttp.solver as solver_mod
import ttp.tour as tour_mod
from ttp.evaluate import PrefixCache, Solution, evaluate
from ttp.instance import EdgeWeightType, Instance
from ttp.solver import RunRecord, SolverConfig, solve

from conftest import FIXTURES, brute_force_best_solution, float_instance, make_random_instance
from loop_eval import loop_solve


def test_config_validation():
    # a NaN budget never expires, zero restarts leave solve() no result, and
    # counts are integers, as the run record's schema says
    for bad in (dict(time_budget=0), dict(time_budget=math.nan), dict(sa_t0=math.nan),
                dict(alpha=math.nan), dict(alpha=math.inf), dict(max_restarts=0),
                dict(max_restarts=-1), dict(sa_iters_per_temp=0), dict(max_restarts=1.5),
                dict(sa_iters_per_temp=2.5), dict(sa_iters_per_temp=2.0)):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    cfg = SolverConfig(time_budget=1.0, alpha=1.0, seed=3)
    d = cfg.to_dict()
    assert d["alpha"] == 1.0 and d["seed"] == 3


@pytest.mark.parametrize("explicit", [False, True])
def test_solve_at_an_overflowing_alpha_is_feasible(explicit):
    # weight ** 2000 overflows a float for every weight above 1.43
    if explicit:
        d = [[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]]
        inst = Instance("tri", 3, 3, None, [40.0, 30.0, 20.0], [2.0, 3.0, 4.0], [2, 3, 3], 6.0, 0.1, 1.0, 0.5,
                        EdgeWeightType.EXPLICIT, d)
    else:
        inst = make_random_instance(random.Random(5), 12, 30)
    rec = solve(inst, SolverConfig(alpha=2000.0, max_restarts=2))
    res = evaluate(inst, Solution(rec.best_tour, rec.best_packing))
    assert res.feasible and res.gain == rec.best_gain
    assert any(rec.best_packing)


def test_solve_reaches_exhaustive_optimum_on_fixture(example5):
    opt = brute_force_best_solution(example5)
    rec = solve(example5, SolverConfig(time_budget=600.0, seed=0, max_restarts=4))
    assert rec.best_gain == pytest.approx(opt, rel=1e-9)
    sol = Solution(rec.best_tour, rec.best_packing)
    sol.validate(example5)
    res = evaluate(example5, sol)
    assert res.feasible
    assert res.gain == pytest.approx(rec.best_gain, rel=1e-12)


def test_solve_no_items():
    inst = make_random_instance(random.Random(2), 6, 0)
    rec = solve(inst, SolverConfig(time_budget=60.0, max_restarts=2))
    assert rec.best_packing == []
    # gain is just minus the rent of the best tour found
    res = evaluate(inst, Solution(rec.best_tour, []))
    assert res.gain == pytest.approx(rec.best_gain)
    assert rec.best_gain < 0


def test_solve_deterministic_with_fixed_restarts():
    inst = make_random_instance(random.Random(8), 7, 9)
    cfg = dict(time_budget=60.0, seed=11, max_restarts=4, sa_iters_per_temp=100)
    r1 = solve(inst, SolverConfig(**cfg))
    r2 = solve(inst, SolverConfig(**cfg))
    assert r1.best_gain == r2.best_gain
    assert r1.best_tour == r2.best_tour
    assert r1.best_packing == r2.best_packing
    assert r1.trace == r2.trace
    assert len(r1.trace) == 4


def test_solve_respects_deadline():
    inst = make_random_instance(random.Random(5), 30, 60)
    budget = 2.0
    t0 = time.monotonic()
    rec = solve(inst, SolverConfig(time_budget=budget, sa_iters_per_temp=100))
    elapsed = time.monotonic() - t0
    # one restart may overrun slightly, but not by a large factor
    assert elapsed < budget + 3.0
    assert rec.wall_time == pytest.approx(elapsed, abs=0.5)


def test_solve_past_its_deadline_returns_the_id_order_tour_and_an_empty_plan():
    # the budget has run out before the first tour is built
    inst = make_random_instance(random.Random(5), 30, 60)
    rec = solve(inst, SolverConfig(time_budget=1e-12, max_restarts=1))
    assert rec.best_tour == list(range(1, 31))
    assert rec.best_packing == [0] * 60
    assert evaluate(inst, Solution(rec.best_tour, rec.best_packing)).feasible


def test_solve_uses_supplied_tour():
    inst = make_random_instance(random.Random(13), 6, 6)
    tour = [1, 6, 5, 4, 3, 2]
    rec = solve(inst, SolverConfig(time_budget=1.0, max_restarts=1, tour_in=tour,
                                   use_sa=False))
    sol = Solution(rec.best_tour, rec.best_packing)
    sol.validate(inst)
    # with a single restart the supplied tour seeds the search
    assert evaluate(inst, sol).gain == pytest.approx(rec.best_gain)


def test_solve_bit_flip_variant():
    inst = make_random_instance(random.Random(17), 6, 8)
    rec = solve(inst, SolverConfig(time_budget=2.0, use_sa=False, max_restarts=3))
    res = evaluate(inst, Solution(rec.best_tour, rec.best_packing))
    assert res.feasible
    assert res.gain == pytest.approx(rec.best_gain)


def test_trace_best_matches_reported():
    inst = make_random_instance(random.Random(19), 6, 8)
    rec = solve(inst, SolverConfig(time_budget=3.0, max_restarts=5,
                                   sa_iters_per_temp=100))
    assert max(rec.trace) == pytest.approx(rec.best_gain)


def test_rejects_tiny_instance():
    # ``solve`` takes an ``Instance``, and one of fewer than 2 cities can be
    # neither built nor copied, so ``solve`` has no check of its own
    inst = make_random_instance(random.Random(1), 2, 0)
    with pytest.raises(ValueError, match="at least 2 cities"):
        replace(inst, n=1)


def test_record_roundtrip():
    rec = RunRecord("x", {"seed": 1}, 2.5, [1, 2], [0, 1], 0.1, [2.5])
    d = rec.to_dict()
    assert d["best_gain"] == 2.5 and d["instance"] == "x"


@pytest.mark.parametrize("tour", [[1] * 20, list(range(2, 21)) + [1], list(range(1, 20))])
def test_solve_rejects_a_supplied_tour_that_is_not_a_permutation(category_c, tour):
    with pytest.raises(ValueError, match="tour"):
        solve(category_c, SolverConfig(time_budget=1.0, max_restarts=1, tour_in=tour))


def test_readme_library_import():
    from ttp import SolverConfig, load_instance, solve  # the README's import line

    assert load_instance(FIXTURES / "example5.ttp").n == 5
    assert callable(solve) and SolverConfig().seed == 0


def test_config_fields_match_the_run_record_schema():
    schema = json.loads((Path(__file__).parents[1] / "schemas" / "runrecord.schema.json").read_text())
    assert [f.name for f in fields(SolverConfig)] == list(schema["properties"]["config"]["properties"])


def test_one_config_class_and_evaluate_names_the_module():
    import ttp
    import ttp.packing

    assert ttp.packing.PackingParams is ttp.SolverConfig is SolverConfig
    assert ttp.evaluate is sys.modules["ttp.evaluate"]


def test_fixed_work_gain_is_bit_identical(category_c):
    # measured before the tour state became numpy arrays; any change to the
    # order of floating-point additions in the search shows here
    rec = solve(category_c, SolverConfig(time_budget=1e6, max_restarts=2, sa_t0=1.0,
                                         sa_iters_per_temp=240, sa_cooling=0.5, seed=0))
    assert rec.best_gain == 72143.22439982402
    assert rec.trace == [72143.22439982402, 70149.34993313777]


# --- one tour state per restart ------------------------------------------------

def kind_instance(kind: str, seed: int, n: int = 9, m: int = 14):
    """A float-item instance with CEIL_2D, EUC_2D or float EXPLICIT distances."""
    inst = float_instance(random.Random(seed), n, m, explicit=kind == "explicit")
    if kind == "explicit":
        return inst
    return replace(inst, edge_weight_type=EdgeWeightType.CEIL_2D if kind == "ceil" else EdgeWeightType.EUC_2D)


def assert_same_run(got: RunRecord, expect: RunRecord) -> None:
    assert got.best_gain == expect.best_gain
    assert got.trace == expect.trace
    assert got.best_tour == expect.best_tour
    assert got.best_packing == expect.best_packing


FIXED = dict(time_budget=1e6, max_restarts=4, sa_iters_per_temp=40, sa_cooling=0.7)


@pytest.mark.parametrize("tour_in", [False, True])
@pytest.mark.parametrize("use_sa", [True, False])
@pytest.mark.parametrize("kind", ["ceil", "euc", "explicit"])
def test_solve_equals_the_rewalking_loop(kind, use_sa, tour_in):
    # restarts: the NN tour (or the supplied one), a randomised NN tour, a
    # random tour, and a randomised NN tour again
    for seed in range(3):
        inst = kind_instance(kind, 100 + seed)
        tour = [1] + random.Random(seed).sample(range(2, inst.n + 1), inst.n - 1) if tour_in else None
        config = SolverConfig(seed=seed, use_sa=use_sa, tour_in=tour, **FIXED)
        assert_same_run(solve(inst, config), loop_solve(inst, config))


@pytest.mark.parametrize("case", ["no items", "no positive item"])
def test_solve_equals_the_rewalking_loop_without_a_pick(case):
    inst = kind_instance("ceil", 7, m=0 if case == "no items" else 10)
    if case == "no positive item":
        inst = replace(inst, renting_ratio=1e9)  # no item pays its rent
    for use_sa in (True, False):
        config = SolverConfig(seed=3, use_sa=use_sa, **FIXED)
        rec = solve(inst, config)
        assert_same_run(rec, loop_solve(inst, config))
        assert rec.best_packing == [0] * inst.m


@pytest.mark.parametrize("budget", [3, 30, 90, 250, 700, 2000, 6000])
@pytest.mark.parametrize("use_sa", [True, False])
def test_solve_equals_the_rewalking_loop_at_a_deadline(monkeypatch, budget, use_sa):
    # a clock that ticks once per check, so that both loops stop at the same
    # check: in the candidate build, the NN walk, a descent, the plan or an
    # improver of some restart
    ticks = iter(())
    clock = types.SimpleNamespace(monotonic=lambda: next(ticks))
    for module in (solver_mod, packing_mod, tour_mod, loop_eval):
        monkeypatch.setattr(module, "_time", clock)
    inst = kind_instance("euc", 11, n=8, m=12)
    config = SolverConfig(time_budget=budget, seed=5, use_sa=use_sa, sa_iters_per_temp=20, sa_cooling=0.6)
    ticks = itertools.count()
    got = solve(inst, config)
    ticks = itertools.count()
    assert_same_run(got, loop_solve(inst, config, skip_repeat=True))


@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("use_sa", [True, False])
def test_solve_walks_the_tour_once_per_restart(monkeypatch, category_c, use_sa, restarts):
    walks = []
    real = eval_mod.build_prefix_cache
    counting = lambda *args: walks.append(1) or real(*args)
    for module in (eval_mod, solver_mod):
        monkeypatch.setattr(module, "build_prefix_cache", counting)
    rec = solve(category_c, SolverConfig(time_budget=1e6, max_restarts=restarts, sa_t0=1.0,
                                         sa_iters_per_temp=240, sa_cooling=0.5, use_sa=use_sa))
    # the tour state is built once per restart and handed from stage to
    # stage; neither the annealer's best packing nor the plan's phase-1
    # fallback is rebuilt
    assert len(rec.trace) == restarts
    assert len(walks) == restarts


@pytest.mark.parametrize("use_sa", [True, False])
def test_solve_skips_the_descent_on_the_packing_it_ended_on(monkeypatch, category_c, use_sa):
    # after the plan, a descent follows an improver only when the improver
    # hands back a packing other than the one the restart's last descent
    # ended on, so it always follows the first.  The last improver of a loop
    # hands back its own, so a restart with k >= 2 improvers makes k - 1
    # descents after its plan
    log = []

    def log_calls(name):
        real = getattr(solver_mod, name)

        def logged(*args):
            out = real(*args)
            cache = next(arg for arg in args if isinstance(arg, PrefixCache))
            log.append((name, cache, bytes(cache.packing)))
            return out

        monkeypatch.setattr(solver_mod, name, logged)

    for name in ("initial_picking_plan", "simulated_annealing_kp", "bit_flip_search", "two_opt_improve"):
        log_calls(name)
    several = 0
    # on the second instance no item pays its rent: the first improver hands
    # back the plan's empty packing, and the descent still follows
    for inst in (category_c, replace(kind_instance("ceil", 7, m=10), renting_ratio=1e9)):
        config = SolverConfig(time_budget=1e6, max_restarts=3, sa_t0=1.0, sa_iters_per_temp=240, sa_cooling=0.5,
                              use_sa=use_sa)
        log.clear()
        assert_same_run(solve(inst, config), loop_solve(inst, config))
        plans = [k for k, (name, _, _) in enumerate(log) if name == "initial_picking_plan"]
        assert len(plans) == 3
        for start, end in zip(plans, plans[1:] + [len(log)]):
            # the next restart's length descent runs on its own state
            steps = [(name, packing) for name, cache, packing in log[start + 1 : end] if cache is log[start][1]]
            improvers = sum(name != "two_opt_improve" for name, _ in steps)
            last = None
            for k, (name, packing) in enumerate(steps):
                if name == "two_opt_improve":
                    last = packing
                else:
                    descends = k + 1 < len(steps) and steps[k + 1][0] == "two_opt_improve"
                    assert descends == (packing != last)
            assert len(steps) - improvers == improvers - (improvers >= 2)
            several += improvers >= 2
    assert several
