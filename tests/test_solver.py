import random
import time

import pytest

from ttp.evaluate import Solution, evaluate
from ttp.solver import RunRecord, SolverConfig, solve

from conftest import FIXTURES, brute_force_best_solution, make_random_instance


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(time_budget=0)
    cfg = SolverConfig(time_budget=1.0, alpha=1.0, seed=3)
    d = cfg.to_dict()
    assert d["alpha"] == 1.0 and d["seed"] == 3


def test_solve_reaches_exhaustive_optimum_on_fixture(example5):
    opt = brute_force_best_solution(example5)
    rec = solve(example5, SolverConfig(time_budget=5.0, seed=0))
    assert rec.best_gain == pytest.approx(opt, rel=1e-9)
    sol = Solution(rec.best_tour, rec.best_packing)
    sol.validate(example5)
    res = evaluate(example5, sol)
    assert res.feasible
    assert res.gain == pytest.approx(rec.best_gain, rel=1e-12)


def test_solve_no_items():
    inst = make_random_instance(random.Random(2), 6, 0)
    rec = solve(inst, SolverConfig(time_budget=2.0))
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
    inst = make_random_instance(random.Random(1), 2, 0)
    object.__setattr__(inst, "n", 1)
    with pytest.raises(ValueError):
        solve(inst, SolverConfig(time_budget=1.0))


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


def test_fixed_work_gain_is_bit_identical(category_c):
    # measured before the tour state became numpy arrays; any change to the
    # order of floating-point additions in the search shows here
    rec = solve(category_c, SolverConfig(time_budget=1e6, max_restarts=2, sa_t0=1.0,
                                         sa_iters_per_temp=240, sa_cooling=0.5, seed=0))
    assert rec.best_gain == 72143.22439982402
    assert rec.trace == [72143.22439982402, 70149.34993313777]
