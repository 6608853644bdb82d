"""Tests of the benchmark itself: every workload runs end to end in a tiny
mode, and the checker rejects corrupted outputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check
import corpus

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_runs_and_passes_the_checker(workload, trace):
    proc = run_bench(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "anneal-c", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def tiny_c():
    return corpus.generate("C", 12, 5)


def _valid(c):
    tour = list(range(1, c.n + 1))
    packing = [0] * c.m
    packing[0] = 1
    return tour, packing, check.gain(c, tour, packing)


def test_checker_accepts_a_valid_solution(tiny_c):
    assert check.check_solution(tiny_c, *_valid(tiny_c)) == []


def test_checker_rejects_a_repeated_city(tiny_c):
    tour, packing, gain = _valid(tiny_c)
    tour[2] = tour[1]
    assert check.check_solution(tiny_c, tour, packing, gain)


def test_checker_rejects_an_over_capacity_packing(tiny_c):
    tour, _, _ = _valid(tiny_c)
    packing = [1] * tiny_c.m
    assert tiny_c.weight.sum() > tiny_c.capacity
    assert check.check_solution(tiny_c, tour, packing, check.gain(tiny_c, tour, packing))


def test_checker_rejects_a_gain_off_by_one(tiny_c):
    tour, packing, gain = _valid(tiny_c)
    assert check.check_solution(tiny_c, tour, packing, gain + 1.0)


def test_gain_matches_the_definition_by_hand():
    c = corpus.generate("C", 4, 0)
    tour, packing = [1, 2, 3, 4], [0] * c.m
    packing[10] = 1  # item 11, the first of city 3
    legs = [np.ceil(np.hypot(*(c.coords[b] - c.coords[a]))) for a, b in ((0, 1), (1, 2), (2, 3), (3, 0))]
    v = corpus.V_MAX - c.weight[10] * (corpus.V_MAX - corpus.V_MIN) / c.capacity
    time = (legs[0] + legs[1]) / corpus.V_MAX + (legs[2] + legs[3]) / max(v, corpus.V_MIN)
    assert check.gain(c, tour, packing) == pytest.approx(c.profit[10] - c.renting_ratio * time, rel=1e-12)


def test_generator_refuses_an_instance_too_small_for_a_renting_ratio():
    with pytest.raises(ValueError):
        corpus.generate("A", 4, 0)


def test_two_opt_check_rejects_a_crossing_tour():
    c = corpus.generate("C", 40, 1)
    rng = np.random.default_rng(0)
    tour = [1] + [int(x) + 2 for x in rng.permutation(c.n - 1)]
    assert check.check_two_opt(c, check.delaunay_neighbours(c), tour, [0] * c.m)


def test_construct_check_rejects_a_tour_that_is_not_nearest_neighbour():
    c = corpus.generate("B", 30, 1)
    tour = list(range(1, c.n + 1))
    assert check.check_construct(c, tour, [0] * c.m)
