import dataclasses
import itertools
import math
import random
import time
import types

import numpy as np
import pytest

import ttp.solver as solver_mod
import ttp.tour as tour_mod
from ttp.evaluate import GAIN_EPS, Solution, build_prefix_cache, evaluate
from ttp.instance import EdgeWeightType, Instance
from ttp.solver import SolverConfig, solve
from ttp.tour import delaunay_candidates, nearest_neighbor_tour, two_opt_improve

from conftest import (
    POINT_SETS, columns, improved, make_random_instance, point_set, points_instance, random_solution,
)
from loop_eval import (
    lists_table, loop_distance, loop_knn_candidates, loop_length_descent, loop_nearest_neighbor_tour, loop_two_opt,
    table_lists,
)
from test_state import assert_state_is_fresh


def coord_instance(points, **kw):
    defaults = dict(capacity=10.0, v_min=0.1, v_max=1.0, renting_ratio=1.0)
    defaults.update(kw)
    return Instance(
        name="pts", n=len(points), m=0, coords=np.array(points, dtype=float),
        profit=[], weight=[], city=[], edge_weight_type=EdgeWeightType.EUC_2D, **defaults,
    )


# --- nearest neighbour -------------------------------------------------------

def test_nn_on_worked_example(example5):
    assert nearest_neighbor_tour(example5) == [1, 2, 3, 4, 5]


def test_nn_two_cities():
    inst = coord_instance([(0, 0), (1, 0)])
    assert nearest_neighbor_tour(inst) == [1, 2]


def test_nn_tie_break_lowest_id():
    # cities 2 and 3 equidistant from 1; 4 further out
    inst = coord_instance([(0, 0), (0, 5), (5, 0), (20, 20)])
    tour = nearest_neighbor_tour(inst)
    assert tour[0] == 1 and tour[1] == 2
    assert sorted(tour) == [1, 2, 3, 4]


def test_nn_past_its_deadline_appends_the_rest_in_id_order():
    inst = make_random_instance(random.Random(3), 12, 0)
    assert nearest_neighbor_tour(inst, deadline=time.monotonic()) == list(range(1, 13))
    tour = nearest_neighbor_tour(inst, rng=random.Random(1), deadline=time.monotonic())
    assert tour[0] == 1 and sorted(tour) == list(range(1, 13))
    assert tour[2:] == sorted(tour[2:])
    later = time.monotonic() + 1e6
    assert nearest_neighbor_tour(inst, deadline=later) == nearest_neighbor_tour(inst)


def walk_instance(rng, kind):
    """An instance of a ``point_set`` kind, of a ``length_instance`` EXPLICIT
    kind, or, for ``ties``, a full 7 x 6 integer grid with its points in
    random id order, where most steps of the walk have several nearest
    cities."""
    if kind.startswith("explicit"):
        return length_instance(rng, kind, 40)
    if kind == "ties":
        cells = [(x, y) for x in range(7) for y in range(6)]
        rng.shuffle(cells)
        coords, ewt = np.array(cells, dtype=float), EdgeWeightType.CEIL_2D
    else:
        coords, ewt = point_set(rng, kind)
    return points_instance(coords, ewt)


def tied_steps(inst, tour):
    """The steps of ``tour`` at which several cities left were nearest."""
    tied = 0
    for k in range(1, inst.n - 1):
        left = tour[k + 1 :]
        near = min(loop_distance(inst, tour[k], c) for c in left)
        tied += sum(loop_distance(inst, tour[k], c) == near for c in left) > 1
    return tied


@pytest.mark.parametrize("kind", POINT_SETS + ["explicit-int", "explicit-float", "ties"])
def test_nn_walk_equals_the_loop_walk(kind):
    # the same tour as the walk over a set keyed by (distance, id), and the
    # same draws of the random second city
    rng = random.Random(kind)
    past = time.monotonic()
    for _ in range(2):
        inst = walk_instance(rng, kind)
        tour = nearest_neighbor_tour(inst)
        assert tour == loop_nearest_neighbor_tour(inst)
        assert nearest_neighbor_tour(inst, deadline=past) == loop_nearest_neighbor_tour(inst, deadline=past)
        for seed in range(6):
            for deadline in (None, past):
                ours, theirs = random.Random(seed), random.Random(seed)
                assert nearest_neighbor_tour(inst, ours, deadline) == loop_nearest_neighbor_tour(inst, theirs, deadline)
                assert ours.getstate() == theirs.getstate()
        if kind in ("ties", "duplicates", "ceil-grid"):
            assert tied_steps(inst, tour) > 0


def test_nn_checks_its_deadline_once_per_step(monkeypatch):
    inst = walk_instance(random.Random(4), "ties")
    full = loop_nearest_neighbor_tour(inst)
    seeded = loop_nearest_neighbor_tour(inst, random.Random(8))

    def walked_by(deadline, rng=None):
        ticks = iter(range(1000))
        monkeypatch.setattr(tour_mod, "_time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
        return nearest_neighbor_tour(inst, rng, deadline)

    # the clock reads 0, 1, 2, .. at the walk's checks, one before each
    # step: a deadline k lets k steps by the walk's choice, and the cities
    # left follow in id order
    for k in range(inst.n + 1):
        for rng, walk, head in ((None, full, 1 + k), (random.Random(8), seeded, 2 + k)):
            assert walked_by(k, rng) == walk[:head] + sorted(walk[head:])


def test_nn_randomized_second_city_is_valid():
    rng = random.Random(0)
    inst = coord_instance([(i * 3.0, (i * 7) % 5) for i in range(8)])
    seen = set()
    for _ in range(20):
        tour = nearest_neighbor_tour(inst, rng=rng)
        assert tour[0] == 1 and sorted(tour) == list(range(1, 9))
        seen.add(tour[1])
    assert len(seen) > 1


# --- Delaunay candidates -----------------------------------------------------

def brute_force_delaunay_edges(points):
    """All edges belonging to a triangle whose circumcircle is empty."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    edges = set()
    for i, j, k in itertools.combinations(range(n), 3):
        ax, ay = pts[i]; bx, by = pts[j]; cx, cy = pts[k]
        d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if abs(d) < 1e-12:
            continue
        ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
              + (cx**2 + cy**2) * (ay - by)) / d
        uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
              + (cx**2 + cy**2) * (bx - ax)) / d
        r2 = (ax - ux) ** 2 + (ay - uy) ** 2
        empty = all(
            (pts[p, 0] - ux) ** 2 + (pts[p, 1] - uy) ** 2 >= r2 - 1e-9
            for p in range(n) if p not in (i, j, k)
        )
        if empty:
            edges |= {frozenset((i + 1, j + 1)), frozenset((j + 1, k + 1)), frozenset((i + 1, k + 1))}
    return edges


def candidate_edges(table):
    return {frozenset((i, j)) for i, ns in table_lists(table).items() for j in ns}


def test_triangle_gives_all_edges():
    inst = coord_instance([(0, 0), (10, 0), (5, 8)])
    cand = delaunay_candidates(inst)
    assert candidate_edges(cand) == {frozenset((1, 2)), frozenset((2, 3)), frozenset((1, 3))}


def test_square_has_five_edges():
    inst = coord_instance([(0, 0), (10, 0), (10, 10), (0, 10.1)])
    # slightly broken square so the triangulation is unique
    cand = delaunay_candidates(inst)
    assert len(candidate_edges(cand)) == 5


def test_grid_contains_grid_neighbours():
    pts = [(x, y) for x in range(5) for y in range(5)]
    inst = coord_instance(pts)
    cand = table_lists(delaunay_candidates(inst))
    def cid(x, y):
        return x * 5 + y + 1
    for x in range(5):
        for y in range(5):
            for dx, dy in ((1, 0), (0, 1)):
                if x + dx < 5 and y + dy < 5:
                    assert cid(x + dx, y + dy) in cand[cid(x, y)]
    for i, ns in cand.items():  # ties in distance are broken by id
        assert ns == sorted(ns, key=lambda c: (inst.distance(i, c), c))


def test_matches_empty_circumcircle_oracle():
    rng = random.Random(4)
    for _ in range(10):
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(rng.randint(4, 12))]
        inst = coord_instance(pts)
        cand = delaunay_candidates(inst)
        assert candidate_edges(cand) == brute_force_delaunay_edges(pts)


def test_candidate_invariants():
    rng = random.Random(8)
    inst = make_random_instance(rng, 15, 0)
    cand = table_lists(delaunay_candidates(inst))
    for i, ns in cand.items():
        assert ns, "every city needs at least one candidate"
        assert i not in ns
        assert ns == sorted(ns, key=lambda c: (inst.distance(i, c), c))
        for j in ns:
            assert i in cand[j]


def test_explicit_instance_falls_back_to_knn(example5):
    cand = table_lists(delaunay_candidates(example5))
    assert set(cand) == {1, 2, 3, 4, 5}
    for i, ns in cand.items():
        assert ns and i not in ns


def test_collinear_points_fall_back_to_knn():
    inst = coord_instance([(float(i), 0.0) for i in range(6)])
    cand = table_lists(delaunay_candidates(inst))
    for i, ns in cand.items():
        assert ns and i not in ns


def test_duplicate_points_are_perturbed():
    inst = coord_instance([(0, 0), (10, 0), (10, 0), (5, 8)])
    cand = table_lists(delaunay_candidates(inst))
    assert set(cand) == {1, 2, 3, 4}
    for i, ns in cand.items():
        assert ns


def test_every_table_is_mutual(monkeypatch):
    # the resumed length descent finds its back owners among the candidates
    # of the window's cities, so every row must be mutual, with one distance
    # per edge: Delaunay, duplicate points, repeats that qhull drops and
    # joins to their nearest vertex, the collinear and EXPLICIT k-nearest
    # lists, and the empty table past the deadline
    rng = random.Random(1)  # 25 points on a 4 x 4 grid: qhull drops some repeats
    dropped = coord_instance([(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(25)])
    Delaunay, QhullError = tour_mod.load_triangulation()
    coplanar = []  # the points qhull drops, per triangulation

    def triangulate(pts):
        tri = Delaunay(pts)
        coplanar.append(len(tri.coplanar))
        return tri

    monkeypatch.setattr(tour_mod, "load_triangulation", lambda: (triangulate, QhullError))
    rng = random.Random("mutual")
    tables = [
        delaunay_candidates(make_random_instance(rng, 30, 0)),
        delaunay_candidates(coord_instance([(0, 0), (10, 0), (10, 0), (5, 8), (0, 0), (3, 3)])),
        delaunay_candidates(dropped),
        delaunay_candidates(coord_instance([(float(x), 0.0) for x in rng.sample(range(60), 20)])),
        delaunay_candidates(length_instance(rng, "explicit-int", 20)),
        delaunay_candidates(length_instance(rng, "ceil-int", 20), deadline=time.monotonic()),
    ]
    assert coplanar[2] > 0
    for table in tables:
        owner = np.repeat(np.arange(table.count.size), table.count)
        dist = dict(zip(zip(owner.tolist(), table.to.tolist()), table.dist.tolist()))
        assert dist == {(v, u): d for (u, v), d in dist.items()}
    assert tables[-1].to.size == 0


def assert_empty_table(table, n):
    """Every one of the ``n`` cities has a row, with no candidates in it."""
    assert table.count.tolist() == table.start.tolist() == [0] * n
    assert table.to.size == table.dist.size == 0


@pytest.mark.parametrize("kind", ["delaunay", "explicit-knn", "collinear-knn"])
def test_candidates_past_their_deadline(monkeypatch, kind):
    if kind == "delaunay":
        inst = make_random_instance(random.Random(9), 15, 0)
    elif kind == "explicit-knn":
        inst = length_instance(random.Random(9), "explicit-float", 15)
    else:
        inst = coord_instance([(float(i), 0.0) for i in range(15)])
    full = table_lists(delaunay_candidates(inst))
    assert table_lists(delaunay_candidates(inst, deadline=time.monotonic() + 1e6)) == full
    assert_empty_table(delaunay_candidates(inst, deadline=time.monotonic()), 15)

    def built_by(deadline):
        ticks = iter(range(1000))
        monkeypatch.setattr(tour_mod, "_time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
        return delaunay_candidates(inst, deadline=deadline)

    # the clock reads 0, 1, 2, .. at the builder's checks: one before the
    # triangulation (none on EXPLICIT instances), one per k-nearest row
    # (none when the triangulation succeeds) and one before the sort that
    # makes the lists mutual.  A deadline past the last check gives the
    # full table; one at any check, the empty table, rows built or not
    checks = {"delaunay": 2, "explicit-knn": 16, "collinear-knn": 17}[kind]
    assert table_lists(built_by(checks)) == full
    for deadline in range(checks):
        assert_empty_table(built_by(deadline), 15)


def test_solve_past_its_deadline_on_knn_candidates(monkeypatch, example5):
    built = []
    monkeypatch.setattr(solver_mod, "delaunay_candidates",
                        lambda *args: built.append(delaunay_candidates(*args)) or built[-1])
    rec = solve(example5, SolverConfig(time_budget=1e-12, max_restarts=1))
    assert [table_lists(t) for t in built] == [{i: [] for i in range(1, 6)}]
    sol = Solution(rec.best_tour, rec.best_packing)
    sol.validate(example5)
    assert evaluate(example5, sol).feasible


# --- 2-OPT -------------------------------------------------------------------

def full_candidates(inst):
    return lists_table(inst, {i: [j for j in range(1, inst.n + 1) if j != i] for i in range(1, inst.n + 1)})


def test_two_opt_uncrosses_quadrilateral():
    inst = coord_instance([(0, 0), (10, 0), (10, 10), (0, 10)])
    sol = Solution([1, 3, 2, 4], [])
    before = evaluate(inst, sol).gain
    out = improved(inst, sol, two_opt_improve, full_candidates(inst), None)
    after = evaluate(inst, out).gain
    assert after > before
    assert out.tour in ([1, 2, 3, 4], [1, 4, 3, 2])


def test_two_opt_fixed_point():
    inst = coord_instance([(0, 0), (10, 0), (10, 10), (0, 10)])
    sol = Solution([1, 2, 3, 4], [])
    out = improved(inst, sol, two_opt_improve, full_candidates(inst), None)
    assert out.tour == [1, 2, 3, 4]


def tour_length(inst, tour):
    return sum(inst.distance(tour[k], tour[(k + 1) % inst.n]) for k in range(inst.n))


def test_two_opt_reaches_local_optimum_on_random_instances():
    rng = random.Random(17)
    for _ in range(10):
        inst = make_random_instance(rng, 9, 0)
        sol = random_solution(rng, inst)
        out = improved(inst, sol, two_opt_improve, full_candidates(inst), None)
        assert tour_length(inst, out.tour) <= tour_length(inst, sol.tour)
        # no improving 2-opt move remains (brute force over all pairs)
        base = evaluate(inst, out).gain
        for a in range(1, inst.n - 1):
            for b in range(a + 1, inst.n):
                tour = list(out.tour)
                tour[a : b + 1] = tour[a : b + 1][::-1]
                probe = Solution(tour, out.packing)
                assert evaluate(inst, probe).gain <= base + 1e-9


def test_two_opt_monotone_with_packing():
    rng = random.Random(23)
    for _ in range(20):
        inst = make_random_instance(rng, rng.randint(4, 9), rng.randint(0, 8))
        sol = random_solution(rng, inst)
        before = evaluate(inst, sol).gain
        cand = delaunay_candidates(inst)
        out = improved(inst, sol, two_opt_improve, cand, None)
        after = evaluate(inst, out).gain
        assert after >= before - 1e-9
        assert out.tour[0] == 1 and sorted(out.tour) == list(range(1, inst.n + 1))
        assert out.packing == sol.packing


def test_two_opt_accepted_moves_match_scratch_reevaluation(monkeypatch):
    # every accepted move leaves the state's time equal to a full evaluation
    # of the new tour, and raises the gain
    rng = random.Random(29)
    inst = make_random_instance(rng, 10, 12)
    sol = random_solution(rng, inst)
    assert any(sol.packing)
    real = tour_mod._reverse
    checked = []

    def checking(inst_, cache, a, b):
        before = evaluate(inst_, cache.solution()).gain
        real(inst_, cache, a, b)
        scratch = evaluate(inst_, cache.solution())
        assert cache.total_time == scratch.travel_time
        assert scratch.gain > before
        checked.append(1)

    monkeypatch.setattr(tour_mod, "_reverse", checking)
    improved(inst, sol, two_opt_improve, delaunay_candidates(inst), None)
    assert checked


# --- the empty-knapsack length descent ----------------------------------------

def length_instance(rng, kind, n, v_max=1.0, r=None, m=0):
    """Random instance of one distance kind:

    * ``ceil-int``: CEIL_2D on a 12 x 12 integer grid (larger past 144
      cities), so many lengths are exact integers (axis-parallel pairs,
      Pythagorean triples);
    * ``euc-half``: EUC_2D on a grid of step 0.5, so some lengths are exact
      halves, where EUC_2D rounds;
    * ``ceil-float``: CEIL_2D on uniform float coordinates;
    * ``explicit-int``: a symmetric integer matrix;
    * ``explicit-float``: a symmetric float matrix.
    """
    rows = [(rng.randint(10, 100), rng.randint(1, 20), rng.randint(2, n)) for _ in range(m)]
    r = rng.uniform(0.5, 5.0) if r is None else r
    common = dict(name=kind, n=n, m=m, **columns(rows), capacity=50.0, v_min=0.1, v_max=v_max,
                  renting_ratio=r)
    if kind.startswith("explicit"):
        if kind == "explicit-int":
            d = np.array([[rng.randint(1, 60) for _ in range(n)] for _ in range(n)], dtype=float)
            d = np.triu(d, 1) + np.triu(d, 1).T
        else:
            d = np.array([[rng.uniform(1, 60) for _ in range(n)] for _ in range(n)])
            d = (d + d.T) / 2.0
            np.fill_diagonal(d, 0.0)
        return Instance(coords=None, edge_weight_type=EdgeWeightType.EXPLICIT, explicit_dist=d, **common)
    if kind == "ceil-float":
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
    else:
        step = 0.5 if kind == "euc-half" else 1.0
        side = max(12, math.isqrt(n - 1) + 1)
        cells = rng.sample([(x, y) for x in range(side) for y in range(side)], n)
        pts = [(x * step, y * step) for x, y in cells]
    ewt = EdgeWeightType.EUC_2D if kind == "euc-half" else EdgeWeightType.CEIL_2D
    return Instance(coords=np.array(pts, dtype=float), edge_weight_type=ewt, **common)


def assert_table_rows(inst, table, lists):
    """The table holds the 1-based ``lists`` city by city, in their order,
    and every distance in it is ``Instance.distance``."""
    count = table.count.tolist()
    assert count == [len(lists[c]) for c in range(1, inst.n + 1)]
    assert table.start.tolist() == [sum(count[:c]) for c in range(inst.n)]
    assert table.to.size == table.dist.size == sum(count)
    for c in range(1, inst.n + 1):
        row = slice(table.start[c - 1], table.start[c - 1] + table.count[c - 1])
        assert (table.to[row] + 1).tolist() == lists[c]
        assert table.dist[row].tolist() == [inst.distance(c, v) for v in lists[c]]


def sorted_lists(inst, edges):
    """The 1-based lists of an edge set, each sorted by (distance, id)."""
    lists = {c: [] for c in range(1, inst.n + 1)}
    for i, j in map(tuple, edges):
        lists[i].append(j)
        lists[j].append(i)
    return {c: sorted(ns, key=lambda v: (inst.distance(c, v), v)) for c, ns in lists.items()}


@pytest.mark.parametrize("kind", ["explicit-int", "explicit-float", "ceil-int", "euc-half"])
def test_knn_candidates_equal_the_loop_sort(kind):
    # integer matrices and grid points give many equal distances, which the
    # ids must order; k-nearest lists are built for EXPLICIT and collinear
    # instances, and here also straight from the coordinates
    rng = random.Random(23)
    for n in (2, 3, 9, 10, 40):
        inst = length_instance(rng, kind, n)
        for k in (1, 8, n):
            assert_table_rows(inst, tour_mod._knn_candidates(inst, k), loop_knn_candidates(inst, k))
    collinear = coord_instance([(float(x), 0.0) for x in rng.sample(range(60), 25)])
    assert_table_rows(collinear, delaunay_candidates(collinear), loop_knn_candidates(collinear))


@pytest.mark.parametrize("kind", ["ceil-int", "euc-half", "explicit-int", "explicit-float",
                                  "collinear", "duplicate", "uniform"])
def test_candidate_table_rows_equal_the_lists(kind):
    # EXPLICIT and collinear instances get the k-nearest lists; uniform
    # points the lists of the empty-circumcircle oracle.  Grid points are
    # cocircular in many ways, so the oracle holds every diagonal and the
    # triangulation one of each; duplicates triangulate perturbed points,
    # and a repeat that qhull drops is joined to its nearest vertex.  Every
    # row must be non-empty and hold the table's own edges, sorted by the
    # instance's distances, and on the grid those edges must be the oracle's
    rng = random.Random(f"table {kind}")
    for n in (4, 9, 25):
        if kind == "collinear":
            inst = coord_instance([(float(x), 0.0) for x in rng.sample(range(60), n)])
        elif kind == "duplicate":  # n = 25 points on 16 grid positions repeat some
            inst = coord_instance([(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)])
        elif kind == "uniform":
            inst = coord_instance([(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)])
        else:
            inst = length_instance(rng, kind, n)
        table = delaunay_candidates(inst)
        edges = candidate_edges(table)
        if kind in ("explicit-int", "explicit-float", "collinear"):
            expect = loop_knn_candidates(inst)
        elif kind == "uniform":
            expect = sorted_lists(inst, brute_force_delaunay_edges(inst.coords))
        else:
            expect = sorted_lists(inst, edges)
            assert all(expect.values())
            if kind != "duplicate":
                assert edges <= brute_force_delaunay_edges(inst.coords)
        assert_table_rows(inst, table, expect)


def count_calls(monkeypatch, name: str) -> list:
    """Counts the calls of the function ``name`` of ``ttp.tour``."""
    real = getattr(tour_mod, name)
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(tour_mod, name, counting)
    return calls


def count_probe_walks(monkeypatch) -> list:
    """Counts the calls of the batched walk of reversed tours, which only the
    packed pass makes."""
    return count_calls(monkeypatch, "_times_after_reversals")


# (kind, v_max, renting ratio or None for random, whether travel times are exact)
LENGTH_CASES = [
    ("ceil-int", 1.0, None, True),
    ("euc-half", 1.0, None, True),
    ("ceil-float", 1.0, None, True),
    ("explicit-int", 1.0, None, True),
    ("ceil-int", 0.25, None, True),  # leg / v_max is still an integer
    ("ceil-int", 1.0, 0.0, True),  # R = 0: no move gains
    ("ceil-int", 1.0, 5e-10, True),  # R * 1 <= GAIN_EPS: a length drop of 1 or 2 is no gain
    ("ceil-int", 0.7, None, False),
    ("euc-half", 2.0, None, False),
    ("ceil-int", 0.7, 5e-10, False),
    ("explicit-float", 1.0, None, False),
]


@pytest.mark.parametrize("kind,v_max,r,exact", LENGTH_CASES)
def test_empty_knapsack_descent_matches_the_probe_loop(monkeypatch, kind, v_max, r, exact):
    assert 5e-10 * 2 <= GAIN_EPS < 5e-10 * 3
    walks = count_probe_walks(monkeypatch)
    passes = count_calls(monkeypatch, "_first_packed_move")
    rng = random.Random(f"{kind} {v_max} {r}")
    moved = 0
    for k in range(5):
        inst = length_instance(rng, kind, rng.randint(8, 16), v_max, r)
        assert tour_mod._exact_length_steps(inst) == exact
        sol = random_solution(rng, inst)
        cand = full_candidates(inst) if k == 0 else delaunay_candidates(inst)
        expect = loop_two_opt(inst, sol.tour, sol.packing, table_lists(cand))
        assert improved(inst, sol, two_opt_improve, cand, None).tour == expect
        moved += expect != sol.tour
    assert moved == 0 if r == 0.0 else moved > 0
    # exact times are priced by their length change; the others take the
    # packed pass.  On an empty knapsack its load interval is exact up to
    # rounding, so it walks only the probes whose gain lies within its
    # margin of GAIN_EPS, which the float distances give
    if exact:
        assert len(passes) == len(walks) == 0
    else:
        assert passes
        if kind == "explicit-float":
            assert walks


def test_empty_knapsack_descent_matches_the_probe_loop_on_larger_tours(monkeypatch):
    # the library's packed pass is the reference here, the fast path off
    rng = random.Random(61)
    for kind in ("ceil-int", "euc-half", "ceil-float"):
        for _ in range(3):
            inst = length_instance(rng, kind, 60)
            sol = random_solution(rng, inst)
            cand = delaunay_candidates(inst)
            fast = improved(inst, sol, two_opt_improve, cand, None)
            with monkeypatch.context() as mp:
                mp.setattr(tour_mod, "_exact_length_steps", lambda inst: False)
                walks = count_probe_walks(mp)
                assert improved(inst, sol, two_opt_improve, cand, None).tour == fast.tour
                assert walks


@pytest.mark.parametrize("kind,v_max,r", [case[:3] for case in LENGTH_CASES if case[3]])
def test_resumed_length_descent_takes_the_rescans_moves(monkeypatch, kind, v_max, r):
    # the descent that resumes after each move against the full rescan from
    # position 1: a deadline at pass k leaves the rescan's first k - 1 moves
    # (every k on small tours, some on large ones) in a state equal to a
    # fresh build, and the descent computes fewer new legs than the rescan
    # prices probes.  A move left of the one before it is a back probe
    ticks = iter(())
    monkeypatch.setattr(tour_mod, "_time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    distance, legs = Instance.distance, []
    monkeypatch.setattr(Instance, "distance", lambda *args: legs.append(1) or distance(*args))
    rng = random.Random(f"resume {kind} {v_max} {r}")
    back = resumed = rescanned = 0
    for n in (8, 11, 16, 30, 60, 200):
        for full in (True, False) if n <= 60 else (False,):  # a full table of 200 cities costs seconds
            inst = length_instance(rng, kind, n, v_max, r)
            assert tour_mod._exact_length_steps(inst)
            sol = random_solution(rng, inst)
            cand = full_candidates(inst) if full else delaunay_candidates(inst)
            moves, priced = loop_length_descent(inst, build_prefix_cache(inst, sol), cand)
            tours = [sol.tour]
            for a, b in moves:
                tours.append(tours[-1][:a] + tours[-1][a : b + 1][::-1] + tours[-1][b + 1 :])
            back += sum(a < before for (a, _), (before, _) in zip(moves[1:], moves))
            every = range(1, len(moves) + 2)
            for k in every if n <= 30 else [*every[:: len(every) // 4 + 1], every[-1]]:
                cache = build_prefix_cache(inst, sol)
                ticks, legs[:] = itertools.count(), []
                two_opt_improve(inst, cache, cand, None if k > len(moves) else k - 1)
                computed = len(legs)
                assert cache.solution().tour == tours[k - 1]
                assert_state_is_fresh(inst, cache)
            assert computed <= priced
            resumed, rescanned = resumed + computed, rescanned + priced
    assert resumed < rescanned
    assert back == 0 if r == 0.0 else back > 0


def test_one_picked_item_takes_the_packed_path(monkeypatch):
    walks = count_probe_walks(monkeypatch)
    rng = random.Random(67)
    inst = length_instance(rng, "ceil-int", 12, m=6)
    sol = random_solution(rng, inst)
    sol.packing = [0] * inst.m
    sol.packing[2] = 1
    cand = delaunay_candidates(inst)
    out = improved(inst, sol, two_opt_improve, cand, None)
    assert walks
    assert out.tour == loop_two_opt(inst, sol.tour, sol.packing, table_lists(cand))


# (kind, v_max, renting ratio or None for random)
PACKED_CASES = [
    ("ceil-int", 1.0, None),
    ("ceil-float", 0.7, None),
    ("euc-half", 2.0, None),
    ("ceil-float", 1.0, 0.0),  # R = 0: no move gains
    ("explicit-float", 1.0, None),
]


@pytest.mark.parametrize("kind,v_max,r", PACKED_CASES)
def test_packed_descent_matches_the_probe_loop(monkeypatch, kind, v_max, r):
    walks = count_probe_walks(monkeypatch)
    rng = random.Random(f"packed {kind} {v_max} {r}")
    moved = 0
    for k in range(6):
        inst = length_instance(rng, kind, rng.randint(8, 24), v_max, r, m=rng.randint(1, 30))
        sol = random_solution(rng, inst, feasible=k % 2 == 0)
        sol.packing[0] = 1
        cand = full_candidates(inst) if k < 2 else delaunay_candidates(inst)
        expect = loop_two_opt(inst, sol.tour, sol.packing, table_lists(cand))
        assert improved(inst, sol, two_opt_improve, cand, None).tour == expect
        moved += expect != sol.tour
    assert moved == 0 if r == 0.0 else moved > 0
    assert walks


def test_packed_descent_past_its_deadline_returns_the_input_tour():
    rng = random.Random(73)
    inst = length_instance(rng, "ceil-float", 20, m=10)
    sol = random_solution(rng, inst)
    sol.packing[0] = 1
    cand = delaunay_candidates(inst)
    assert loop_two_opt(inst, sol.tour, sol.packing, table_lists(cand)) != sol.tour
    out = improved(inst, sol, two_opt_improve, cand, time.monotonic())
    assert out.tour == sol.tour and out.packing == sol.packing


# --- the load interval of the packed pass -------------------------------------

def item_instance(rng, kind, n, per_city, v_max=1.0, r=None):
    """``length_instance`` with ``per_city`` items of whole weights at every
    city but the first, and a capacity of 30 to 80 % of their total."""
    inst = length_instance(rng, kind, n, v_max, r)
    rows = [(rng.randint(10, 100), rng.randint(1, 60), c) for c in range(2, n + 1) for _ in range(per_city)]
    capacity = float(round(rng.uniform(0.3, 0.8) * sum(w for _, w, _ in rows)))
    return dataclasses.replace(inst, m=len(rows), **columns(rows), capacity=capacity)


def descend_checking_each_pass(monkeypatch, inst, sol, table, counts):
    """The packed descent from ``sol``, each pass checked against a walk of
    every probe: the pass takes the walk's first improving probe, or None.

    With ``counts``, every pass has bounds: every time change lies within
    them widened by the margin, no rejected probe improves and every sure
    one does; ``counts`` gains the probes rejected up to each move, the
    moves taken without a walk, the rows walked, and the probes whose gain
    R * (-change) lies within R * margin of GAIN_EPS ("close").  With
    ``counts`` None, no pass has bounds, and each walks every probe up to
    its move.  Returns the tour the descent ends on."""
    real = tour_mod._times_after_reversals
    rows = []
    monkeypatch.setattr(tour_mod, "_times_after_reversals", lambda *args: rows.append(args[2].size) or real(*args))
    cache = build_prefix_cache(inst, sol)
    r = inst.renting_ratio
    while True:
        a, b, first, last = tour_mod._probes(inst, cache, table)
        times = real(inst, cache, a, b, first, last)
        improving = r * (cache.total_time - times) > GAIN_EPS
        hit = np.flatnonzero(improving)
        scanned = int(hit[0]) + 1 if hit.size else a.size
        rows.clear()
        move = tour_mod._first_packed_move(inst, cache, table, None)
        assert move == ((int(a[hit[0]]), int(b[hit[0]])) if hit.size else None)
        bounds = tour_mod._reversal_bounds(inst, cache, a, b, first, last)
        assert (bounds is None) == (counts is None)
        if bounds is not None:
            lower, upper, margin = bounds
            change = times - cache.total_time
            assert (lower - margin <= change).all() and (change <= upper + margin).all()
            rejected = r * (margin - lower) <= GAIN_EPS
            sure = r * (-upper - margin) > GAIN_EPS
            assert not improving[rejected].any() and improving[sure].all()
            counts["rejected"] += int(rejected[:scanned].sum())
            counts["sure"] += bool(hit.size and sure[hit[0]])
            counts["walked"] += sum(rows)
            counts["close"] += int((abs(r * (cache.total_time - times) - GAIN_EPS) <= r * margin).sum())
        else:
            assert sum(rows) >= scanned
        if move is None:
            return (cache.city_at + 1).tolist()
        tour_mod._reverse(inst, cache, *move)


@pytest.mark.parametrize("kind", ["ceil-int", "euc-half", "explicit-int", "explicit-float"])
def test_load_interval_takes_the_walks_decisions(monkeypatch, kind):
    rng = random.Random(f"interval {kind}")
    counts = dict.fromkeys(("rejected", "sure", "walked", "close"), 0)
    for per_city in (1, 5, 10):
        for k in range(4):
            inst = item_instance(rng, kind, rng.randint(8, 20), per_city, rng.choice([1.0, 0.7, 2.0]))
            sol = random_solution(rng, inst)
            load = evaluate(inst, sol).final_weight
            assert load <= inst.capacity
            if k == 3:  # a full knapsack, whose last speed is exactly v_min, has an interval too
                inst = dataclasses.replace(inst, capacity=load)
            cand = full_candidates(inst) if k == 0 else delaunay_candidates(inst)
            descend_checking_each_pass(monkeypatch, inst, sol, cand, counts)
    assert counts["rejected"] > 0 and counts["sure"] > 0 and counts["walked"] > 0


def test_packed_pass_over_capacity_walks_every_probe(monkeypatch):
    # the interval needs the speeds of loads within capacity; over it, a
    # pass walks every probe up to its move
    rng = random.Random("over capacity")
    for per_city in (1, 5, 10):
        for k in range(4):
            inst = item_instance(rng, "ceil-int", rng.randint(8, 20), per_city, rng.choice([1.0, 0.7]))
            sol = random_solution(rng, inst, feasible=False)
            sol.packing = [int(rng.random() < 0.9) for _ in range(inst.m)]
            load = evaluate(inst, sol).final_weight
            if k == 0:  # one whole weight over
                inst = dataclasses.replace(inst, capacity=load - 1.0)
            assert load > inst.capacity
            cand = full_candidates(inst) if k < 2 else delaunay_candidates(inst)
            descend_checking_each_pass(monkeypatch, inst, sol, cand, None)


def test_packed_pass_with_speeds_far_apart_walks_every_probe(monkeypatch):
    # k = v_max / v_min = 1e6 puts the interval's eta past 2**-10, where its
    # margin is not proved: a feasible state's pass walks every probe
    rng = random.Random("far speeds")
    for per_city in (1, 5, 10):
        for k in range(2):
            inst = item_instance(rng, "ceil-int", rng.randint(8, 20), per_city, 1.0)
            inst = dataclasses.replace(inst, v_min=1e-6)
            sol = random_solution(rng, inst)
            sol.packing[sol.packing.index(1)] = 0  # a whole weight below capacity
            assert evaluate(inst, sol).final_weight < inst.capacity
            cand = full_candidates(inst) if k == 0 else delaunay_candidates(inst)
            descend_checking_each_pass(monkeypatch, inst, sol, cand, None)


def test_load_interval_at_the_gain_threshold(monkeypatch):
    # R * 2 == GAIN_EPS at v_max = 1.  Items only at the cities of the last
    # third of the tour leave its start empty, where a length drop of 2 is a
    # time drop of 2 up to the rounding of the loaded rest: a probe whose
    # decision rests on the last bits, which the margin must leave undecided
    rng = random.Random("threshold")
    counts = dict.fromkeys(("rejected", "sure", "walked", "close"), 0)
    for per_city in (1, 5, 10):
        for k in range(6):
            inst = item_instance(rng, "ceil-int", rng.randint(12, 24), per_city, 1.0, 5e-10)
            sol = random_solution(rng, inst)
            late = set(sol.tour[2 * inst.n // 3 :])
            sol.packing = [z if inst.city[j] in late else 0 for j, z in enumerate(sol.packing)]
            cand = full_candidates(inst) if k < 2 else delaunay_candidates(inst)
            within = evaluate(inst, sol).final_weight <= inst.capacity
            tour = descend_checking_each_pass(monkeypatch, inst, sol, cand, counts if within else None)
            assert tour == loop_two_opt(inst, sol.tour, sol.packing, table_lists(cand))
    assert min(counts.values()) > 0


@pytest.mark.parametrize("kind", ["ceil-int", "euc-half", "ceil-float"])
@pytest.mark.parametrize("ulp", [0.0, np.inf, -np.inf])
def test_vectorised_distances_equal_instance_distance(monkeypatch, kind, ulp):
    # ulp: np.hypot made one ulp longer or shorter than it is, as another
    # libm may round; lengths at a rounding point must still come out right
    rng = random.Random(71)
    inst = length_instance(rng, kind, 40)
    i, j = (a.ravel() for a in np.meshgrid(np.arange(inst.n), np.arange(inst.n)))
    expect = [inst.distance(int(x) + 1, int(y) + 1) for x, y in zip(i, j)]
    if ulp:
        real = np.hypot
        monkeypatch.setattr(np, "hypot", lambda x, y: np.nextafter(real(x, y), ulp))
    assert tour_mod._distances(inst, i, j).tolist() == expect
