import dataclasses
import math
import random
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ttp.instance import (
    EdgeWeightType,
    Instance,
    ParseError,
    _distances,
    parse_instance,
)

from conftest import FIXTURES, POINT_SETS, make_random_instance, point_set, points_instance
from loop_eval import loop_distance
from reference_eval import ref_distance


MINIMAL = """\
PROBLEM NAME: mini
DIMENSION: 3
NUMBER OF ITEMS: 2
CAPACITY OF KNAPSACK: 5
MIN SPEED: 0.1
MAX SPEED: 1
RENTING RATIO: 1
EDGE_WEIGHT_TYPE: CEIL_2D
NODE_COORD_SECTION (INDEX, X, Y):
1 0 0
2 3 4
3 0 4
ITEMS SECTION (INDEX, PROFIT, WEIGHT, ASSIGNED NODE NUMBER):
1 10 2 2
2 5 1 3
"""


def test_parse_minimal():
    inst = parse_instance(MINIMAL)
    assert inst.name == "mini"
    assert inst.n == 3 and inst.m == 2
    assert inst.capacity == 5
    assert (inst.profit[0], inst.weight[0], inst.city[0]) == (10, 2, 2)
    assert inst.edge_weight_type is EdgeWeightType.CEIL_2D


def test_parse_worked_example_fixture(example5):
    assert example5.n == 5 and example5.m == 4
    assert example5.capacity == 10
    assert example5.renting_ratio == 1
    assert example5.v_max == 1 and example5.v_min == 0.1
    assert example5.edge_weight_type is EdgeWeightType.EXPLICIT
    # ring distances used throughout the golden tests
    assert [example5.distance(i, i + 1) for i in range(1, 5)] == [1, 5, 3, 1]
    assert example5.distance(5, 1) == 1


def test_parse_empty_items_section():
    text = MINIMAL.replace("NUMBER OF ITEMS: 2", "NUMBER OF ITEMS: 0")
    text = text[: text.index("ITEMS SECTION")] + "ITEMS SECTION (INDEX, PROFIT, WEIGHT, ASSIGNED NODE NUMBER):\n"
    inst = parse_instance(text)
    assert inst.m == 0 and inst.profit.size == inst.weight.size == inst.city.size == 0


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: t.replace("1 10 2 2", "1 10 2 1"), "start city"),
        (lambda t: t.replace("2 5 1 3", "2 5 1 9"), "invalid city"),
        (lambda t: t.replace("2 5 1 3", "1 5 1 3"), "duplicate item"),
        (lambda t: t.replace("2 3 4\n", "2 3 4\n2 9 9\n"), "duplicate city"),
        (lambda t: t.replace("CAPACITY OF KNAPSACK: 5\n", ""), "missing required"),
        (lambda t: t.replace("DIMENSION: 3", "DIMENSION: three"), "expected a number"),
    ],
)
def test_parse_errors_carry_context(mangle, message):
    with pytest.raises(ParseError) as err:
        parse_instance(mangle(MINIMAL))
    assert message.split()[0] in str(err.value)


@pytest.mark.parametrize(
    "old, whole, fractional, lineno",
    [
        ("4 2 2 5", "4 2 2 5.0", "4 2 2 5.9", 20),  # the item's node
        ("4 2 2 5", "4.0 2 2 5", "4.5 2 2 5", 20),  # the item index
        ("NUMBER OF ITEMS: 4", "NUMBER OF ITEMS: 4.0", "NUMBER OF ITEMS: 4.7", 4),
    ],
)
def test_parse_rejects_fractional_whole_numbers(old, whole, fractional, lineno):
    text = (FIXTURES / "example5.ttp").read_text()
    assert parse_instance(text.replace(old, whole)).city.tolist() == [2, 3, 4, 5]
    with pytest.raises(ParseError, match="whole number") as err:
        parse_instance(text.replace(old, fractional))
    assert err.value.line == lineno


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("1 10 2 2", "1 nan 2 2"),
        lambda t: t.replace("CAPACITY OF KNAPSACK: 5", "CAPACITY OF KNAPSACK: inf"),
        lambda t: t.replace("2 5 1 3", "2 5 -inf 3"),
        lambda t: t.replace("3 0 4", "3 0 nan"),
        lambda t: t.replace("RENTING RATIO: 1", "RENTING RATIO: nan"),
    ],
)
def test_parse_rejects_non_finite_numbers(mangle):
    with pytest.raises(ParseError, match="finite"):
        parse_instance(mangle(MINIMAL))


def test_unknown_header_key_warns():
    with pytest.warns(UserWarning, match="SHINY"):
        parse_instance(MINIMAL.replace("PROBLEM NAME: mini", "PROBLEM NAME: mini\nSHINY KEY: yes"))


def test_distance_ceil_2d():
    inst = parse_instance(MINIMAL)
    assert inst.distance(1, 2) == 5  # 3-4-5 triangle
    assert inst.distance(1, 1) == 0
    assert inst.distance(2, 3) == 3


def test_distance_ceil_of_sqrt2():
    text = MINIMAL.replace("2 3 4", "2 1 1")
    inst = parse_instance(text)
    assert inst.distance(1, 2) == 2  # ceil(sqrt(2))


def test_distance_euc_2d_rounds_halves_up():
    # TSPLIB's nint(x) is (int)(x + 0.5): a length of 0.5 is 1 and 2.5 is 3,
    # not 0 and 2 as rounding half to even would give
    coords = np.array([[0.0, 0.0], [0.5, 0.0], [1.5, 2.0], [1.5, 5.5]])
    inst = Instance("euc", 4, 0, coords, [], [], [], 10, 0.1, 1, 1, EdgeWeightType.EUC_2D)
    pairs = [(1, 2), (1, 3), (2, 3), (3, 4)]
    expect = [1.0, 3.0, 2.0, 4.0]  # lengths 0.5, 2.5, sqrt(5), 3.5
    assert [inst.distance(i, j) for i, j in pairs] == expect
    assert [ref_distance(inst, i, j) for i, j in pairs] == expect
    i, j = (np.array(ids) - 1 for ids in zip(*pairs))
    assert _distances(inst, i, j).tolist() == expect


def test_distance_out_of_range():
    inst = parse_instance(MINIMAL)
    with pytest.raises(IndexError):
        inst.distance(0, 1)
    with pytest.raises(IndexError):
        inst.distance(1, 4)


@given(st.integers(0, 2**32 - 1))
def test_distance_symmetry(seed):
    rng = random.Random(seed)
    inst = make_random_instance(rng, rng.randint(2, 10), 0)
    i = rng.randint(1, inst.n)
    j = rng.randint(1, inst.n)
    assert inst.distance(i, j) == inst.distance(j, i)
    assert inst.distance(i, i) == 0


@pytest.mark.parametrize("kind", POINT_SETS)
def test_distance_equals_the_numpy_scalar_formula(kind):
    # the reference reads the coordinates as given, an int64 array included,
    # as numpy scalars; the instance reads its float copy as Python floats
    rng = random.Random(kind)
    for _ in range(3):
        coords, ewt = point_set(rng, kind)
        inst = points_instance(coords, ewt)
        given = types.SimpleNamespace(n=inst.n, coords=coords, edge_weight_type=ewt)
        pairs = [(i, j) for i in range(1, inst.n + 1) for j in range(1, inst.n + 1)]
        got = [inst.distance(i, j) for i, j in pairs]
        assert got == [loop_distance(given, i, j) for i, j in pairs]
        assert got == [loop_distance(inst, i, j) for i, j in pairs]
        assert {type(d) for d in got} == {float}


def test_explicit_distance_is_the_matrix_entry(example5):
    pairs = [(i, j) for i in range(1, 6) for j in range(1, 6)]
    got = [example5.distance(i, j) for i, j in pairs]
    assert got == [loop_distance(example5, i, j) for i, j in pairs]
    assert {type(d) for d in got} == {float}


def test_instance_arrays_are_read_only_copies():
    coords = np.array([[0, 0], [3, 4], [0, 4]])
    profit, weight, city = np.array([10.0, 5.0]), np.array([2.0, 1.0]), np.array([2, 3])
    inst = Instance("ro", 3, 2, coords, profit, weight, city, 5, 0.1, 1, 1)
    assert inst.coords.dtype == float
    for a in (inst.coords, inst.profit, inst.weight, inst.city):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7
    coords[1] = (6, 8)  # the caller's array is not the instance's
    profit[0] = 1.0
    assert inst.distance(1, 2) == 5.0 and inst.profit[0] == 10.0
    matrix = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    explicit = Instance("ro", 3, 0, None, [], [], [], 5, 0.1, 1, 1, EdgeWeightType.EXPLICIT, matrix)
    assert explicit.explicit_dist.dtype == float
    with pytest.raises(ValueError, match="read-only"):
        explicit.explicit_dist[0, 1] = -5.0
    matrix[0, 1] = -5  # a write to the caller's matrix leaves the distances symmetric
    assert explicit.distance(1, 2) == explicit.distance(2, 1) == 1.0


@pytest.mark.parametrize("kind", POINT_SETS)
def test_replaced_instance_reads_its_own_coordinates(kind):
    rng = random.Random(kind)
    inst = points_instance(*point_set(rng, kind))
    moved, _ = point_set(rng, kind)
    renamed, relocated = dataclasses.replace(inst, name="renamed"), dataclasses.replace(inst, coords=moved)
    assert np.array_equal(relocated.coords, moved)
    for new in (renamed, relocated):
        assert [new._x, new._y] == new.coords.T.tolist()
        assert not new.coords.flags.writeable
        pairs = [(i, j) for i in range(1, new.n + 1) for j in range(1, new.n + 1)]
        assert [new.distance(i, j) for i, j in pairs] == [loop_distance(new, i, j) for i, j in pairs]


def test_total_item_weight(example5):
    assert example5.total_item_weight == sum(example5.weight.tolist())
    assert example5.total_item_weight == 18


def test_invariant_rejections():
    with pytest.raises(ValueError):
        Instance("bad", 1, 0, np.zeros((1, 2)), [], [], [], 10, 0.1, 1, 1)
    with pytest.raises(ValueError):
        Instance("bad", 2, 0, np.zeros((2, 2)), [], [], [], -1, 0.1, 1, 1)
    with pytest.raises(ValueError):
        Instance("bad", 2, 0, np.zeros((2, 2)), [], [], [], 10, 1, 0.1, 1)
    with pytest.raises(ValueError, match="item 2 must have positive profit and weight"):
        Instance("bad", 2, 2, np.zeros((2, 2)), [5, -5], [1, 1], [2, 2], 10, 0.1, 1, 1)
    with pytest.raises(ValueError, match="item 2 homed at invalid city 3"):
        Instance("bad", 2, 2, np.zeros((2, 2)), [5, 5], [1, 1], [2, 3], 10, 0.1, 1, 1)
    with pytest.raises(ValueError, match="item count mismatch"):
        Instance("bad", 2, 2, np.zeros((2, 2)), [5, 5], [1], [2, 2], 10, 0.1, 1, 1)
    # a fractional home is not truncated, and a NaN home is not a city
    with pytest.raises(ValueError, match="item 1 homed at invalid city 2.7"):
        Instance("bad", 3, 1, np.zeros((3, 2)), [1.0], [1.0], [2.7], 10, 0.1, 1, 1)
    # the bad home is reported exactly, not rounded to 6 digits
    with pytest.raises(ValueError, match=r"item 1 homed at invalid city 1234567\.0$"):
        Instance("bad", 3, 1, np.zeros((3, 2)), [1.0], [1.0], [1234567], 10, 0.1, 1, 1)
    with pytest.raises(ValueError, match="finite"):
        Instance("bad", 3, 1, np.zeros((3, 2)), [1.0], [1.0], [math.nan], 10, 0.1, 1, 1)
    # a negative leg would break the annealing loop's bound on a flip
    d = np.array([[0.0, 5.0, -1.0], [5.0, 0.0, 4.0], [-1.0, 4.0, 0.0]])
    with pytest.raises(ValueError, match="explicit distances must be nonnegative"):
        Instance("neg", 3, 1, None, [10.0], [1.0], [2], 5.0, 0.1, 1.0, 1.0, EdgeWeightType.EXPLICIT, d)
    # distances are exactly symmetric, so a reversed tour segment keeps its
    # legs: an entry one ulp off its mirror, or 1 off at 200 000, is refused
    for near, off in ((5.0, np.nextafter(5.0, 6.0)), (200_000.0, 200_001.0)):
        d = np.array([[0.0, near, 4.0], [off, 0.0, 4.0], [4.0, 4.0, 0.0]])
        with pytest.raises(ValueError, match="explicit distance matrix must be symmetric"):
            Instance("asym", 3, 1, None, [10.0], [1.0], [2], 5.0, 0.1, 1.0, 1.0, EdgeWeightType.EXPLICIT, d)


def test_coordinates_have_one_row_per_city():
    # also for EXPLICIT, whose candidate lists would otherwise triangulate
    # one point and fall back to k-nearest lists unseen
    d = np.array([[0.0, 5.0, 4.0], [5.0, 0.0, 4.0], [4.0, 4.0, 0.0]])
    with pytest.raises(ValueError, match="n x 2"):
        Instance("short", 3, 1, np.zeros((1, 2)), [10.0], [1.0], [2], 5.0, 0.1, 1.0, 1.0,
                 EdgeWeightType.EXPLICIT, d)
    with pytest.raises(ValueError, match="n x 2"):
        Instance("short", 3, 1, np.zeros((3, 3)), [10.0], [1.0], [2], 5.0, 0.1, 1.0, 1.0)


def test_explicit_matrix_must_be_finite():
    bad = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        Instance("bad", 2, 0, None, [], [], [], 10, 0.1, 1, 1, EdgeWeightType.EXPLICIT, bad)


def test_item_arrays_follow_items(example5):
    # row j - 1 holds item j of the fixture's ITEMS SECTION
    assert example5.profit.tolist() == [101, 8, 8, 2] and example5.profit.dtype == float
    assert example5.weight.tolist() == [10, 2, 4, 2] and example5.weight.dtype == float
    assert example5.city.tolist() == [2, 3, 4, 5] and example5.city.dtype == np.intp
    assert example5.city_items == ((), (0,), (1,), (2,), (3,))


def test_city_items_list_each_citys_items_in_item_order():
    rng = random.Random(5)
    for _ in range(30):
        inst = make_random_instance(rng, rng.randint(2, 12), rng.randint(0, 40))
        homes = inst.city.tolist()
        assert inst.city_items == tuple(tuple(j for j, c in enumerate(homes) if c == city)
                                        for city in range(1, inst.n + 1))


def test_instances_compare_by_identity():
    text = (FIXTURES / "example5.ttp").read_text()
    a, b = parse_instance(text), parse_instance(text)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_parse_rejects_negative_distances():
    text = (FIXTURES / "example5.ttp").read_text()
    text = text.replace("0 1 6 7 1\n1 0", "0 -1 6 7 1\n-1 0")
    with pytest.raises(ParseError, match="nonnegative"):
        parse_instance(text)


@pytest.mark.parametrize("old, new", [
    ("1 0 5 8 6", "1.0000000000000002 0 5 8 6"),  # one ulp above its mirror
    ("0 1 6 7 1\n1 0 5 8 6", "0 200000 6 7 1\n200001 0 5 8 6"),
])
def test_parse_rejects_asymmetric_distances(old, new):
    text = (FIXTURES / "example5.ttp").read_text()
    assert old in text
    with pytest.raises(ParseError, match="symmetric"):
        parse_instance(text.replace(old, new))


def test_explicit_matrix_must_be_symmetric():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        Instance("bad", 2, 0, None, [], [], [], 10, 0.1, 1, 1,
                 EdgeWeightType.EXPLICIT, bad)
