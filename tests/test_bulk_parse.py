"""The bulk instance parser against the line-by-line reference in
``loop_parse``: the same arrays bit for bit and the same warnings for a good
file, the same ``ParseError`` message and line for a bad one."""

import importlib.util
import random
import sys
import warnings
from pathlib import Path

import pytest

from ttp.instance import EdgeWeightType, ParseError, load_instance, parse_instance

from conftest import FIXTURES, float_instance, make_random_instance
from loop_parse import loop_parse_instance
from test_instance import MINIMAL


def _perfbench_corpus():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _perfbench_corpus()


def instance_text(inst) -> str:
    """``inst`` as instance text; every float is written by ``repr``, so it
    reads back exactly."""
    lines = [
        f"PROBLEM NAME: {inst.name}",
        f"DIMENSION: {inst.n}",
        f"NUMBER OF ITEMS: {inst.m}",
        f"CAPACITY OF KNAPSACK: {inst.capacity!r}",
        f"MIN SPEED: {inst.v_min!r}",
        f"MAX SPEED: {inst.v_max!r}",
        f"RENTING RATIO: {inst.renting_ratio!r}",
        f"EDGE_WEIGHT_TYPE: {inst.edge_weight_type.value}",
    ]
    if inst.edge_weight_type is EdgeWeightType.EXPLICIT:
        lines.append("EDGE_WEIGHT_SECTION")
        lines += [" ".join(map(repr, row)) for row in inst.explicit_dist.tolist()]
    else:
        lines.append("NODE_COORD_SECTION (INDEX, X, Y):")
        lines += [f"{i} {x!r} {y!r}" for i, (x, y) in enumerate(inst.coords.tolist(), start=1)]
    lines.append("ITEMS SECTION (INDEX, PROFIT, WEIGHT, ASSIGNED NODE NUMBER):")
    columns = zip(inst.profit.tolist(), inst.weight.tolist(), inst.city.tolist())
    lines += [f"{j} {p!r} {w!r} {c}" for j, (p, w, c) in enumerate(columns, start=1)]
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    """What ``parse`` makes of ``text``: the instance's fields, its arrays
    as (dtype, shape, bytes), or the error's type, message and line; and
    the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            inst = parse(text)
        except Exception as exc:
            result = (type(exc).__name__, str(exc), getattr(exc, "line", None))
        else:
            arrays = (inst.coords, inst.profit, inst.weight, inst.city, inst.explicit_dist)
            result = (inst.name, inst.n, inst.m, inst.capacity, inst.v_min, inst.v_max, inst.renting_ratio,
                      inst.edge_weight_type, inst.city_items,
                      *(None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays))
    return result, [str(w.message) for w in caught]


def assert_same(text):
    bulk = outcome(parse_instance, text)
    assert bulk == outcome(loop_parse_instance, text)
    return bulk[0]


def good_texts():
    texts = [MINIMAL] + [p.read_text() for p in sorted(FIXTURES.glob("*.ttp"))]
    rng = random.Random(7)
    texts += [instance_text(make_random_instance(rng, rng.randint(2, 30), rng.randint(0, 60))) for _ in range(10)]
    texts += [instance_text(float_instance(rng, rng.randint(2, 12), rng.randint(0, 30), explicit=e))
              for e in (False, True) for _ in range(5)]
    texts += [corpus.generate(cat, n, seed).text for cat, n in (("A", 20), ("B", 30), ("C", 12)) for seed in (1, 2)]
    return texts


GOOD = good_texts()


@pytest.mark.parametrize("k", range(len(GOOD)))
def test_bulk_parse_matches_the_line_parser(k):
    text = GOOD[k]
    result = assert_same(text)
    assert isinstance(result[0], str) and result[1] >= 2  # parsed, not an error
    assert outcome(parse_instance, text.splitlines(keepends=True)) == outcome(parse_instance, text)


def test_files_and_lists_of_lines_parse_as_their_text():
    for path in sorted(FIXTURES.glob("*.ttp")):
        assert outcome(load_instance, path) == outcome(parse_instance, path.read_text())
        with open(path) as fh:
            assert outcome(parse_instance, fh) == outcome(loop_parse_instance, path.read_text())
    # lines with or without their line ends, or several lines in one string
    k = MINIMAL.index("ITEMS SECTION")
    for lines in (MINIMAL.splitlines(), MINIMAL.splitlines(keepends=True), [MINIMAL], [MINIMAL[:k], MINIMAL[k:]]):
        assert outcome(parse_instance, lines) == outcome(parse_instance, MINIMAL)


EXAMPLE5 = (FIXTURES / "example5.ttp").read_text()


@pytest.mark.parametrize(
    "text, old, new",
    [
        (MINIMAL, "2 3 4\n", "2 3 four\n"),  # a bad token
        (MINIMAL, "2 5 1 3", "2 5 x 3"),
        (EXAMPLE5, "6 5 0 3 4", "6 5 0 3e 4"),
        (MINIMAL, "3 0 4\n", "2.5 0 4\n"),  # a fractional index
        (MINIMAL, "2 5 1 3", "1.5 5 1 3"),
        (MINIMAL, "2 5 1 3", "2 5 1 2.5"),  # a fractional home
        (MINIMAL, "3 0 4\n", "2 0 4\n"),  # a duplicate index
        (MINIMAL, "2 5 1 3", "1 5 1 3"),
        (MINIMAL, "3 0 4\n", "4 0 4\n"),  # an index out of range
        (MINIMAL, "2 5 1 3", "3 5 1 3"),
        (MINIMAL, "2 5 1 3", "0 5 1 3"),
        (MINIMAL, "3 0 4\n", "3 0\n"),  # a wrong field count
        (MINIMAL, "2 5 1 3", "2 5 1 3 1"),
        (MINIMAL, "2 5 1 3", "2 5 1 1"),  # an item at city 1
        (MINIMAL, "2 5 1 3", "2 5 1 4"),  # an item at a city out of range
        (MINIMAL, "DIMENSION: 3", "DIMENSION: 3.5"),  # a header line
    ],
)
def test_bulk_parse_reports_the_line_parsers_error(text, old, new):
    assert old in text
    result = assert_same(text.replace(old, new, 1))
    assert result[0] == "ParseError" and result[2] is not None


def test_the_earliest_bad_line_wins_across_sections():
    # items before coordinates, one bad line in each: the item line comes first
    head, coords = MINIMAL.split("NODE_COORD_SECTION (INDEX, X, Y):\n")
    coords, items = coords.split("ITEMS SECTION")
    text = head + "ITEMS SECTION" + items + "NODE_COORD_SECTION\n" + coords
    assert parse_instance(text).coords.tolist() == [[0, 0], [3, 4], [0, 4]]
    bad = text.replace("3 0 4", "3 0 x").replace("1 10 2 2", "1 10 2 1")
    assert assert_same(bad) == ("ParseError", "line 10: item 1 assigned to the start city", 10)
    assert assert_same(text.replace("3 0 4", "3 0 x"))[2] == 15


def test_sections_may_repeat_and_eof_ends_the_file():
    split = MINIMAL.replace("2 5 1 3\n", "ITEMS SECTION\n\n2 5 1 3\n")
    assert parse_instance(split).profit.tolist() == [10, 5]
    assert assert_same(split.replace("2 5 1 3", "1 5 1 3"))[1] == "line 17: duplicate item index 1"
    # markers in any case and indented; after EOF nothing is read
    lower = MINIMAL.replace("ITEMS SECTION", "  items section").replace("NODE_COORD_SECTION", "\tnode_coord_section")
    assert_same(lower + " eof \ngarbage\nITEMS SECTION\n9 9 9 9\n")
    assert_same(MINIMAL.replace("1 10 2 2", "EOF\n1 10 2 2"))


def test_explicit_instance_with_partial_coordinates():
    text = EXAMPLE5.replace("ITEMS SECTION", "NODE_COORD_SECTION\n1 0 0\nITEMS SECTION")
    assert assert_same(text) == ("ParseError", "expected 5 coordinate lines, found 1", None)
    with pytest.raises(ParseError, match="^expected 5 coordinate lines, found 1$"):
        parse_instance(text)


def _mutations(fields: list[str], rng: random.Random) -> list[str]:
    """One random change to the fields of a line."""
    at = rng.randrange(len(fields)) if fields else 0
    token = rng.choice(["x", "2.5", "1", "2", "0", "-1", "99999", "nan", "-inf", "1e0", "3.0", ":", "EOF"])
    change = rng.randrange(5)
    if change == 0:
        return fields[:at] + fields[at + 1:]
    if change == 1:
        return fields[:at] + [token] + fields[at:]
    if change == 2:
        return []
    return fields[:at] + [token] + fields[at + 1:]


@pytest.mark.parametrize("seed", range(8))
def test_bulk_parse_matches_the_line_parser_on_corrupted_lines(seed):
    rng = random.Random(seed)
    sources = [MINIMAL, EXAMPLE5, corpus.generate("A", 12, seed).text,
               instance_text(float_instance(rng, 6, 8, explicit=True))]
    for _ in range(60):
        lines = rng.choice(sources).splitlines()
        for _ in range(rng.choice([1, 1, 1, 2])):
            k = rng.randrange(len(lines))
            lines[k] = " ".join(_mutations(lines[k].split(), rng))
        ending = rng.choice(["\n", "\r\n"])
        assert_same(ending.join(lines) + ending)
