"""Parsing and validation of TTP benchmark instances.

File format is the usual line-oriented ``KEY: VALUE`` header followed by a
NODE_COORD_SECTION and an ITEMS SECTION.  An EDGE_WEIGHT_SECTION (row-major
full matrix) is accepted when EDGE_WEIGHT_TYPE is EXPLICIT, for fixtures that
are defined by travel distances rather than coordinates.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterable, Optional

import numpy as np


class ParseError(ValueError):
    """Malformed instance file; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EdgeWeightType(str, Enum):
    CEIL_2D = "CEIL_2D"
    EUC_2D = "EUC_2D"
    EXPLICIT = "EXPLICIT"


# ``Instance.distance`` compares against these on every call; a member read
# through its class costs over ten times a module-level name
_EXPLICIT, _CEIL_2D = EdgeWeightType.EXPLICIT, EdgeWeightType.CEIL_2D
_hypot, _ceil, _floor = math.hypot, math.ceil, math.floor


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem data.  City and item ids are 1-based.

    ``profit``, ``weight`` and ``city`` hold the item data, row ``j - 1`` for
    item ``j``, whose home city lies in 2..n.  ``city_items[c - 1]`` lists the
    rows of the items homed at city ``c``, in item order.  Distances are
    nonnegative and exactly symmetric: an EXPLICIT matrix equals its
    transpose bit for bit.  Two instances are equal only if they are the
    same object.  ``coords``, ``explicit_dist`` and the item columns are
    float copies of the arrays given, and read-only.

    ``weight_velocity_slope`` is the velocity lost per unit of carried
    weight, (v_max - v_min) / capacity.  ``exact_loads`` says that every
    weight is an integer and their total is below 2**53: then every sum of
    weights, in any order, is that exact integer, so a load shifted by one
    weight equals the same load summed afresh bit for bit.
    """

    name: str
    n: int
    m: int
    coords: Optional[np.ndarray]  # shape (n, 2) or None for EXPLICIT
    profit: np.ndarray
    weight: np.ndarray
    city: np.ndarray
    capacity: float
    v_min: float
    v_max: float
    renting_ratio: float
    edge_weight_type: EdgeWeightType = EdgeWeightType.CEIL_2D
    explicit_dist: Optional[np.ndarray] = None
    city_items: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    weight_velocity_slope: float = field(init=False, repr=False)
    exact_loads: bool = field(init=False, repr=False)
    # the coordinates again as Python floats, which ``distance`` reads
    # faster than numpy scalars; the same doubles, so the same distances
    _x: list[float] = field(init=False, repr=False)
    _y: list[float] = field(init=False, repr=False)

    def __post_init__(self):
        # a name given as a string becomes its member; an unknown one raises ValueError
        object.__setattr__(self, "edge_weight_type", EdgeWeightType(self.edge_weight_type))
        for name in ("profit", "weight", "city"):
            column = np.array(getattr(self, name), dtype=float)
            if column.shape != (self.m,):
                raise ValueError("item count mismatch")
            object.__setattr__(self, name, column)
        for name in ("coords", "explicit_dist"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
        numbers = [self.profit, self.weight, self.city, [self.capacity, self.v_min, self.v_max, self.renting_ratio]]
        numbers += [np.ravel(a) for a in (self.coords, self.explicit_dist) if a is not None]
        if not np.isfinite(np.concatenate(numbers)).all():
            raise ValueError("instance numbers must be finite (no NaN or infinity)")
        if self.n < 2:
            raise ValueError("instance needs at least 2 cities")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if not (0 < self.v_min < self.v_max):
            raise ValueError("need 0 < v_min < v_max")
        if self.renting_ratio < 0:
            raise ValueError("renting ratio must be nonnegative")
        misplaced = np.flatnonzero((self.city < 2) | (self.city > self.n) | (self.city % 1 != 0))
        if misplaced.size:
            j = misplaced[0]
            raise ValueError(f"item {j + 1} homed at invalid city {float(self.city[j])!r}")
        object.__setattr__(self, "city", self.city.astype(np.intp))
        # the items of city c are rows[ends[c - 1]:ends[c]], in item order
        rows = np.argsort(self.city, kind="stable").tolist()
        ends = np.bincount(self.city, minlength=self.n + 1).cumsum().tolist()
        object.__setattr__(self, "city_items", tuple(tuple(rows[a:b]) for a, b in zip(ends, ends[1:])))
        empty = np.flatnonzero((self.profit <= 0) | (self.weight <= 0))
        if empty.size:
            raise ValueError(f"item {empty[0] + 1} must have positive profit and weight")
        object.__setattr__(self, "weight_velocity_slope", (self.v_max - self.v_min) / self.capacity)
        # of positive whole weights, the computed total is below 2**53 just
        # when the exact one is, as every partial sum below 2**53 is exact
        whole = bool((self.weight == np.floor(self.weight)).all())
        object.__setattr__(self, "exact_loads", whole and sequential_sum(self.weight) < 2.0**53)
        if self.edge_weight_type is EdgeWeightType.EXPLICIT:
            d = self.explicit_dist
            if d is None or d.shape != (self.n, self.n):
                raise ValueError("EXPLICIT instances need a full n x n distance matrix")
            if not np.array_equal(d, d.T):
                raise ValueError("explicit distance matrix must be symmetric")
            if not np.allclose(np.diag(d), 0.0):
                raise ValueError("explicit distance matrix must have zero diagonal")
            if (d < 0).any():
                raise ValueError("explicit distances must be nonnegative")
        elif self.coords is None:
            raise ValueError("coordinate instances need an n x 2 coordinate array")
        if self.coords is not None and self.coords.shape != (self.n, 2):
            raise ValueError("coordinates must be an n x 2 array")
        xy = ([], []) if self.coords is None else self.coords.T.tolist()
        object.__setattr__(self, "_x", xy[0])
        object.__setattr__(self, "_y", xy[1])
        for a in (self.coords, self.explicit_dist, self.profit, self.weight, self.city):
            if a is not None:
                a.setflags(write=False)

    def distance(self, i: int, j: int) -> float:
        """Distance between cities ``i`` and ``j`` (1-based ids)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"city id out of range: ({i}, {j})")
        ewt = self.edge_weight_type
        if ewt is _EXPLICIT:
            return self.explicit_dist.item(i - 1, j - 1)
        x, y = self._x, self._y
        d = _hypot(x[i - 1] - x[j - 1], y[i - 1] - y[j - 1])
        if ewt is _CEIL_2D:
            return float(_ceil(d))
        return float(_floor(d + 0.5))  # EUC_2D, TSPLIB's nint: halves round up

    @property
    def total_item_weight(self) -> float:
        return sequential_sum(self.weight)


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, the order of a plain Python loop.

    ``np.sum`` adds pairwise and ``math.fsum`` exactly; either can change the
    last bits of a sum, and with them a search decision taken on it.
    """
    return float(values.cumsum()[-1]) if len(values) else 0.0


def _distances(inst: Instance, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``Instance.distance`` between the 0-based cities ``i[k]`` and ``j[k]``.

    ``np.hypot`` and ``math.hypot`` may differ in the last bit, which moves a
    rounded distance by 1 when the exact length lies at an integer (CEIL_2D)
    or half an integer (EUC_2D); lengths within far more than that of such a
    point are taken from ``Instance.distance`` one by one.
    """
    if inst.edge_weight_type is EdgeWeightType.EXPLICIT:
        return inst.explicit_dist[i, j]
    h = np.hypot(*(inst.coords[i] - inst.coords[j]).T)
    if inst.edge_weight_type is EdgeWeightType.CEIL_2D:
        d, edge = np.ceil(h), np.rint(h)
    else:
        d, edge = np.rint(h), np.floor(h) + 0.5
    for k in np.flatnonzero(np.abs(h - edge) <= 1e-9 * (1.0 + h)):
        d[k] = inst.distance(int(i[k]) + 1, int(j[k]) + 1)
    return d


_HEADER_KEYS = {
    "PROBLEM NAME": "name",
    "NAME": "name",
    "DIMENSION": "n",
    "NUMBER OF ITEMS": "m",
    "CAPACITY OF KNAPSACK": "capacity",
    "MIN SPEED": "v_min",
    "MAX SPEED": "v_max",
    "RENTING RATIO": "renting_ratio",
    "EDGE_WEIGHT_TYPE": "edge_weight_type",
    "KNAPSACK DATA TYPE": None,  # informational
    "COMMENT": None,
    "TYPE": None,
}

_REQUIRED = ("n", "m", "capacity", "v_min", "v_max", "renting_ratio")


def _parse_number(text: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"expected a number, got {text!r}", lineno) from None


def _parse_int(text: str, lineno: int) -> int:
    value = _parse_number(text, lineno)
    if not value.is_integer():
        raise ParseError(f"expected a whole number, got {text!r}", lineno)
    return int(value)


def parse_instance(text: str | Iterable[str]) -> Instance:
    """Parse a TTP benchmark file into a validated :class:`Instance`.

    The file is cut at its section markers, and the bodies of each kind of
    section are converted with one ``float`` map and checked as arrays.  Only
    when a check fails are the bodies of that kind read again line by line,
    for the message and line number of the first bad line; of the bad lines
    of all kinds the earliest is reported.  The checks on the whole file
    follow.
    """
    if not isinstance(text, str):
        text = "\n".join(ln.rstrip("\n") for ln in text)
    lines = text.splitlines()  # no line holds a line break, so the sections split at whole lines
    header_end, spans = _split_sections(lines)
    header = _parse_header(lines[:header_end])

    n, m = header.get("n", 0), header.get("m", 0)
    coords = _table(lines, spans["coords"], 3)
    items = _table(lines, spans["items"], 4)
    matrix = _table(lines, spans["matrix"], None)
    well_formed = {
        "coords": coords is not None and _distinct_ids(coords[:, 0], n),
        "items": items is not None and _distinct_ids(items[:, 0], m) and _whole_in(items[:, 3], 2, n),
        "matrix": matrix is not None,
    }
    bad = [_first_bad_line(kind, lines, spans[kind], n, m) for kind, ok in well_formed.items() if not ok]
    if bad:
        raise min(bad, key=lambda exc: exc.line)

    for req in _REQUIRED:
        if req not in header:
            raise ParseError(f"missing required header field for {req!r}")

    n = header["n"]
    m = header["m"]
    try:
        ewt = EdgeWeightType(str(header["edge_weight_type"]))
    except ValueError:
        raise ParseError(f"unsupported edge weight type {header['edge_weight_type']!r}") from None

    if len(items) != m:
        raise ParseError(f"expected {m} items, found {len(items)}")
    items = items[items[:, 0].argsort()]

    explicit = None
    coord_arr = None
    if ewt is EdgeWeightType.EXPLICIT:
        if matrix.size != n * n:
            raise ParseError(f"expected {n * n} distance entries, found {matrix.size}")
        explicit = matrix.reshape(n, n)
    if ewt is not EdgeWeightType.EXPLICIT or len(coords):
        if len(coords) != n:
            raise ParseError(f"expected {n} coordinate lines, found {len(coords)}")
        coord_arr = coords[coords[:, 0].argsort(), 1:]

    try:
        return Instance(
            name=str(header["name"]),
            n=n,
            m=m,
            coords=coord_arr,
            profit=items[:, 1],
            weight=items[:, 2],
            city=items[:, 3],
            capacity=float(header["capacity"]),
            v_min=float(header["v_min"]),
            v_max=float(header["v_max"]),
            renting_ratio=float(header["renting_ratio"]),
            edge_weight_type=ewt,
            explicit_dist=explicit,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# in the upper-cased file after a newline: a line that opens a section
# (group 1, 2 or 3) or ends the file
_MARKER = re.compile(
    r"\n[^\S\n]*(?:(NODE_COORD_SECTION)|(ITEMS SECTION)|(EDGE_WEIGHT_SECTION)|EOF[^\S\n]*(?=\n|\Z))"
)
_KINDS = {1: "coords", 2: "items", 3: "matrix"}


def _split_sections(lines: list[str]) -> tuple[int, dict[str, list[tuple[int, int]]]]:
    """The number of header lines, and per kind of section the (first, end)
    line indices of each of its bodies, in file order.  A marker opens its
    section wherever it stands; nothing after an ``EOF`` line is read."""
    text = "\n" + "\n".join(lines).upper()  # a newline before every line
    marks = []  # (line index, kind; None for EOF or the end of the text)
    row = pos = 0
    for mark in _MARKER.finditer(text):
        row += text.count("\n", pos, mark.start())
        pos = mark.start()
        marks.append((row, _KINDS.get(mark.lastindex)))
        if mark.lastindex is None:
            break
    else:
        marks.append((len(lines), None))
    spans: dict[str, list[tuple[int, int]]] = {kind: [] for kind in _KINDS.values()}
    for (first, kind), (end, _) in zip(marks, marks[1:]):
        spans[kind].append((first + 1, end))
    return marks[0][0], spans


def _parse_header(lines: list[str]) -> dict[str, object]:
    """The ``KEY: VALUE`` lines before the first section, the first one being line 1."""
    header: dict[str, object] = {"name": "unnamed", "edge_weight_type": "CEIL_2D"}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"expected 'KEY: VALUE' header, got {line!r}", lineno)
        key, _, value = line.partition(":")
        key = key.strip().upper()
        value = value.strip()
        if key not in _HEADER_KEYS:
            warnings.warn(f"ignoring unknown header key {key!r} (line {lineno})")
            continue
        field_name = _HEADER_KEYS[key]
        if field_name is None:
            continue
        if field_name in ("name", "edge_weight_type"):
            header[field_name] = value
        elif field_name in ("n", "m"):
            header[field_name] = _parse_int(value, lineno)
        else:
            header[field_name] = _parse_number(value, lineno)
    return header


def _table(lines: list[str], spans: list[tuple[int, int]], width: Optional[int]) -> Optional[np.ndarray]:
    """The fields of the non-blank lines of the bodies ``spans`` as an array
    of ``width`` columns, or flat when ``width`` is None; None when a line
    has another number of fields or a field is not a number."""
    rows: list[list[str]] = []
    for first, end in spans:
        rows += map(str.split, lines[first:end])
    if width is not None and not set(map(len, rows)) <= {0, width}:
        return None
    fields = list(chain.from_iterable(rows))
    try:
        values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
    except ValueError:
        return None
    return values if width is None else values.reshape(-1, width)


def _whole_in(values: np.ndarray, low: int, high: int) -> bool:
    """Whether every value is a whole number in ``low..high``."""
    return bool(((values >= low) & (values <= high) & (np.floor(values) == values)).all())


def _distinct_ids(ids: np.ndarray, top: int) -> bool:
    """Whether ``ids`` are distinct whole numbers in ``1..top``."""
    ordered = np.sort(ids)  # not np.unique, whose first call imports numpy.ma
    return _whole_in(ids, 1, top) and bool((ordered[1:] > ordered[:-1]).all())


def _first_bad_line(kind: str, lines: list[str], spans: list[tuple[int, int]], n: int, m: int) -> ParseError:
    """The error of the first bad line of the ``kind`` bodies ``spans``,
    checked one line at a time; ``n`` and ``m`` are 0 when the header lacks them."""
    seen: set[int] = set()  # indices of the lines before, all good
    for first, end in spans:
        for lineno, raw in enumerate(lines[first:end], start=first + 1):
            line = raw.strip()
            parts = line.split()
            try:
                if kind == "matrix":
                    for p in parts:
                        _parse_number(p, lineno)
                elif kind == "coords" and parts:
                    if len(parts) != 3:
                        raise ParseError(f"expected 'index x y', got {line!r}", lineno)
                    idx = _parse_int(parts[0], lineno)
                    if not (1 <= idx <= n):
                        raise ParseError(f"city index {idx} out of range", lineno)
                    if idx in seen:
                        raise ParseError(f"duplicate city index {idx}", lineno)
                    _parse_number(parts[1], lineno), _parse_number(parts[2], lineno)
                    seen.add(idx)
                elif parts:  # an item
                    if len(parts) != 4:
                        raise ParseError(f"expected 'index profit weight city', got {line!r}", lineno)
                    idx = _parse_int(parts[0], lineno)
                    if not (1 <= idx <= m):
                        raise ParseError(f"item index {idx} out of range", lineno)
                    if idx in seen:
                        raise ParseError(f"duplicate item index {idx}", lineno)
                    city = _parse_int(parts[3], lineno)
                    if city == 1:
                        raise ParseError(f"item {idx} assigned to the start city", lineno)
                    if not (2 <= city <= n):
                        raise ParseError(f"item {idx} references invalid city {city}", lineno)
                    _parse_number(parts[1], lineno), _parse_number(parts[2], lineno)
                    seen.add(idx)
            except ParseError as exc:
                return exc
    raise AssertionError(f"the {kind} sections failed the bulk checks but no line is bad")


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh)
