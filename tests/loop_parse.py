"""The instance parser the library used before it parsed sections in bulk,
kept as the reference that the bulk parser must match: the same arrays bit
for bit, and the same ``ParseError`` message and line for a bad input.

``loop_parse_instance`` reads the file one line at a time: it tells the
section of each line by its first words, converts one field at a time and
raises at the first bad line.
"""

import warnings
from typing import Iterable

import numpy as np

from ttp.instance import _HEADER_KEYS, _REQUIRED, EdgeWeightType, Instance, ParseError


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


def loop_parse_instance(text: str | Iterable[str]) -> Instance:
    """``ttp.instance.parse_instance``, one line at a time."""
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in text]

    header: dict[str, object] = {"name": "unnamed", "edge_weight_type": "CEIL_2D"}
    coords: dict[int, tuple[float, float]] = {}
    items: dict[int, tuple[float, float, int]] = {}  # index -> (profit, weight, city)
    matrix_rows: list[list[float]] = []
    section = None  # None | "coords" | "items" | "matrix"

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith("NODE_COORD_SECTION"):
            section = "coords"
            continue
        if upper.startswith("ITEMS SECTION"):
            section = "items"
            continue
        if upper.startswith("EDGE_WEIGHT_SECTION"):
            section = "matrix"
            continue
        if upper == "EOF":
            break

        if section is None:
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
        elif section == "coords":
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"expected 'index x y', got {line!r}", lineno)
            idx = _parse_int(parts[0], lineno)
            n = header.get("n")
            if n is None or not (1 <= idx <= n):
                raise ParseError(f"city index {idx} out of range", lineno)
            if idx in coords:
                raise ParseError(f"duplicate city index {idx}", lineno)
            coords[idx] = (_parse_number(parts[1], lineno), _parse_number(parts[2], lineno))
        elif section == "items":
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(f"expected 'index profit weight city', got {line!r}", lineno)
            idx = _parse_int(parts[0], lineno)
            m = header.get("m")
            if m is None or not (1 <= idx <= m):
                raise ParseError(f"item index {idx} out of range", lineno)
            if idx in items:
                raise ParseError(f"duplicate item index {idx}", lineno)
            city = _parse_int(parts[3], lineno)
            n = header.get("n", 0)
            if city == 1:
                raise ParseError(f"item {idx} assigned to the start city", lineno)
            if not (2 <= city <= n):
                raise ParseError(f"item {idx} references invalid city {city}", lineno)
            items[idx] = (_parse_number(parts[1], lineno), _parse_number(parts[2], lineno), city)
        elif section == "matrix":
            matrix_rows.append([_parse_number(p, lineno) for p in line.split()])

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
    profit, weight, city = zip(*(items[j] for j in range(1, m + 1))) if m else ((), (), ())

    explicit = None
    coord_arr = None
    if ewt is EdgeWeightType.EXPLICIT:
        flat = [v for row in matrix_rows for v in row]
        if len(flat) != n * n:
            raise ParseError(f"expected {n * n} distance entries, found {len(flat)}")
        explicit = np.array(flat, dtype=float).reshape(n, n)
        if coords:
            if len(coords) != n:
                raise ParseError(f"expected {n} coordinate lines, found {len(coords)}")
            coord_arr = np.array([coords[i] for i in range(1, n + 1)], dtype=float)
    else:
        if len(coords) != n:
            raise ParseError(f"expected {n} coordinate lines, found {len(coords)}")
        coord_arr = np.array([coords[i] for i in range(1, n + 1)], dtype=float)

    try:
        return Instance(
            name=str(header["name"]),
            n=n,
            m=m,
            coords=coord_arr,
            profit=profit,
            weight=weight,
            city=city,
            capacity=float(header["capacity"]),
            v_min=float(header["v_min"]),
            v_max=float(header["v_max"]),
            renting_ratio=float(header["renting_ratio"]),
            edge_weight_type=ewt,
            explicit_dist=explicit,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
