"""Spans around the program's public functions, recorded from outside it.

``Tracer`` wraps each named function at every module attribute that binds it
(``ttp.solver`` and ``ttp.packing`` import most of them by name), so calls
from any layer pass through the wrapper.  A span's self time is its length
minus the length of its child spans; counts are kept per (caller, callee).
``Instance.distance`` and ``velocity_at`` are left alone: they run millions
of times per solve and a wrapper would dominate what it measures.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs that are traced, each under the module's layer name
TRACED = (
    ("ttp.tour", "nearest_neighbor_tour"),
    ("ttp.tour", "delaunay_candidates"),
    ("ttp.tour", "two_opt_improve"),
    ("ttp.evaluate", "build_prefix_cache"),
    ("ttp.evaluate", "delta_flip"),
    ("ttp.evaluate", "evaluate"),
    ("ttp.scoring", "build_score_table"),
    ("ttp.packing", "initial_picking_plan"),
    ("ttp.packing", "simulated_annealing_kp"),
    ("ttp.solver", "solve"),
)

ROOT = "op"


class Tracer:
    """Accumulates self time, total time and call counts per span name.

    Use as a context manager: entering binds the wrappers, leaving restores
    every original binding.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.picked = 0  # items in the plans initial_picking_plan returned
        self.restarts = 0  # restarts in the records solve returned
        self._stack: list[list] = []  # [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def calls_of(self, name: str, caller: str | None = None) -> int:
        return sum(c for (p, n), c in self.calls.items()
                   if n == name and (caller is None or p == caller))

    def span(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ROOT
            self.calls[(parent, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if name == "packing.initial_picking_plan":
                self.picked += sum(result)
            elif name == "solver.solve":
                self.restarts += len(result.trace)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        wrappers = {}
        for module, fname in TRACED:
            fn = getattr(sys.modules[module], fname)
            wrappers[id(fn)] = self.span(f"{module.split('.')[1]}.{fname}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "ttp" and not modname.startswith("ttp."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False
