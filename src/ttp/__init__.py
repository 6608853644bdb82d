"""Travelling Thief Problem solver library.

Combines a TSP tour (nearest-neighbour construction plus 2-OPT over
Delaunay candidate edges) with a knapsack picking plan built by
weight-exponent scoring and reverse-order allocation, then improved by
bit-flip hill climbing or simulated annealing.
"""

from ttp.instance import EdgeWeightType, Instance, ParseError, load_instance, parse_instance
# ``evaluate`` the function is not bound here, so that ``ttp.evaluate`` stays the module
from ttp.evaluate import EvalResult, PrefixCache, Solution
from ttp.solver import RunRecord, SolverConfig, solve

__all__ = [
    "EdgeWeightType",
    "EvalResult",
    "Instance",
    "ParseError",
    "PrefixCache",
    "RunRecord",
    "Solution",
    "SolverConfig",
    "load_instance",
    "parse_instance",
    "solve",
]
