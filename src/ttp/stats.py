"""Aggregation of multi-run, multi-method results: relative standard
deviation, average ranking, and the Friedman rank test statistic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Critical chi-square values at p = 0.05 for df = 1..10.
CHI2_CRIT_05 = {
    1: 3.841, 2: 5.991, 3: 7.815, 4: 9.488, 5: 11.070,
    6: 12.592, 7: 14.067, 8: 15.507, 9: 16.919, 10: 18.307,
}


@dataclass
class ResultMatrix:
    """Rows are instances, columns are methods, cells are per-run gains."""

    instances: list[str]
    methods: list[str]
    gains: list[list[list[float]]]  # gains[i][j] = runs of method j on instance i

    def __post_init__(self):
        if len(self.gains) != len(self.instances):
            raise ValueError("one row of gains per instance required")
        for row in self.gains:
            if len(row) != len(self.methods):
                raise ValueError("matrix must be rectangular")
            for cell in row:
                if not cell:
                    raise ValueError("every cell needs at least one run")

    def means(self) -> np.ndarray:
        return np.array([[float(np.mean(c)) for c in row] for row in self.gains])

    def rsds(self) -> np.ndarray:
        """``rsd`` per cell; nan where the mean gain is 0 and no relative
        spread exists (an instance with nothing worth picking at R = 0)."""
        means = self.means()
        return np.array([
            [rsd(c) if mean != 0.0 else float("nan") for c, mean in zip(row, row_means)]
            for row, row_means in zip(self.gains, means)
        ])


def rsd(values: list[float]) -> float:
    """Relative standard deviation in percent: sample std / |mean| * 100.

    Never negative, also for negative mean gains; 0 for a single value;
    raises ``ValueError`` for no values or a zero mean.
    """
    if not values:
        raise ValueError("rsd of an empty list is undefined")
    mean = float(np.mean(values))
    if mean == 0.0:
        raise ValueError("rsd is undefined for zero mean")
    if len(values) == 1:
        return 0.0
    return float(np.std(values, ddof=1)) / abs(mean) * 100.0


def _rank_rows(means: np.ndarray) -> np.ndarray:
    """Per-instance ranks, 1 = best (highest mean gain), ties get mid-ranks.

    On the negated means, a value with ``below`` values less than it and
    ``through`` values less than or equal to it shares places
    below + 1..through with its ties and gets their mean, a whole or half
    number, so exact.  Raises ``ValueError`` for a mean that is not finite:
    one NaN would turn the ranks of its whole row into NaN.
    """
    if not np.isfinite(means).all():
        raise ValueError("mean gains must be finite (no NaN or infinity)")
    ranks = np.empty_like(means)
    for rank, row in zip(ranks, -means):
        ordered = np.sort(row)
        below = np.searchsorted(ordered, row, "left")
        through = np.searchsorted(ordered, row, "right")
        rank[:] = (below + through + 1) / 2
    return ranks


def average_ranking(means: np.ndarray | list[list[float]]) -> np.ndarray:
    """Mean rank per method over all instances."""
    means = np.asarray(means, dtype=float)
    return _rank_rows(means).mean(axis=0)


def friedman_statistic(means: np.ndarray | list[list[float]]) -> tuple[float, np.ndarray, int]:
    """Friedman test statistic over a matrix of per-instance mean gains.

    Returns (F, rank sums per method, degrees of freedom k - 1), with
    F = 12 / (n k (k+1)) * sum(r_j^2) - 3 n (k+1).
    """
    means = np.asarray(means, dtype=float)
    if means.ndim != 2 or means.shape[0] < 2 or means.shape[1] < 2:
        raise ValueError("need at least 2 instances and 2 methods")
    n, k = means.shape
    rank_sums = _rank_rows(means).sum(axis=0)
    f = 12.0 / (n * k * (k + 1)) * float(np.sum(rank_sums**2)) - 3.0 * n * (k + 1)
    return f, rank_sums, k - 1


def chi2_critical(df: int, p: float = 0.05) -> float:
    """Critical chi-square value for the null-rejection comparison."""
    if p != 0.05 or df not in CHI2_CRIT_05:
        raise ValueError(f"no tabulated critical value for df={df}, p={p}")
    return CHI2_CRIT_05[df]
