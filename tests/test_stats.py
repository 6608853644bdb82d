import csv
import math
from importlib import resources

import numpy as np
import pytest

from ttp.stats import (
    CHI2_CRIT_05,
    ResultMatrix,
    _rank_rows,
    average_ranking,
    chi2_critical,
    friedman_statistic,
    rsd,
)


# --- rsd ---------------------------------------------------------------------

def test_rsd_hand_value():
    # std([2, 4], ddof=1) = sqrt(2), mean = 3
    assert rsd([2, 4]) == pytest.approx(math.sqrt(2) / 3 * 100)


def test_rsd_constant_is_zero():
    assert rsd([5.0, 5.0, 5.0, 5.0]) == 0.0


def test_rsd_single_value_is_zero():
    assert rsd([7.3]) == 0.0


def test_rsd_scale_invariant():
    vals = [3.0, 5.0, 9.0, 4.0]
    assert rsd([v * 17.0 for v in vals]) == pytest.approx(rsd(vals))


def test_rsd_of_negative_gains_is_positive():
    assert rsd([-2.0, -4.0]) == pytest.approx(rsd([2.0, 4.0]))
    assert rsd([-2.0, -4.0]) > 0


def test_rsd_errors():
    with pytest.raises(ValueError):
        rsd([])
    with pytest.raises(ValueError):
        rsd([-1.0, 1.0])


# --- ranking -----------------------------------------------------------------

def test_average_ranking_simple():
    means = [[10, 20, 30], [10, 20, 30]]
    assert average_ranking(means).tolist() == [3.0, 2.0, 1.0]


def test_average_ranking_midranks_on_ties():
    means = [[5, 5, 1]]
    assert average_ranking(means).tolist() == [1.5, 1.5, 3.0]


def test_average_ranking_mixed():
    means = [[1, 2], [2, 1]]
    assert average_ranking(means).tolist() == [1.5, 1.5]


def test_midranks_match_scipy_rankdata():
    from scipy.stats import rankdata

    rng = np.random.default_rng(3)
    for _ in range(200):
        n, k = rng.integers(1, 8), rng.integers(1, 9)
        # few distinct values, so most rows hold ties; also ties at 0 and -0
        means = rng.integers(-3, 4, size=(n, k)) * rng.choice([1.0, 0.5, 1e-300])
        expected = np.array([rankdata(-row) for row in means])
        assert (_rank_rows(means) == expected).all()
        assert (average_ranking(means) == expected.mean(axis=0)).all()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ranking_rejects_non_finite_means(bad):
    means = [[1.0, 2.0, 3.0], [2.0, bad, 1.0]]
    with pytest.raises(ValueError, match="finite"):
        average_ranking(means)
    with pytest.raises(ValueError, match="finite"):
        friedman_statistic(means)


# --- Friedman ----------------------------------------------------------------

def test_friedman_consistent_ordering():
    # 3 instances, 3 methods, identical ordering each time: F = 2n = 6
    means = [[3, 6, 9], [1, 2, 3], [10, 20, 30]]
    f, rank_sums, df = friedman_statistic(means)
    assert f == pytest.approx(6.0)
    assert rank_sums.tolist() == [9.0, 6.0, 3.0]
    assert df == 2


def test_friedman_identical_methods_gives_zero():
    means = [[4, 4, 4], [7, 7, 7]]
    f, rank_sums, _ = friedman_statistic(means)
    assert f == pytest.approx(0.0)
    assert rank_sums.tolist() == [4.0, 4.0, 4.0]


def test_friedman_column_permutation_symmetry():
    rng = np.random.default_rng(3)
    means = rng.uniform(0, 100, size=(6, 4))
    f1, _, _ = friedman_statistic(means)
    f2, _, _ = friedman_statistic(means[:, [2, 0, 3, 1]])
    assert f1 == pytest.approx(f2)


def test_friedman_rank_sum_identity():
    rng = np.random.default_rng(5)
    means = rng.uniform(0, 100, size=(7, 5))
    _, rank_sums, _ = friedman_statistic(means)
    n, k = means.shape
    assert rank_sums.sum() == pytest.approx(n * k * (k + 1) / 2)


def test_friedman_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        friedman_statistic([[1, 2]])
    with pytest.raises(ValueError):
        friedman_statistic([[1], [2]])


def test_chi2_critical_table():
    assert chi2_critical(3) == 7.815
    assert chi2_critical(2) == CHI2_CRIT_05[2]
    with pytest.raises(ValueError):
        chi2_critical(11)
    with pytest.raises(ValueError):
        chi2_critical(3, p=0.01)


# --- ResultMatrix ------------------------------------------------------------

def test_result_matrix_means_and_rsds():
    m = ResultMatrix(
        instances=["a", "b"],
        methods=["x", "y"],
        gains=[[[2, 4], [10]], [[6], [1, 1]]],
    )
    assert m.means().tolist() == [[3.0, 10.0], [6.0, 1.0]]
    r = m.rsds()
    assert r[0][0] == pytest.approx(rsd([2, 4]))
    assert r[0][1] == 0.0 and r[1][1] == 0.0


def test_result_matrix_rsd_of_a_zero_mean_cell_is_nan():
    m = ResultMatrix(instances=["a"], methods=["x", "y", "z"], gains=[[[0.0, 0.0], [0.0], [-1.0, -3.0]]])
    r = m.rsds()
    assert math.isnan(r[0][0]) and math.isnan(r[0][1])
    assert r[0][2] == pytest.approx(rsd([1.0, 3.0]))


def test_result_matrix_validation():
    with pytest.raises(ValueError):
        ResultMatrix(["a"], ["x"], [])
    with pytest.raises(ValueError):
        ResultMatrix(["a"], ["x", "y"], [[[1.0]]])
    with pytest.raises(ValueError):
        ResultMatrix(["a"], ["x"], [[[]]])


# --- published comparison tables ---------------------------------------------

def load_reference_means(name):
    text = resources.files("ttp.reference").joinpath(name).read_text()
    rows = list(csv.DictReader(text.splitlines()))
    methods = [c[:-5] for c in rows[0] if c.endswith("_mean")]
    means = [[float(r[f"{m}_mean"]) for m in methods] for r in rows]
    return methods, means


def test_bundled_benchmark_table_ranking():
    methods, means = load_reference_means("table1_category_a.csv")
    assert methods == ["MATLS", "S5", "CS2SA*", "RWS"]
    assert len(means) == 20
    ranks = average_ranking(means)
    assert ranks.tolist() == pytest.approx([2.75, 1.35, 3.05, 2.85], abs=0.1)


def test_bundled_tables_parse():
    for name in (
        "table1_category_a.csv",
        "table2_category_b.csv",
        "table3_category_c.csv",
    ):
        methods, means = load_reference_means(name)
        assert len(methods) == 4
        assert all(len(row) == 4 for row in means)
        f, _, df = friedman_statistic(means)
        assert df == 3
        assert f >= 0.0
