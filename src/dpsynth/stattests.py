"""Classical two-sample tests with explicit feasibility semantics.

Synthetic data produced under strong privacy can be degenerate (one group
empty, all values identical, sparse contingency cells). Rather than raising,
every test reports ``feasible=False`` with a machine-readable reason so the
experiment harness can count and classify failed repetitions. p-values
always use the asymptotic approximations (normal, t, chi-squared); there is
no silent switching to exact small-sample variants.

Every test computes on a 2 x k table of each group's counts at strictly
increasing ``support`` values: the (group, tested variable) marginal of a
synthetic table, or the records of an original counted at their distinct
values by :func:`dpsynth.data.build_table`. :data:`TESTS` holds the tests by
name, each called as ``(support, counts, levels)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .special import normal_cdf, regularized_incomplete_beta, regularized_upper_gamma

__all__ = [
    "FailureReason",
    "TestOutcome",
    "mann_whitney_u_counts",
    "u_statistic",
    "t_test_counts",
    "chi_squared",
    "two_sample_chi_squared_counts",
    "median_test_counts",
    "TESTS",
]


class FailureReason(str, Enum):
    NONE = "none"
    SINGLE_CLASS = "single-class"
    CONSTANT_VALUES = "constant-values"
    LOW_EXPECTED_FREQUENCY = "low-expected-frequency"
    DEGENERATE_MEDIAN = "degenerate-median"


@dataclass(frozen=True)
class TestOutcome:
    __test__ = False  # not a pytest class, despite the name

    statistic: float
    p_value: float | None
    feasible: bool
    failure_reason: FailureReason = FailureReason.NONE

    def __post_init__(self):
        if self.feasible != (self.failure_reason is FailureReason.NONE):
            raise ValueError("feasible must hold exactly when failure_reason is none")
        if self.feasible:
            if self.p_value is None or not 0.0 <= self.p_value <= 1.0:
                raise ValueError("feasible outcomes need a p-value in [0, 1]")
        elif self.p_value is not None:
            raise ValueError("infeasible outcomes must not carry a p-value")

    def to_dict(self) -> dict:
        return {
            "statistic": None if np.isnan(self.statistic) else float(self.statistic),
            "p_value": self.p_value,
            "feasible": self.feasible,
            "failure_reason": self.failure_reason.value,
        }


def _infeasible(reason: FailureReason) -> TestOutcome:
    return TestOutcome(float("nan"), None, False, reason)


def _u_and_tie_sum(counts: np.ndarray) -> tuple[float, float]:
    """U for group 0 of a 2 x k count table, and the tie sum of the pooled sample.

    Column j holds the records at the j-th smallest distinct value, so its
    records share the midrank (cumulative count before j) + (t_j + 1)/2,
    where t_j is the column total, and the tie sum is the sum of t_j^3 - t_j.
    U comes from the rank identity U = R1 - n1(n1+1)/2; every rank is a
    multiple of 0.5 and every tie term an integer, so both stay exact.
    """
    t = counts.sum(axis=0)
    midranks = (np.cumsum(t) - t) + (t + 1) / 2.0
    n1 = int(counts[0].sum())
    u = float(counts[0] @ midranks) - n1 * (n1 + 1) / 2.0
    ties = t[t > 0].astype(float)
    return u, float(np.sum(ties**3 - ties))


def u_statistic(counts) -> float:
    """U for group 0 of a 2 x k count table: cross-group pairs it wins, ties counted half."""
    counts = np.asarray(counts, dtype=np.int64)
    if not counts.sum(axis=1).all():
        raise ValueError("both groups must be non-empty")
    return _u_and_tie_sum(counts)[0]


def mann_whitney_u_counts(support, counts) -> TestOutcome:
    """Two-sided Mann-Whitney U test on a 2 x k table of counts at ``support``.

    Row g counts group g's records at each value of ``support``, which must
    be strictly increasing. z uses the normal approximation with the
    tie-corrected variance and a 0.5 continuity correction toward the null
    mean.
    """
    _, counts = _count_table(support, counts)
    n1, n2 = (int(c) for c in counts.sum(axis=1))
    if n1 == 0 or n2 == 0:
        return _infeasible(FailureReason.SINGLE_CLASS)
    u, tie_sum = _u_and_tie_sum(counts)
    n = n1 + n2
    tie_term = tie_sum / (n * (n - 1))
    sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie_term)
    if sigma2 <= 0:
        return _infeasible(FailureReason.CONSTANT_VALUES)
    shift = u - n1 * n2 / 2.0
    cc = 0.5 if shift > 0 else (-0.5 if shift < 0 else 0.0)
    z = (shift - cc) / np.sqrt(sigma2)
    p = min(1.0, 2.0 * normal_cdf(-abs(z)))
    return TestOutcome(u, p, True)


def _count_table(support, counts) -> tuple[np.ndarray, np.ndarray]:
    """``support`` as floats and ``counts`` as a checked 2 x k integer table over it."""
    support = np.asarray(support, dtype=float)
    table = np.asarray(counts, dtype=np.int64)
    if support.ndim != 1 or table.shape != (2, support.size):
        raise ValueError(f"counts must have shape (2, {support.size}) to match the support")
    if np.any(np.diff(support) <= 0):
        raise ValueError("support values must be strictly increasing")
    if np.any(table < 0):
        raise ValueError("counts must be non-negative")
    return support, table


def t_test_counts(support, counts) -> TestOutcome:
    """Two-sided pooled-variance two-sample t-test, df = n1 + n2 - 2, on a 2 x k table.

    The moments are taken over each group's values rebuilt in ascending order;
    weighted moments would move the p-values in their last digits.
    """
    support, counts = _count_table(support, counts)
    x, y = np.repeat(support, counts[0]), np.repeat(support, counts[1])
    n1, n2 = x.size, y.size
    if n1 < 2 or n2 < 2:
        return _infeasible(FailureReason.SINGLE_CLASS)
    df = n1 + n2 - 2
    ss = float(((x - x.mean()) ** 2).sum() + ((y - y.mean()) ** 2).sum())
    pooled_var = ss / df
    if pooled_var <= 0:
        return _infeasible(FailureReason.CONSTANT_VALUES)
    t = (float(x.mean()) - float(y.mean())) / np.sqrt(pooled_var * (1.0 / n1 + 1.0 / n2))
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return TestOutcome(float(t), min(1.0, p), True)


def _chi2_outcome(obs: np.ndarray, min_expected: float) -> TestOutcome:
    """Chi-squared outcome of a float table with no empty line; Yates applies to 2 x 2."""
    expected = obs.sum(axis=1, keepdims=True) * obs.sum(axis=0, keepdims=True) / obs.sum()
    if np.any(expected < min_expected):
        return _infeasible(FailureReason.LOW_EXPECTED_FREQUENCY)
    cc = 0.5 if obs.shape == (2, 2) else 0.0
    stat = float((np.maximum(np.abs(obs - expected) - cc, 0.0) ** 2 / expected).sum())
    df = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    p = regularized_upper_gamma(df / 2.0, stat / 2.0)
    return TestOutcome(stat, min(1.0, p), True)


def chi_squared(table) -> TestOutcome:
    """Chi-squared independence test on a contingency table.

    Yates continuity correction applies to 2x2 tables. Any
    expected cell frequency below 5 makes the outcome infeasible, matching
    the failure accounting used for sparse synthetic data.
    """
    obs = np.asarray(table, dtype=float)
    if obs.ndim != 2:
        raise ValueError("table must be 2-dimensional")
    if np.any(obs < 0) or not np.all(np.isfinite(obs)):
        raise ValueError("table entries must be non-negative and finite")
    if obs.shape[0] < 2 or obs.shape[1] < 2:
        return _infeasible(FailureReason.SINGLE_CLASS)
    if np.any(obs.sum(axis=1) == 0) or np.any(obs.sum(axis=0) == 0):
        return _infeasible(FailureReason.SINGLE_CLASS)
    return _chi2_outcome(obs, 5.0)


def two_sample_chi_squared_counts(support, counts, levels) -> TestOutcome:
    """Chi-squared test of group against value on a 2 x k table regrouped into columns.

    With ``levels`` the test's table has one column per level, counting the
    values equal to it; with ``levels=None``, one column per pooled quartile
    interval (edges from ``np.quantile`` of the pooled values). An empty
    group makes the outcome single-class.
    """
    support, counts = _count_table(support, counts)
    sizes = counts.sum(axis=1, keepdims=True)
    if not sizes.all():
        return chi_squared(sizes)
    if levels is None:
        edges = np.quantile(np.repeat(support, counts.sum(axis=0)), [0.25, 0.5, 0.75])
        cells = np.searchsorted(edges, support, side="right")
        table = [np.bincount(cells, weights=row, minlength=4) for row in counts]
    else:
        table = [[row[support == level].sum() for level in levels] for row in counts]
    return chi_squared(np.array(table))


def median_test_counts(support, counts) -> TestOutcome:
    """Test for equal medians on a 2 x k table: counts above vs at-or-below the
    grand median per group, evaluated as a chi-squared statistic.

    The grand median is the mean of the pooled order statistics (N-1)//2 and
    N//2, as ``np.median`` takes it. No minimum expected frequency is
    enforced; a sparse table fails as a degenerate median when a line is empty.
    """
    support, counts = _count_table(support, counts)
    sizes = counts.sum(axis=1)
    if not sizes.all():
        return _infeasible(FailureReason.SINGLE_CLASS)
    cumulative = np.cumsum(counts.sum(axis=0))
    n = int(cumulative[-1])
    lo, hi = np.searchsorted(cumulative, [(n - 1) // 2, n // 2], side="right")
    median = (support[lo] + support[hi]) / 2.0
    above = counts[:, support > median].sum(axis=1)
    table = np.stack((above, sizes - above), axis=1).astype(float)
    if np.any(table.sum(axis=0) == 0):
        return _infeasible(FailureReason.DEGENERATE_MEDIAN)
    return _chi2_outcome(table, 0.0)


# The two-sample tests by name, each called as (support, counts, levels);
# only chi2 reads ``levels``. The lambdas look each test up by name when
# called, so a function rebound on this module (a wrapper, a patch) is the
# one that runs.
TESTS = {
    "mw_u": lambda support, counts, levels: mann_whitney_u_counts(support, counts),
    "t": lambda support, counts, levels: t_test_counts(support, counts),
    "chi2": lambda support, counts, levels: two_sample_chi_squared_counts(support, counts, levels),
    "median": lambda support, counts, levels: median_test_counts(support, counts),
}
