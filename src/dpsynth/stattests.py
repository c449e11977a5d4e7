"""Classical two-sample tests with explicit feasibility semantics.

Synthetic data produced under strong privacy can be degenerate (one group
empty, all values identical, sparse contingency cells). Rather than raising,
every test reports ``feasible=False`` with a machine-readable reason so the
experiment harness can count and classify failed repetitions. p-values always use the asymptotic approximations (normal, t,
chi-squared); there is no silent switching to exact small-sample variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .special import normal_cdf, regularized_incomplete_beta, regularized_upper_gamma

__all__ = [
    "FailureReason",
    "TestOutcome",
    "mann_whitney_u",
    "u_statistic",
    "t_test",
    "chi_squared",
    "two_sample_chi_squared",
    "median_test",
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


def _u_and_ties(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """U for group x and the tie-run sizes of the pooled sample.

    U comes from the rank identity U = R1 - n1(n1+1)/2 with 1-based
    midranks, so it stays exact (a multiple of 0.5) for large samples.
    """
    pooled = np.concatenate((x, y))
    order = np.argsort(pooled, kind="stable")
    n = pooled.size
    sorted_vals = pooled[order]
    run_starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_vals) != 0) + 1))
    run_ends = np.concatenate((run_starts[1:], [n]))
    avg = (run_starts + run_ends + 1) / 2.0
    ranks = np.empty(n)
    ranks[order] = np.repeat(avg, run_ends - run_starts)
    u = float(ranks[: x.size].sum()) - x.size * (x.size + 1) / 2.0
    return u, (run_ends - run_starts).astype(np.int64)


def u_statistic(x, y) -> float:
    """U for group x: cross-group pairs won by x, ties counted half."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("both groups must be non-empty")
    return _u_and_ties(x, y)[0]


def mann_whitney_u(x, y) -> TestOutcome:
    """Two-sided Mann-Whitney U test from the normal approximation.

    z uses the tie-corrected variance and a 0.5 continuity correction toward
    the null mean.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n2 = x.size, y.size
    if n1 == 0 or n2 == 0:
        return _infeasible(FailureReason.SINGLE_CLASS)
    u, tie_counts = _u_and_ties(x, y)
    n = n1 + n2
    tie_term = float(np.sum(tie_counts.astype(float) ** 3 - tie_counts)) / (n * (n - 1))
    sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie_term)
    if sigma2 <= 0:
        return _infeasible(FailureReason.CONSTANT_VALUES)
    mu = n1 * n2 / 2.0
    shift = u - mu
    cc = 0.5 if shift > 0 else (-0.5 if shift < 0 else 0.0)
    z = (shift - cc) / np.sqrt(sigma2)
    p = min(1.0, 2.0 * normal_cdf(-abs(z)))
    return TestOutcome(u, p, True)


def t_test(x, y) -> TestOutcome:
    """Two-sided pooled-variance two-sample t-test, df = n1 + n2 - 2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
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


def _chi2_from_table(obs: np.ndarray, yates: bool) -> tuple[float, int, np.ndarray]:
    row = obs.sum(axis=1, keepdims=True)
    col = obs.sum(axis=0, keepdims=True)
    expected = row * col / obs.sum()
    cc = 0.5 if (yates and obs.shape == (2, 2)) else 0.0
    dev = np.maximum(np.abs(obs - expected) - cc, 0.0)
    stat = float((dev**2 / expected).sum())
    df = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    return stat, df, expected


def chi_squared(table, yates: bool = True) -> TestOutcome:
    """Chi-squared independence test on a contingency table.

    Yates continuity correction applies to 2x2 tables unless disabled. Any
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
    stat, df, expected = _chi2_from_table(obs, yates)
    if np.any(expected < 5):
        return _infeasible(FailureReason.LOW_EXPECTED_FREQUENCY)
    p = regularized_upper_gamma(df / 2.0, stat / 2.0)
    return TestOutcome(stat, min(1.0, p), True)


def two_sample_chi_squared(x, y, levels=None) -> TestOutcome:
    """Chi-squared test of group against value on a 2 x k table.

    With ``levels`` the table has one column per level, counting the values
    equal to it; without, one column per pooled quartile interval. An empty
    group makes the outcome single-class.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        return chi_squared(np.array([[x.size], [y.size]]))
    if levels is None:
        edges = np.quantile(np.concatenate((x, y)), [0.25, 0.5, 0.75])
        table = [np.bincount(np.searchsorted(edges, v, side="right"), minlength=4) for v in (x, y)]
    else:
        table = [[(v == level).sum() for level in levels] for v in (x, y)]
    return chi_squared(np.array(table))


def median_test(x, y, yates: bool = True) -> TestOutcome:
    """Test for equal medians: 2x2 table of counts above vs at-or-below the
    grand median per group, evaluated as a chi-squared statistic.

    Ties with the grand median count as "at or below". No minimum expected
    frequency is enforced here; sparse-table degeneracy surfaces instead as
    a degenerate-median failure when a table line is empty.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        return _infeasible(FailureReason.SINGLE_CLASS)
    pooled = np.concatenate((x, y))
    median = float(np.median(pooled))
    table = np.array(
        [
            [float((x > median).sum()), float((x <= median).sum())],
            [float((y > median).sum()), float((y <= median).sum())],
        ]
    )
    if np.any(table.sum(axis=0) == 0) or np.any(table.sum(axis=1) == 0):
        return _infeasible(FailureReason.DEGENERATE_MEDIAN)
    stat, df, _ = _chi2_from_table(table, yates)
    p = regularized_upper_gamma(df / 2.0, stat / 2.0)
    return TestOutcome(stat, min(1.0, p), True)


# The two-sample tests by name, each called as test(x, y, levels). Only the
# chi-squared test builds a table over the levels; the others ignore them.
TESTS = {
    "mw_u": lambda x, y, levels=None: mann_whitney_u(x, y),
    "t": lambda x, y, levels=None: t_test(x, y),
    "chi2": two_sample_chi_squared,
    "median": lambda x, y, levels=None: median_test(x, y),
}
