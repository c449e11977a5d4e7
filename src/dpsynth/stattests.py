"""Classical two-sample tests with explicit feasibility semantics.

Synthetic data produced under strong privacy can be degenerate (one group
empty, all values identical, sparse contingency cells). Rather than raising,
every test reports ``feasible=False`` with a machine-readable reason so the
experiment harness can count and classify failed repetitions. p-values
always use the asymptotic approximations (normal, t, chi-squared); there is
no silent switching to exact small-sample variants.

Each test in :data:`TESTS` runs on records or on a 2 x k table of counts at
distinct values, the form in which the histogram synthesizers release data.
The Mann-Whitney U arithmetic works on counts, and its record form tabulates
first; the other tests rebuild the records from counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .special import normal_cdf, regularized_incomplete_beta, regularized_upper_gamma

__all__ = [
    "FailureReason",
    "TestOutcome",
    "mann_whitney_u",
    "mann_whitney_u_counts",
    "u_statistic",
    "t_test",
    "chi_squared",
    "two_sample_chi_squared",
    "median_test",
    "TwoSampleTest",
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


def _tabulate(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pooled values, ascending, and each group's 2 x k counts at them."""
    support, inverse = np.unique(np.concatenate((x, y)), return_inverse=True)
    k = support.size
    counts = np.stack((np.bincount(inverse[: x.size], minlength=k), np.bincount(inverse[x.size :], minlength=k)))
    return support, counts


def u_statistic(x, y) -> float:
    """U for group x: cross-group pairs won by x, ties counted half."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("both groups must be non-empty")
    return _u_and_tie_sum(_tabulate(x, y)[1])[0]


def mann_whitney_u(x, y) -> TestOutcome:
    """Two-sided Mann-Whitney U test on two samples; see :func:`mann_whitney_u_counts`."""
    return mann_whitney_u_counts(*_tabulate(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))


def mann_whitney_u_counts(support, counts) -> TestOutcome:
    """Two-sided Mann-Whitney U test on a 2 x k table of counts at ``support``.

    Row g counts group g's records at each value of ``support``, which must
    be strictly increasing. z uses the normal approximation with the
    tie-corrected variance and a 0.5 continuity correction toward the null
    mean.
    """
    counts = _count_table(support, counts)
    n1, n2 = (int(c) for c in counts.sum(axis=1))
    if n1 == 0 or n2 == 0:
        return _infeasible(FailureReason.SINGLE_CLASS)
    u, tie_sum = _u_and_tie_sum(counts)
    n = n1 + n2
    tie_term = tie_sum / (n * (n - 1))
    sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie_term)
    if sigma2 <= 0:
        return _infeasible(FailureReason.CONSTANT_VALUES)
    mu = n1 * n2 / 2.0
    shift = u - mu
    cc = 0.5 if shift > 0 else (-0.5 if shift < 0 else 0.0)
    z = (shift - cc) / np.sqrt(sigma2)
    p = min(1.0, 2.0 * normal_cdf(-abs(z)))
    return TestOutcome(u, p, True)


def _count_table(support, counts) -> np.ndarray:
    """``counts`` as a checked 2 x k integer table over strictly increasing ``support``."""
    support = np.asarray(support, dtype=float)
    table = np.asarray(counts, dtype=np.int64)
    if support.ndim != 1 or table.shape != (2, support.size):
        raise ValueError(f"counts must have shape (2, {support.size}) to match the support")
    if np.any(np.diff(support) <= 0):
        raise ValueError("support values must be strictly increasing")
    if np.any(table < 0):
        raise ValueError("counts must be non-negative")
    return table


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


def _chi2_from_table(obs: np.ndarray) -> tuple[float, int, np.ndarray]:
    row = obs.sum(axis=1, keepdims=True)
    col = obs.sum(axis=0, keepdims=True)
    expected = row * col / obs.sum()
    cc = 0.5 if obs.shape == (2, 2) else 0.0
    dev = np.maximum(np.abs(obs - expected) - cc, 0.0)
    stat = float((dev**2 / expected).sum())
    df = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    return stat, df, expected


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
    stat, df, expected = _chi2_from_table(obs)
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


def median_test(x, y) -> TestOutcome:
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
    stat, df, _ = _chi2_from_table(table)
    p = regularized_upper_gamma(df / 2.0, stat / 2.0)
    return TestOutcome(stat, min(1.0, p), True)


class TwoSampleTest(NamedTuple):
    """One test in its two forms, which give the same outcome on the same records.

    ``records(x, y, levels)`` takes the two groups' values; ``counts(support,
    counts, levels)`` takes a 2 x k table of each group's counts at strictly
    increasing ``support`` values. Only the chi-squared test reads ``levels``.
    """

    records: Callable[..., TestOutcome]
    counts: Callable[..., TestOutcome]


def _from_records(records: Callable[..., TestOutcome]) -> TwoSampleTest:
    """A test whose counts form rebuilds each group's values and runs ``records``.

    Group g becomes ``np.repeat(support, counts[g])``, the values that
    :func:`dpsynth.data.samples_from_counts` gives at bin midpoints.
    """

    def counts_form(support, counts, levels=None) -> TestOutcome:
        support = np.asarray(support, dtype=float)
        table = _count_table(support, counts)
        return records(np.repeat(support, table[0]), np.repeat(support, table[1]), levels)

    return TwoSampleTest(records, counts_form)


# The two-sample tests by name. The lambdas look each test up by name when
# called, so a function rebound on this module (a wrapper, a patch) is the
# one that runs.
TESTS = {
    "mw_u": TwoSampleTest(
        lambda x, y, levels=None: mann_whitney_u(x, y),
        lambda support, counts, levels=None: mann_whitney_u_counts(support, counts),
    ),
    "t": _from_records(lambda x, y, levels=None: t_test(x, y)),
    "chi2": _from_records(lambda x, y, levels=None: two_sample_chi_squared(x, y, levels)),
    "median": _from_records(lambda x, y, levels=None: median_test(x, y)),
}
