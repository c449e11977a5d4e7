"""Classical test statistics against hand computations and brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth.data import CountTable, GroupedDataset, build_table, load_csv, samples_from_counts, uniform_bins
from dpsynth.rng import RandomSource
from dpsynth.special import normal_cdf, regularized_incomplete_beta, regularized_upper_gamma
from dpsynth.stattests import (
    TESTS,
    FailureReason,
    Outcomes,
    TestOutcome,
    chi_squared,
    mann_whitney_u_counts,
    stack_outcomes,
    u_statistic,
)


def observed_table(x, y) -> CountTable:
    """The (group, value) table of two samples at their distinct values; group 0 holds ``x``."""
    data = GroupedDataset(np.repeat([0, 1], [len(x), len(y)]), np.concatenate((x, y)).astype(float))
    return build_table(data, [(None, None)])


def on_samples(name, x, y, levels=None) -> TestOutcome:
    """The test ``name`` on two samples, counted at their distinct values."""
    table = observed_table(x, y)
    return TESTS[name](table.levels[1], table.counts, levels)


def u_of(x, y) -> float:
    return u_statistic(observed_table(x, y).counts)


def group(data: GroupedDataset, g: int) -> np.ndarray:
    return data.values[data.groups == g]


def brute_force_u(x, y) -> float:
    """Pair-count oracle: x-wins plus half the ties, counted one pair at a time."""
    u = 0.0
    for xi in x:
        for yj in y:
            if xi > yj:
                u += 1.0
            elif xi == yj:
                u += 0.5
    return u


def reference_mann_whitney_u(x, y) -> TestOutcome:
    """The record Mann-Whitney U test as it stood before the counts form: argsort midranks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n2 = x.size, y.size
    if n1 == 0 or n2 == 0:
        return TestOutcome(float("nan"), None, False, FailureReason.SINGLE_CLASS)
    pooled = np.concatenate((x, y))
    order = np.argsort(pooled, kind="stable")
    n = pooled.size
    sorted_vals = pooled[order]
    run_starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_vals) != 0) + 1))
    run_ends = np.concatenate((run_starts[1:], [n]))
    avg = (run_starts + run_ends + 1) / 2.0
    ranks = np.empty(n)
    ranks[order] = np.repeat(avg, run_ends - run_starts)
    u = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0
    tie_counts = (run_ends - run_starts).astype(np.int64)
    tie_term = float(np.sum(tie_counts.astype(float) ** 3 - tie_counts)) / (n * (n - 1))
    sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie_term)
    if sigma2 <= 0:
        return TestOutcome(float("nan"), None, False, FailureReason.CONSTANT_VALUES)
    shift = u - n1 * n2 / 2.0
    cc = 0.5 if shift > 0 else (-0.5 if shift < 0 else 0.0)
    z = (shift - cc) / np.sqrt(sigma2)
    return TestOutcome(u, min(1.0, 2.0 * normal_cdf(-abs(z))), True)


def reference_t_test(x, y) -> TestOutcome:
    """The record t-test as it stood before the counts form, on the values in their given order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n2 = x.size, y.size
    if n1 < 2 or n2 < 2:
        return TestOutcome(float("nan"), None, False, FailureReason.SINGLE_CLASS)
    df = n1 + n2 - 2
    ss = float(((x - x.mean()) ** 2).sum() + ((y - y.mean()) ** 2).sum())
    pooled_var = ss / df
    if pooled_var <= 0:
        return TestOutcome(float("nan"), None, False, FailureReason.CONSTANT_VALUES)
    t = (float(x.mean()) - float(y.mean())) / np.sqrt(pooled_var * (1.0 / n1 + 1.0 / n2))
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return TestOutcome(float(t), min(1.0, p), True)


def reference_chi_squared(table, min_expected=5.0) -> TestOutcome:
    """The chi-squared arithmetic as it stood before the counts forms, with its feasibility checks."""
    obs = np.asarray(table, dtype=float)
    if obs.shape[0] < 2 or obs.shape[1] < 2 or np.any(obs.sum(axis=1) == 0) or np.any(obs.sum(axis=0) == 0):
        return TestOutcome(float("nan"), None, False, FailureReason.SINGLE_CLASS)
    row = obs.sum(axis=1, keepdims=True)
    col = obs.sum(axis=0, keepdims=True)
    expected = row * col / obs.sum()
    if np.any(expected < min_expected):
        return TestOutcome(float("nan"), None, False, FailureReason.LOW_EXPECTED_FREQUENCY)
    cc = 0.5 if obs.shape == (2, 2) else 0.0
    dev = np.maximum(np.abs(obs - expected) - cc, 0.0)
    stat = float((dev**2 / expected).sum())
    df = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    return TestOutcome(stat, min(1.0, regularized_upper_gamma(df / 2.0, stat / 2.0)), True)


def reference_two_sample_chi_squared(x, y, levels=None) -> TestOutcome:
    """The record chi2 test as it stood before the counts form: quartile or level columns of records."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        return reference_chi_squared(np.array([[x.size], [y.size]]))
    if levels is None:
        edges = np.quantile(np.concatenate((x, y)), [0.25, 0.5, 0.75])
        table = [np.bincount(np.searchsorted(edges, v, side="right"), minlength=4) for v in (x, y)]
    else:
        table = [[(v == level).sum() for level in levels] for v in (x, y)]
    return reference_chi_squared(np.array(table))


def reference_median_test(x, y) -> TestOutcome:
    """The record median test as it stood before the counts form: np.median of the pooled records."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        return TestOutcome(float("nan"), None, False, FailureReason.SINGLE_CLASS)
    median = float(np.median(np.concatenate((x, y))))
    table = np.array([[(v > median).sum(), (v <= median).sum()] for v in (x, y)], dtype=float)
    if np.any(table.sum(axis=0) == 0) or np.any(table.sum(axis=1) == 0):
        return TestOutcome(float("nan"), None, False, FailureReason.DEGENERATE_MEDIAN)
    return reference_chi_squared(table, min_expected=0.0)


REFERENCES = {
    "mw_u": lambda x, y, levels: reference_mann_whitney_u(x, y),
    "t": lambda x, y, levels: reference_t_test(x, y),
    "chi2": reference_two_sample_chi_squared,
    "median": lambda x, y, levels: reference_median_test(x, y),
}

small_group = st.lists(st.integers(0, 6).map(float), min_size=1, max_size=12)


class TestOutcomeContract:
    def test_infeasible_cannot_carry_p(self):
        with pytest.raises(ValueError):
            TestOutcome(1.0, 0.5, False, FailureReason.SINGLE_CLASS)

    def test_feasible_requires_p(self):
        with pytest.raises(ValueError):
            TestOutcome(1.0, None, True)

    def test_reason_must_match_flag(self):
        with pytest.raises(ValueError):
            TestOutcome(1.0, 0.5, True, FailureReason.CONSTANT_VALUES)


class TestMannWhitney:
    def test_separated_groups(self):
        out = on_samples("mw_u", [1, 2, 3], [4, 5, 6])
        assert out.statistic == 0.0
        # z = (0 - 4.5 + 0.5)/sqrt(5.25) = -1.7457
        assert out.p_value == pytest.approx(0.0809, abs=5e-4)

    def test_constant_values_infeasible(self):
        out = on_samples("mw_u", [5, 5, 5], [5, 5, 5])
        assert not out.feasible
        assert out.failure_reason is FailureReason.CONSTANT_VALUES

    def test_empty_group_infeasible(self):
        out = on_samples("mw_u", [], [1.0, 2.0])
        assert out.failure_reason is FailureReason.SINGLE_CLASS

    @given(small_group, small_group)
    def test_matches_brute_force_pair_counting(self, x, y):
        assert u_of(x, y) == brute_force_u(x, y)

    @given(small_group, small_group)
    def test_complement_identity(self, x, y):
        assert u_of(x, y) + u_of(y, x) == len(x) * len(y)

    @given(small_group, small_group)
    def test_permutation_invariance_within_groups(self, x, y):
        rng = np.random.default_rng(0)
        out = on_samples("mw_u", x, y)
        shuffled = on_samples("mw_u", rng.permutation(x), rng.permutation(y))
        assert out.feasible == shuffled.feasible
        if out.feasible:
            assert out.statistic == shuffled.statistic
            assert out.p_value == shuffled.p_value

    def test_cardio_bmi_statistic(self, cardio_path):
        table = build_table(load_csv(cardio_path), [(None, None)])
        # U is stated for the cardio group, group 1, so its row goes first.
        out = TESTS["mw_u"](table.levels[1], table.counts[::-1], None)
        assert out.statistic == 471_500_929.50


class TestTTest:
    def test_hand_computed_example(self):
        out = on_samples("t", [1, 2, 3], [2, 3, 4])
        assert out.statistic == pytest.approx(-1.2247, abs=1e-3)
        assert out.p_value == pytest.approx(0.288, abs=1e-2)

    def test_identical_lists_give_p_one(self):
        out = on_samples("t", [1, 2, 3], [1, 2, 3])
        assert out.statistic == 0.0
        assert out.p_value == 1.0

    def test_zero_variance_infeasible(self):
        out = on_samples("t", [1, 1], [1, 1])
        assert out.failure_reason is FailureReason.CONSTANT_VALUES

    def test_small_group_infeasible(self):
        assert on_samples("t", [1.0], [1, 2, 3]).failure_reason is FailureReason.SINGLE_CLASS

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=20),
        st.lists(st.floats(-10, 10), min_size=2, max_size=20),
    )
    def test_symmetric_under_group_swap(self, x, y):
        a, b = on_samples("t", x, y), on_samples("t", y, x)
        if a.feasible:
            assert b.p_value == pytest.approx(a.p_value, rel=1e-12)
            assert b.statistic == pytest.approx(-a.statistic, rel=1e-12)


class TestChiSquared:
    def test_uniform_table(self):
        out = chi_squared([[10, 10], [10, 10]])
        assert out.statistic == 0.0
        assert out.p_value == 1.0

    def test_yates_example(self):
        out = chi_squared([[20, 5], [5, 20]])
        assert out.statistic == pytest.approx(15.68, abs=1e-12)
        assert out.p_value == pytest.approx(7.5e-5, abs=1e-5)

    def test_low_expected_frequency(self):
        out = chi_squared([[2, 8], [3, 7]])
        assert out.failure_reason is FailureReason.LOW_EXPECTED_FREQUENCY

    def test_zero_marginal_single_class(self):
        out = chi_squared([[0, 0], [5, 5]])
        assert out.failure_reason is FailureReason.SINGLE_CLASS

    def test_wide_table_no_yates(self):
        table = [[20, 20, 20], [20, 20, 20]]
        out = chi_squared(table)
        assert out.statistic == 0.0
        assert out.p_value == 1.0


class TestTwoSampleChiSquared:
    def test_levels_give_one_column_each(self):
        x = [1.0] * 12 + [2.0] * 8
        y = [1.0] * 6 + [2.0] * 14
        assert on_samples("chi2", x, y, levels=[1.0, 2.0]) == chi_squared([[12, 8], [6, 14]])

    def test_quartile_columns_without_levels(self):
        x = np.arange(0.0, 40.0, 2.0)
        y = np.arange(1.0, 41.0, 2.0)
        edges = np.quantile(np.concatenate((x, y)), [0.25, 0.5, 0.75])
        table = [[(np.searchsorted(edges, v, side="right") == k).sum() for k in range(4)] for v in (x, y)]
        assert on_samples("chi2", x, y) == chi_squared(table)

    def test_empty_group_single_class(self):
        out = on_samples("chi2", [], [1.0, 2.0], levels=[1.0, 2.0])
        assert out.failure_reason is FailureReason.SINGLE_CLASS


class TestMedianTest:
    def test_fully_separated_groups(self):
        out = on_samples("median", [1, 2, 3, 4], [5, 6, 7, 8])
        assert out.statistic == pytest.approx(4.5, abs=1e-12)
        assert out.p_value == pytest.approx(0.0339, abs=1e-3)

    def test_degenerate_median(self):
        out = on_samples("median", [7, 7, 7, 7], [7, 7, 7, 7])
        assert out.failure_reason is FailureReason.DEGENERATE_MEDIAN

    def test_empty_group(self):
        assert on_samples("median", [], [1.0]).failure_reason is FailureReason.SINGLE_CLASS

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=20),
        st.lists(st.floats(-5, 5), min_size=2, max_size=20),
    )
    def test_symmetric_under_group_swap(self, x, y):
        a, b = on_samples("median", x, y), on_samples("median", y, x)
        assert a.feasible == b.feasible
        if a.feasible:
            assert b.p_value == pytest.approx(a.p_value, rel=1e-12)

    @settings(max_examples=10)
    @given(st.integers(0, 2**32 - 1))
    def test_no_minimum_frequency_rule(self, seed):
        # Small samples stay feasible here, unlike the chi-squared policy.
        g = np.random.default_rng(seed)
        out = on_samples("median", g.normal(size=4), g.normal(size=4))
        assert out.feasible or out.failure_reason is FailureReason.DEGENERATE_MEDIAN

    def test_calibration_on_null_data(self):
        # 2000 repetitions of n=200 i.i.d. continuous data. Exact oracle: the
        # above-median count is Hypergeom(200, 100, 100), and the Yates
        # statistic rejects at alpha=0.05 with probability 0.033636 (the
        # continuity correction makes the test conservative, never inflated).
        truth = 0.033636
        reps = 2000
        rng = RandomSource(2024)
        rejections = 0
        for rep in range(reps):
            g = rng.child(rep).generator
            out = on_samples("median", g.normal(size=100), g.normal(size=100))
            rejections += out.feasible and out.p_value <= 0.05
        rate = rejections / reps
        assert abs(rate - truth) <= 3 * np.sqrt(truth * (1 - truth) / reps)
        assert rate <= 0.07


def random_tables(seed: int, count: int):
    """2 x B count tables, n from 2 to 20 000, from one occupied cell to every cell."""
    g = np.random.default_rng(seed)
    for _ in range(count):
        bins = int(g.choice([2, 5, 24, 100]))
        n = int(g.choice([2, 3, 10, 50, 500, 1000, 20_000]))
        occupied = int(g.integers(1, 2 * bins + 1))
        weights = np.zeros(2 * bins)
        weights[g.choice(2 * bins, size=occupied, replace=False)] = g.random(occupied)
        yield g.multinomial(n, weights / weights.sum()).reshape(2, bins)


def record_outcome(name, counts, spec, levels=None) -> TestOutcome:
    """The pre-counts reference on the records expanded from ``counts``."""
    data = samples_from_counts(CountTable(("group", "value"), ((0.0, 1.0), spec.midpoints()), counts))
    return REFERENCES[name](group(data, 0), group(data, 1), levels)


def counts_outcome(name, counts, spec, levels=None) -> TestOutcome:
    return TESTS[name](spec.midpoints(), counts, levels)


def same(a: TestOutcome, b: TestOutcome) -> bool:
    """Exact equality, reading the statistic of two infeasible outcomes (NaN) as equal."""
    return a.to_dict() == b.to_dict()


class TestCountsForms:
    """Each counts form gives exactly the pre-counts record outcome on the expanded records."""

    @pytest.mark.parametrize("name", sorted(TESTS))
    def test_random_tables_match_records(self, name):
        for counts in random_tables(seed=8, count=150):
            spec = uniform_bins(0.0, float(counts.shape[1]), counts.shape[1])
            got, want = counts_outcome(name, counts, spec), record_outcome(name, counts, spec)
            assert same(got, want), (counts.tolist(), got, want)

    def test_levels_match_records(self):
        for counts in random_tables(seed=9, count=100):
            spec = uniform_bins(0.0, float(counts.shape[1]), counts.shape[1])
            levels = spec.midpoints()
            assert same(counts_outcome("chi2", counts, spec, levels), record_outcome("chi2", counts, spec, levels))

    @pytest.mark.parametrize("name", sorted(TESTS))
    @pytest.mark.parametrize(
        "counts",
        [
            [[0, 0, 0, 0], [3, 0, 9, 1]],  # one group empty
            [[4, 9, 1, 0], [0, 0, 0, 0]],  # the other group empty
            [[0, 0, 0, 0], [0, 0, 0, 0]],  # nothing released
            [[0, 7, 0, 0], [0, 5, 0, 0]],  # one occupied bin
            [[1, 0, 0, 4], [0, 0, 0, 5]],  # median at the top value, nothing above it
            [[2, 1, 1, 2], [1, 2, 2, 1]],  # expected chi2 cell frequencies below 5
            [[1, 0, 0, 0], [0, 0, 0, 1]],  # n = 2
        ],
    )
    def test_degenerate_tables_match_records(self, name, counts):
        counts = np.array(counts)
        spec = uniform_bins(0.0, 4.0, 4)
        assert same(counts_outcome(name, counts, spec), record_outcome(name, counts, spec))

    def test_degenerate_tables_fail_for_their_reason(self):
        spec = uniform_bins(0.0, 4.0, 4)
        cases = {
            ("mw_u", ((0, 0, 0, 0), (3, 0, 9, 1))): FailureReason.SINGLE_CLASS,
            ("mw_u", ((0, 7, 0, 0), (0, 5, 0, 0))): FailureReason.CONSTANT_VALUES,
            ("t", ((0, 7, 0, 0), (0, 5, 0, 0))): FailureReason.CONSTANT_VALUES,
            ("median", ((1, 0, 0, 4), (0, 0, 0, 5))): FailureReason.DEGENERATE_MEDIAN,
            ("chi2", ((2, 1, 1, 2), (1, 2, 2, 1))): FailureReason.LOW_EXPECTED_FREQUENCY,
        }
        for (name, counts), reason in cases.items():
            assert counts_outcome(name, np.array(counts), spec).failure_reason is reason

    def test_continuous_records_with_ties_match_reference(self):
        # The t-test sums each group in ascending order rather than as given,
        # so only its last digits may differ; every other test is exact.
        g = np.random.default_rng(10)
        for n1, n2 in [(1, 1), (2, 3), (5, 7), (60, 40), (1000, 1000), (10_000, 10_000)]:
            for decimals in (None, 1, 0):
                x, y = g.normal(50, 10, size=n1), g.normal(50.5, 10, size=n2)
                if decimals is not None:
                    x, y = np.round(x, decimals), np.round(y, decimals)
                levels = np.unique(np.concatenate((x, y)))[:12] if decimals == 0 else None
                for name, (a, b) in itertools.product(sorted(TESTS), ((x, y), (y, x))):
                    got, want = on_samples(name, a, b, levels), REFERENCES[name](a, b, levels)
                    if name != "t":
                        assert same(got, want), (n1, n2, decimals, got, want)
                        continue
                    assert (got.feasible, got.failure_reason) == (want.feasible, want.failure_reason)
                    if want.feasible:
                        assert got.statistic == pytest.approx(want.statistic, rel=0, abs=1e-9)
                        assert got.p_value == pytest.approx(want.p_value, rel=1e-9, abs=0)

    def test_tabulate_counts_each_group_at_the_pooled_distinct_values(self):
        table = observed_table([2, 1, 2], [3.5, 1])
        assert table.levels[1].tolist() == [1.0, 2.0, 3.5]
        assert table.counts.tolist() == [[1, 2, 0], [1, 0, 1]]

    def test_counts_form_rejects_malformed_tables(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            mann_whitney_u_counts([1.0, 1.0], [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="shape"):
            mann_whitney_u_counts([1.0, 2.0, 3.0], [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="non-negative"):
            TESTS["t"]([1.0, 2.0], [[1, -2], [3, 4]], None)


class TestStackOutcomes:
    """Each table of a stack gets exactly the outcome, and so the rejection, that it gets alone."""

    DEGENERATE = [
        [[0, 0, 0, 0], [3, 0, 9, 1]],
        [[4, 9, 1, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 7, 0, 0], [0, 5, 0, 0]],
        [[1, 0, 0, 4], [0, 0, 0, 5]],
        [[1, 0, 0, 0], [0, 0, 0, 1]],
    ]

    def stacks(self):
        """One stack of random tables per width, and one of the degenerate 2 x 4 tables around an ordinary one."""
        tables = list(random_tables(seed=11, count=400))
        for bins in (2, 5, 24, 100):
            yield np.array([t for t in tables if t.shape[1] == bins])
        yield np.array(self.DEGENERATE[:3] + [[[2, 1, 0, 3], [0, 4, 4, 1]]] + self.DEGENERATE[3:])

    @pytest.mark.parametrize("name", sorted(TESTS))
    def test_each_row_matches_the_table_alone(self, name):
        for stack in self.stacks():
            support = np.arange(stack.shape[2], dtype=float)
            levels = support if name == "chi2" else None
            outcomes = stack_outcomes(name, support, stack, levels)
            assert all(len(field) == len(stack) for field in outcomes)
            for row, table in enumerate(stack):
                alone = TESTS[name](support, table, levels)
                assert same(outcomes.outcome(row), alone), (name, table.tolist())
                rejected = bool(outcomes.p_value[row] <= 0.05)
                assert rejected == (alone.feasible and alone.p_value <= 0.05)

    def test_outcomes_of_single_tables_round_trip(self):
        singles = [TESTS["median"](np.arange(4.0), np.array(t), None) for t in self.DEGENERATE]
        outcomes = Outcomes.of(singles)
        assert [outcomes.outcome(row).to_dict() for row in range(len(singles))] == [o.to_dict() for o in singles]
        assert outcomes.failure_reason.tolist()[:3] == ["single-class"] * 3

    def test_malformed_stack_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            stack_outcomes("mw_u", [1.0, 2.0], [[1, 2], [3, 4]], None)
        with pytest.raises(ValueError, match="non-negative"):
            stack_outcomes("mw_u", [1.0, 2.0], [[[1, -2], [3, 4]]], None)
