"""Mechanism contracts: noise shapes, budget accounting, and limit behavior."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth import synth as synth_mod
from dpsynth.data import (
    CountTable,
    GroupedDataset,
    build_table,
    samples_from_counts,
    uniform_bins,
)
from dpsynth.rng import RandomSource
from dpsynth.simgen import gaussian_bivariate
from dpsynth.synth import (
    SYNTHESIZERS,
    BudgetLedger,
    PrivacyBudget,
    all_low_order_marginals,
    fit_marginal_joint,
    marginal_ipf,
    mwem,
    mwem_weights,
    perturbed_histogram,
    smoothed_histogram,
    smoothed_probabilities,
)


class TestSynthesize:
    def test_registry_matches_direct_calls(self):
        data = gaussian_bivariate(200, "signal", RandomSource(1))
        spec = uniform_bins(45.0, 55.0, 10)
        hist = build_table(data, [(None, spec)])
        budget = PrivacyBudget(2.0)
        direct = {
            "perturbed": perturbed_histogram(hist, budget, RandomSource(2)),
            "smoothed": smoothed_histogram(hist, budget, 50, RandomSource(2)),
            "mwem": mwem(hist, budget, 3, RandomSource(2)),
            "marginal_ipf": marginal_ipf(hist, budget, RandomSource(2)),
        }
        for method, expected in direct.items():
            got = SYNTHESIZERS[method](hist, budget, RandomSource(2), m=50, iterations=3)
            assert type(got) is CountTable
            assert got.variables == hist.variables
            assert all(np.array_equal(a, b) for a, b in zip(got.levels, hist.levels))
            assert np.array_equal(got.counts, expected.counts)


def two_axis(counts, spec) -> CountTable:
    """The (group, value) table of ``counts`` over ``spec``'s bins."""
    return CountTable(("group", "value"), ((0.0, 1.0), spec.midpoints()), counts)


def hist_2x2(c00, c01, c10, c11) -> CountTable:
    return two_axis([[c00, c01], [c10, c11]], uniform_bins(0.0, 2.0, 2))


class TestPrivacyBudget:
    @pytest.mark.parametrize(
        "eps,delta", [(0.0, 0.0), (-1.0, 0.0), (1.0, 1.0), (1.0, -0.1), (math.inf, 0.0), (math.nan, 0.0)]
    )
    def test_invalid_rejected(self, eps, delta):
        with pytest.raises(ValueError):
            PrivacyBudget(eps, delta)


class TestBudgetLedger:
    def test_exact_accounting(self):
        ledger = BudgetLedger(1.0)
        for _ in range(20):
            ledger.spend(Fraction(1, 20), "round")
        ledger.close()

    def test_underspend_detected(self):
        ledger = BudgetLedger(1.0)
        ledger.spend(Fraction(1, 2), "half")
        with pytest.raises(AssertionError):
            ledger.close()

    def test_float_fractions_partition_exactly(self):
        ledger = BudgetLedger(0.3)
        frac = Fraction(0.65)
        ledger.spend(frac, "size")
        ledger.spend(1 - frac, "stat")
        ledger.close()

    def test_mechanisms_consume_their_whole_budget(self, monkeypatch):
        ledgers = []
        original = synth_mod.BudgetLedger

        def capture(epsilon):
            ledger = original(epsilon)
            ledgers.append(ledger)
            return ledger

        monkeypatch.setattr(synth_mod, "BudgetLedger", capture)
        hist = hist_2x2(40, 10, 10, 40)
        rng = RandomSource(0)
        perturbed_histogram(hist, PrivacyBudget(1.0), rng.child(0))
        smoothed_histogram(hist, PrivacyBudget(2.0), 50, rng.child(1))
        mwem(hist, PrivacyBudget(3.0), 3, rng.child(2))
        marginal_ipf(build_table(gaussian_bivariate(100, "null", rng.child(3)), [(None, uniform_bins(40, 60, 5))]), PrivacyBudget(4.0), rng.child(4))
        assert [led.epsilon for led in ledgers] == [1.0, 2.0, 3.0, 4.0]
        for ledger in ledgers:
            assert ledger.spent == 1


def clamped_log_pmf(count: int, scale: float, top: int) -> np.ndarray:
    """log P(max(count + Z, 0) = y) for y = 0..top, Z ~ discrete Laplace(scale).

    P(Z = k) = ((1 - q)/(1 + q)) q^|k| with q = exp(-1/scale), as in
    ``rng.discrete_laplace_sample``; the clamped atom at 0 collects every
    Z <= -count, the geometric series q^count/(1 - q).
    """
    q = math.exp(-1.0 / scale)
    log_norm = math.log((1 - q) / (1 + q))
    log_p = log_norm - np.abs(np.arange(top + 1) - count) / scale
    log_p[0] = log_norm - count / scale - math.log1p(-q)
    return log_p


def perturbed_worst_log_ratio(scale: float, n: int = 3) -> float:
    """Worst output log-ratio of the clamped noisy 2x2 histogram over every
    replace-one neighbour pair of n records (group flips included).

    Cells are noised independently, so the cells a replacement leaves alone
    cancel and the ratio is a sum over the source and destination cells.
    Outputs above n + 1 repeat the ratio at n + 1, so y <= n + 2 covers them.
    """
    k, top = 4, n + 2
    log_pmf = [clamped_log_pmf(c, scale, top) for c in range(n + 1)]
    worst = 0.0
    for cells in itertools.combinations_with_replacement(range(k), n):
        counts = np.bincount(cells, minlength=k)
        for src, dst in itertools.permutations(range(k), 2):
            if counts[src] == 0:
                continue
            ratio_src = log_pmf[counts[src]] - log_pmf[counts[src] - 1]
            ratio_dst = log_pmf[counts[dst]] - log_pmf[counts[dst] + 1]
            worst = max(worst, float(np.max(np.abs(ratio_src[:, None] + ratio_dst[None, :]))))
    return worst


class TestPerturbedHistogram:
    def test_clamped_pmf_sums_to_one(self):
        for count in range(4):
            assert math.isclose(np.exp(clamped_log_pmf(count, 20.0, 2000)).sum(), 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 1.0, 3.0, 10.0])
    def test_exact_privacy_audit_spends_whole_budget(self, eps, monkeypatch):
        # The audit uses the scale the mechanism actually passes to its noise.
        scales = []
        original = synth_mod.discrete_laplace_sample

        def capture(scale, rng, size=None):
            scales.append(scale)
            return original(scale, rng, size)

        monkeypatch.setattr(synth_mod, "discrete_laplace_sample", capture)
        perturbed_histogram(hist_2x2(1, 1, 0, 1), PrivacyBudget(eps), RandomSource(0))
        (scale,) = scales
        worst = perturbed_worst_log_ratio(scale)
        assert worst <= eps * (1 + 1e-9)
        assert worst >= eps * (1 - 1e-9)

    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    def test_audit_rejects_scale_that_misses_the_sensitivity(self, eps):
        # A replacement moves two cells by one each, so scale 1/eps spends 2 eps.
        assert perturbed_worst_log_ratio(1.0 / eps) > eps * (1 + 1e-9)

    def test_huge_epsilon_is_identity(self):
        hist = hist_2x2(7, 3, 2, 8)
        out = perturbed_histogram(hist, PrivacyBudget(1e6), RandomSource(1))
        assert np.array_equal(out.counts, hist.counts)
        assert out.total_n == hist.total_n

    @given(st.integers(0, 2**32 - 1))
    def test_counts_never_negative(self, seed):
        hist = hist_2x2(3, 0, 0, 1)
        out = perturbed_histogram(hist, PrivacyBudget(0.05), RandomSource(seed))
        assert np.all(out.counts >= 0)

    def test_mean_size_under_heavy_noise(self):
        # Monte Carlo oracle over the stated noise distribution: clamping the
        # two zero cells adds ~10 records each on average (b = 20), while the
        # two 100-count cells stay near 100, so the mean lands near 220.
        hist = hist_2x2(100, 0, 0, 100)
        rng = RandomSource(42)
        sizes = [
            perturbed_histogram(hist, PrivacyBudget(0.1), rng.child(i)).total_n
            for i in range(2000)
        ]
        assert 160 <= np.mean(sizes) <= 240

    def test_determinism(self):
        hist = hist_2x2(5, 5, 5, 5)
        a = perturbed_histogram(hist, PrivacyBudget(0.2), RandomSource(9))
        b = perturbed_histogram(hist, PrivacyBudget(0.2), RandomSource(9))
        assert np.array_equal(a.counts, b.counts)


class TestSmoothedHistogram:
    def test_probability_example(self):
        # cells [10, 0], m=5, eps=5*ln 2 -> alpha 1 -> probabilities [11/12, 1/12]
        probs = smoothed_probabilities([10, 0], 5 * math.log(2), 5)
        assert np.allclose(probs, [11 / 12, 1 / 12], atol=1e-15)

    def test_tiny_epsilon_close_to_uniform(self):
        probs = smoothed_probabilities([50, 0, 0, 0], 1e-6, 10)
        tv = 0.5 * np.abs(probs - 0.25).sum()
        assert tv < 1e-3

    @given(st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_output_size_exactly_m(self, m, seed):
        hist = hist_2x2(10, 5, 0, 3)
        out = smoothed_histogram(hist, PrivacyBudget(1.0), m, RandomSource(seed))
        assert out.total_n == m

    @pytest.mark.parametrize("m", [0, -3])
    def test_nonpositive_m_rejected(self, m):
        with pytest.raises(ValueError):
            smoothed_histogram(hist_2x2(1, 1, 1, 1), PrivacyBudget(1.0), m, RandomSource(0))

    @given(
        st.lists(st.integers(0, 500), min_size=4, max_size=40),
        st.integers(1, 1000),
        st.floats(0.01, 100.0),
    )
    def test_exponentiated_score_form_is_identical(self, counts, m, eps):
        # Direct (c + alpha)-proportional probabilities versus the
        # exponential-mechanism form p_i ~ exp((eps/m) * u_i) with per-draw
        # budget eps/m and score u_i = ln(c_i + alpha)/ln(1 + 1/alpha), whose
        # replace-one sensitivity is <= 1 under a fixed normaliser.
        counts = np.asarray(counts, dtype=float)
        alpha = math.exp(-eps / m) / -math.expm1(-eps / m)
        scores = np.log(counts + alpha) / np.log1p(1.0 / alpha)
        exp_form = np.exp(eps * scores / m - np.max(eps * scores / m))
        exp_form /= exp_form.sum()
        direct = smoothed_probabilities(counts, eps, m)
        assert np.allclose(direct, exp_form, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("eps", [0.1, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_exact_privacy_audit_spends_whole_budget(self, eps, m):
        # Every replace-one neighbour pair (group flips included) of n=3
        # records on a 2x2 group-by-bin domain, every output of the m draws:
        # the worst multinomial log-ratio is epsilon, no more and no less.
        k = 4

        def count_vectors(total):
            return np.array(
                [np.bincount(cells, minlength=k) for cells in itertools.combinations_with_replacement(range(k), total)]
            )

        outputs = count_vectors(m)
        worst = 0.0
        for counts in count_vectors(3):
            log_p = np.log(smoothed_probabilities(counts, eps, m))
            for src, dst in itertools.permutations(range(k), 2):
                if counts[src] == 0:
                    continue
                neighbour = counts.copy()
                neighbour[src] -= 1
                neighbour[dst] += 1
                log_q = np.log(smoothed_probabilities(neighbour, eps, m))
                # The multinomial coefficient cancels in the ratio.
                worst = max(worst, float(np.max(np.abs(outputs @ (log_p - log_q)))))
        assert worst <= eps * (1 + 1e-9)
        assert worst >= eps * (1 - 1e-9)

    def test_high_epsilon_resamples_empirical_distribution(self):
        # With alpha ~ 0 the smoothed draw is a multinomial over the empirical
        # frequencies; KS between synthetic and original values stays small.
        data = gaussian_bivariate(20_000, "null", RandomSource(5))
        spec = uniform_bins(40.0, 60.0, 100)
        hist = two_axis(
            np.stack(
                [
                    np.bincount(np.digitize(data.values[data.groups == g], spec.edges) - 1, minlength=100)[:100]
                    for g in (0, 1)
                ]
            ),
            spec,
        )
        out = smoothed_histogram(hist, PrivacyBudget(1e9), 5000, RandomSource(6))
        binned_original = spec.midpoints()[np.clip(np.digitize(data.values, spec.edges) - 1, 0, 99)]
        ks = scipy.stats.ks_2samp(samples_from_counts(out).values, binned_original)
        assert ks.pvalue > 0.01


def dense_mw_update(weights, measurements, n, sweeps, tol):
    """Reference multiplicative-weights sweeps on the full B-vector.

    Copies and renormalises every cell after each measured cell's step. On
    interior inputs (some cell unmeasured and the positive targets summing
    to at most n) it converges to ``synth._mw_fit``'s minimiser, given
    enough sweeps.
    """
    a = weights
    for _ in range(sweeps):
        prev = a
        for cell, measured in measurements.items():
            exponent = (measured - n * a[cell]) / (2.0 * n)
            a = a.copy()
            a[cell] *= math.exp(min(max(exponent, -600.0), 600.0))
            a /= a.sum()
        if np.max(np.abs(a - prev)) < tol:
            break
    return a


def mw_fit_inputs(case, seed):
    """``(targets, unmeasured, n)`` for ``synth._mw_fit``, drawn at ``seed``."""
    g = np.random.default_rng(seed)
    n = 500
    if case == "interior":
        t = int(g.integers(1, 20))
        return g.normal(n / 200, 4.0, size=t).tolist(), 200 - t, n
    if case == "negative":
        # One target slightly and one far below zero.
        return [float(g.normal(n / 200, 4.0)), -40.0, -1e6], 197, n
    if case == "over_full":
        t = int(g.integers(2, 20))
        values = g.dirichlet(np.ones(t)) * n * g.uniform(1.2, 2.0) + g.normal(0.0, 4.0, size=t)
        assert np.maximum(values, 0).sum() > n
        return values.tolist(), 200 - t, n
    if case == "all_measured":
        return (g.dirichlet(np.ones(200)) * n + g.normal(0.0, 4.0, size=200)).tolist(), 0, n
    # B = 4 with t = 3: interior or over-full, depending on the draw.
    return (g.dirichlet(np.ones(4))[:3] * n + g.normal(0.0, 40.0, size=3)).tolist(), 1, n


def assert_mw_fit_kkt(targets, unmeasured, n, fitted, w):
    """The KKT conditions of min 1/4 * sum_j (r_j - a_j)**2 over the simplex.

    ``r - a`` takes one value c on the measured cells with positive weight
    and at most c on those with zero weight; c = 0 while the shared weight
    is positive, and c >= 0 once it is zero with cells unmeasured.
    """
    r = np.asarray(targets) / n
    assert fitted.shape == r.shape
    assert np.all(fitted >= 0) and w >= 0
    assert fitted.sum() + unmeasured * w == pytest.approx(1.0, abs=1e-12)
    gap = r - fitted
    support = fitted > 0
    if w > 0:
        assert unmeasured > 0
        c = 0.0
    else:
        c = float(gap[support].mean())
        if unmeasured:
            assert c >= -1e-12
    assert np.all(np.abs(gap[support] - c) <= 1e-12)
    assert np.all(gap[~support] <= c + 1e-12)


class TestMwem:
    @pytest.mark.parametrize("case", ["interior", "negative", "over_full", "all_measured", "four_cells"])
    def test_fit_meets_kkt_conditions(self, case):
        shared = []
        for seed in range(50):
            targets, unmeasured, n = mw_fit_inputs(case, seed)
            fitted, w = synth_mod._mw_fit(targets, unmeasured, n)
            assert_mw_fit_kkt(targets, unmeasured, n, fitted, w)
            shared.append(w)
        if case in ("interior", "negative"):
            assert min(shared) > 0
        if case in ("over_full", "all_measured"):
            assert max(shared) == 0
        if case == "four_cells":
            assert min(shared) == 0 < max(shared)

    @pytest.mark.parametrize(
        "targets,unmeasured,shared",
        [([60.0, 20.0, 15.0, 5.0], 0, 0.0), ([60.0, 20.0], 2, 0.1)],
        ids=["every_cell_measured", "two_of_4"],
    )
    def test_fit_meets_kkt_conditions_on_fixed_inputs(self, targets, unmeasured, shared):
        fitted, w = synth_mod._mw_fit(targets, unmeasured, 100)
        assert_mw_fit_kkt(targets, unmeasured, 100, fitted, w)
        assert w == pytest.approx(shared, abs=1e-15)

    @pytest.mark.parametrize(
        "cells,measurements,n",
        [
            (20, {3: 8.0, 11: 2.0, 17: 5.5}, 100),
            (20, {0: 9.0, 4: 3.0, 7: -40.0, 12: -1e6}, 100),
            (4, {0: 60.0, 1: 20.0}, 100),
            (4, {2: 30.0, 0: 45.0, 3: 15.0}, 100),
        ],
        ids=["three_of_20", "negative", "two_of_4", "three_of_4"],
    )
    def test_fit_matches_converged_sweeps_on_interior_inputs(self, cells, measurements, n):
        expected = dense_mw_update(np.full(cells, 1.0 / cells), measurements, n, 200_000, 1e-13)
        fitted, w = synth_mod._mw_fit(list(measurements.values()), cells - len(measurements), n)
        got = np.full(cells, w)
        got[list(measurements)] = fitted
        assert w > 0
        assert np.max(np.abs(got - expected)) <= 1e-8

    def test_iteration_bounds(self):
        hist = hist_2x2(1, 1, 1, 1)
        with pytest.raises(ValueError):
            mwem(hist, PrivacyBudget(1.0), 0, RandomSource(0))
        with pytest.raises(ValueError):
            mwem(hist, PrivacyBudget(1.0), 5, RandomSource(0))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="at least one record"):
            mwem(hist_2x2(0, 0, 0, 0), PrivacyBudget(1.0), 2, RandomSource(0))

    def test_noiseless_update_reaches_fixed_point(self):
        # T=1 with a huge budget: the exponential mechanism picks the worst
        # cell against uniform (cell 0, |60 - 25| = 35), and the fit gives it
        # exactly its measured count.
        counts = np.array([[60, 20], [15, 5]])
        hist = two_axis(counts, uniform_bins(0, 2, 2))
        weights = mwem_weights(hist, PrivacyBudget(1e6), 1, RandomSource(7))
        assert abs(100 * weights[0] - 60.0) <= 1e-3

    def test_two_cell_workload_fits(self):
        # Near-noiseless MWEM on a [75, 25] histogram: the fitted distribution
        # lands within TV 0.02 of [0.75, 0.25] on every one of 100 seeds.
        hist = two_axis(np.array([[75, 25], [0, 0]]), uniform_bins(0, 2, 2))
        target = np.array([0.75, 0.25, 0.0, 0.0])
        worst = 0.0
        for seed in range(100):
            weights = mwem_weights(hist, PrivacyBudget(1000.0), 2, RandomSource(seed))
            worst = max(worst, 0.5 * np.abs(weights - target).sum())
        assert worst < 0.02

    def test_never_reads_raw_records(self):
        # The mechanism consumes the histogram only; equal histograms from
        # different record orderings give identical synthetic data.
        d1 = gaussian_bivariate(400, "null", RandomSource(11))
        spec = uniform_bins(40, 60, 10)
        hist = two_axis(
            np.stack(
                [
                    np.bincount(np.digitize(d1.values[d1.groups == g], spec.edges) - 1, minlength=10)[:10]
                    for g in (0, 1)
                ]
            ),
            spec,
        )
        a = mwem(hist, PrivacyBudget(1.0), 5, RandomSource(13))
        b = mwem(hist, PrivacyBudget(1.0), 5, RandomSource(13))
        assert np.array_equal(a.counts, b.counts)


class TestMarginalIpf:
    def test_full_marginal_copies_empirical(self):
        data = gaussian_bivariate(2000, "signal", RandomSource(21))
        table = build_table(data, [(None, uniform_bins(45, 55, 20))])
        joint = fit_marginal_joint(table, PrivacyBudget(1e6), RandomSource(22), marginals=((0, 1),))
        empirical = table.counts / table.total_n
        assert 0.5 * np.abs(joint - empirical).sum() < 1e-6

    def test_independent_one_way_marginals_give_product(self):
        rng = RandomSource(23)
        g = rng.generator
        groups = (g.random(5000) < 0.3).astype(int)
        data = GroupedDataset(groups, g.integers(0, 4, size=5000).astype(float))
        table = build_table(data, [(None, (0.0, 1.0, 2.0, 3.0))])
        joint = fit_marginal_joint(table, PrivacyBudget(1e6), rng.child(1), marginals=((0,), (1,)))
        marg0 = joint.sum(axis=1)
        marg1 = joint.sum(axis=0)
        assert np.abs(joint - np.outer(marg0, marg1)).max() < 1e-6

    @pytest.mark.parametrize("sweeps", [1, 2, 5, 50])
    def test_mass_and_positivity_preserved(self, sweeps):
        data = gaussian_bivariate(500, "null", RandomSource(24))
        table = build_table(data, [(None, uniform_bins(40, 60, 10))])
        joint = fit_marginal_joint(table, PrivacyBudget(0.5), RandomSource(25), max_sweeps=sweeps)
        assert np.all(joint >= 0)
        assert joint.sum() == pytest.approx(1.0, abs=1e-9)

    def test_default_marginals_are_all_low_order(self):
        assert all_low_order_marginals(3) == ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))

    @pytest.mark.parametrize(
        "marginals",
        [(), ((0, 0),), ((1, 0),), ((0,), (0,)), ((0, 5),), ((0,),)],
    )
    def test_invalid_marginal_sets_rejected(self, marginals):
        data = gaussian_bivariate(100, "null", RandomSource(26))
        table = build_table(data, [(None, uniform_bins(40, 60, 5))])
        with pytest.raises(ValueError):
            fit_marginal_joint(table, PrivacyBudget(1.0), RandomSource(27), marginals=marginals)

    def test_synthetic_size_matches_original(self):
        data = gaussian_bivariate(300, "null", RandomSource(28))
        table = build_table(data, [(None, uniform_bins(40, 60, 10))])
        out = marginal_ipf(table, PrivacyBudget(1.0), RandomSource(29))
        assert out.total_n == 300

    def test_survives_contradictory_clamped_marginals(self):
        # At tiny epsilon, clamping can zero out whole marginals; the fit
        # must still return a proper distribution.
        data = gaussian_bivariate(50, "null", RandomSource(30))
        table = build_table(data, [(None, uniform_bins(40, 60, 10))])
        for seed in range(20):
            joint = fit_marginal_joint(table, PrivacyBudget(0.01), RandomSource(seed))
            assert np.all(np.isfinite(joint))
            assert joint.sum() == pytest.approx(1.0, abs=1e-9)


class TestNoiseScale:
    """The Laplace scale each mechanism passes to its noise is the stated
    one: its query's L1 sensitivity under replace-one neighbours (1 for one
    MWEM cell, 2 for a marginal table) over the budget share it books."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        scales, ledgers = [], []
        laplace, ledger_cls = synth_mod.laplace_sample, synth_mod.BudgetLedger

        def record_scale(scale, rng, size=None):
            scales.append(scale)
            return laplace(scale, rng, size)

        def record_ledger(epsilon):
            ledgers.append(ledger_cls(epsilon))
            return ledgers[-1]

        monkeypatch.setattr(synth_mod, "laplace_sample", record_scale)
        monkeypatch.setattr(synth_mod, "BudgetLedger", record_ledger)
        return scales, ledgers

    @pytest.mark.parametrize("eps,iterations", [(0.1, 1), (1.0, 3), (10.0, 10)])
    def test_mwem_measures_with_scale_2t_over_epsilon(self, recorded, eps, iterations):
        scales, ledgers = recorded
        hist = two_axis(np.arange(20).reshape(2, 10), uniform_bins(0.0, 10.0, 10))
        mwem_weights(hist, PrivacyBudget(eps), iterations, RandomSource(3))
        assert scales == pytest.approx([2 * iterations / eps] * iterations, rel=1e-12)
        (ledger,) = ledgers
        assert [share for _, share in ledger.entries] == [Fraction(1, 2 * iterations)] * (2 * iterations)

    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    def test_marginal_ipf_uses_scale_2k_over_epsilon(self, recorded, eps):
        scales, ledgers = recorded
        table = build_table(gaussian_bivariate(100, "null", RandomSource(4)), [(None, uniform_bins(40, 60, 5))])
        k = len(all_low_order_marginals(len(table.variables)))
        fit_marginal_joint(table, PrivacyBudget(eps), RandomSource(5), max_sweeps=1)
        assert scales == pytest.approx([2 * k / eps] * k, rel=1e-12)
        (ledger,) = ledgers
        assert [share for _, share in ledger.entries] == [Fraction(1, k)] * k
