"""Mechanism contracts: noise shapes, budget accounting, and limit behavior."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth import dpmw as dpmw_mod
from dpsynth import synth as synth_mod
from dpsynth.data import (
    CountTable,
    GroupedDataset,
    build_table,
    samples_from_counts,
    uniform_bins,
)
from dpsynth.dpmw import DPMWConfig, dp_mann_whitney
from dpsynth.harness import GeneratorSpec
from dpsynth.rng import RandomSource, discrete_laplace_sample
from dpsynth.simgen import copula_multivariate, default_prostate_spec, gaussian_bivariate
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


@pytest.fixture
def ledgers(monkeypatch):
    """Every ledger the mechanisms open during the test, in order."""
    opened = []
    original = synth_mod.BudgetLedger

    def capture(epsilon):
        opened.append(original(epsilon))
        return opened[-1]

    monkeypatch.setattr(synth_mod, "BudgetLedger", capture)
    monkeypatch.setattr(dpmw_mod, "BudgetLedger", capture)
    return opened


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

    def test_mechanisms_consume_their_whole_budget(self, ledgers):
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
    def test_exact_privacy_audit_spends_whole_budget(self, eps, ledgers):
        # The audit uses the scale the ledger drew the mechanism's noise at.
        perturbed_histogram(hist_2x2(1, 1, 0, 1), PrivacyBudget(eps), RandomSource(0))
        ((entry,),) = [ledger.entries for ledger in ledgers]
        worst = perturbed_worst_log_ratio(entry.scale)
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

    @pytest.mark.parametrize("m", [0, -3, True])
    def test_nonpositive_m_rejected(self, m):
        with pytest.raises(ValueError, match="m must"):
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
        with pytest.raises(ValueError, match="iterations"):
            mwem(hist, PrivacyBudget(1.0), True, RandomSource(0))

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

    def test_one_way_marginals_equal_empirical(self):
        rng = RandomSource(23)
        g = rng.generator
        groups = (g.random(5000) < 0.3).astype(int)
        data = GroupedDataset(groups, g.integers(0, 4, size=5000).astype(float))
        table = build_table(data, [(None, (0.0, 1.0, 2.0, 3.0))])
        joint = fit_marginal_joint(table, PrivacyBudget(1e6), rng.child(1), marginals=((0,), (1,)))
        empirical = table.counts / table.total_n
        assert np.abs(joint.sum(axis=1) - empirical.sum(axis=1)).max() <= 1e-12
        assert np.abs(joint.sum(axis=0) - empirical.sum(axis=0)).max() <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 5, 50])
    def test_mass_and_positivity_preserved(self, seed):
        data = gaussian_bivariate(500, "null", RandomSource(24))
        table = build_table(data, [(None, uniform_bins(40, 60, 10))])
        joint = fit_marginal_joint(table, PrivacyBudget(0.5), RandomSource(seed))
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

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="at least one record"):
            fit_marginal_joint(hist_2x2(0, 0, 0, 0), PrivacyBudget(1.0), RandomSource(0))

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


def fiveari_table(n: int, seed: int) -> CountTable:
    """The copula original's table over every variable, as a ``marginal_ipf`` cell builds it."""
    spec = default_prostate_spec()
    axes = GeneratorSpec(kind="copula", mode="null", copula=spec, variable="fiveari").table_axes()
    return build_table(copula_multivariate(spec, n, "null", RandomSource(seed)), axes)


@pytest.fixture
def fits(monkeypatch):
    """The targets y, the joint and its marginals mu of every marginal fit made during the test."""
    made = []
    original = synth_mod._nearest_marginal_joint

    def capture(domains, marginals, y):
        joint, mu = original(domains, marginals, y)
        made.append((y, joint, mu))
        return joint, mu

    monkeypatch.setattr(synth_mod, "_nearest_marginal_joint", capture)
    return made


def marginal_matrix(domains, marginals, cells=None) -> np.ndarray:
    """The dense matrix M whose column for each flat cell (of ``cells``, by default all) indicates its entry in every marginal."""
    cells = np.arange(math.prod(domains)) if cells is None else np.asarray(cells)
    coords = np.unravel_index(cells, domains)
    blocks = []
    for axes in marginals:
        dims = [domains[j] for j in axes]
        block = np.zeros((math.prod(dims), cells.size))
        block[np.ravel_multi_index([coords[j] for j in axes], dims), np.arange(cells.size)] = 1.0
        blocks.append(block)
    return np.vstack(blocks)


def flip_marginals(y, domains, marginals) -> np.ndarray:
    """``y`` as the targets of the table with every axis reversed, so its flat cell order is reversed."""
    pieces, lo = [], 0
    for axes in marginals:
        dims = [domains[j] for j in axes]
        piece = y[lo : lo + math.prod(dims)].reshape(dims)
        pieces.append(np.flip(piece).ravel())
        lo += piece.size
    return np.concatenate(pieces)


class TestNearestMarginalJoint:
    """The fit is the least-squares projection mu* of the noisy marginals y onto the
    polytope of the reachable marginals M p, found by Wolfe's min-norm-point algorithm."""

    @pytest.mark.parametrize("eps", [0.01, 1.0, 10.0])
    @pytest.mark.parametrize("ndim", [2, 3, 4])
    def test_fit_meets_kkt_conditions(self, fits, ndim, eps):
        g = np.random.default_rng(ndim)
        for seed in range(4):
            domains = tuple(int(d) for d in g.integers(2, 6, size=ndim))
            counts = g.integers(0, 40, size=domains) * (g.random(domains) < 0.7)
            counts.flat[0] += 1
            table = CountTable(tuple(f"v{j}" for j in range(ndim)), tuple(np.arange(d, dtype=float) for d in domains), counts)
            for marginals in [None, ((0,), tuple(range(1, ndim))), (tuple(range(ndim)),)]:
                joint = fit_marginal_joint(table, PrivacyBudget(eps), RandomSource(seed), marginals=marginals)
                y, fitted, mu = fits[-1]
                assert fitted is joint
                m = marginal_matrix(domains, marginals or all_low_order_marginals(ndim))
                p = joint.ravel()
                scale = max(1.0, float(np.abs(y).max()))
                assert np.all(p >= 0)
                assert abs(p.sum() - 1.0) <= 1e-12
                assert np.abs(m @ p - mu).max() <= 1e-12
                assert (m.T @ (mu - y)).min() >= (mu - y) @ mu - 1e-12 * scale

    @pytest.mark.parametrize("n", [50, 500, 1000])
    @pytest.mark.parametrize("eps", [0.01, 1.0, 10.0])
    def test_reversed_cell_order_moves_no_marginal(self, fits, eps, n):
        table = fiveari_table(n, 61)
        fit_marginal_joint(table, PrivacyBudget(eps), RandomSource(62))
        ((y, _, mu),) = fits
        marginals = all_low_order_marginals(len(table.domains))
        joint, _ = synth_mod._nearest_marginal_joint(table.domains, marginals, flip_marginals(y, table.domains, marginals))
        reversed_mu = np.concatenate([synth_mod._marginal(np.flip(joint), axes, math.prod(table.domains[j] for j in axes)) for axes in marginals])
        assert np.abs(reversed_mu - mu).max() <= 1e-12

    @pytest.mark.parametrize("n", [500, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weights_solve_their_cells_exactly(self, fits, n, seed):
        # The corral's bordered inverse is updated one cell at a time; its
        # weights are still the least-squares weights on their cells.
        table = fiveari_table(n, seed)
        joint = fit_marginal_joint(table, PrivacyBudget(10.0), RandomSource(100 + seed))
        ((y, _, _),) = fits
        cells = np.flatnonzero(joint)
        m = marginal_matrix(table.domains, all_low_order_marginals(len(table.domains)), cells)
        bordered = np.block([[np.zeros((1, 1)), np.ones((1, cells.size))], [np.ones((cells.size, 1)), m.T @ m]])
        exact = np.linalg.solve(bordered, np.concatenate([[1.0], m.T @ y]))[1:]
        assert np.abs(exact - joint.ravel()[cells]).max() <= 1e-11

    def test_open_gap_at_the_cap_raises(self, monkeypatch):
        table = build_table(gaussian_bivariate(500, "signal", RandomSource(63)), [(None, uniform_bins(40, 60, 10))])
        cells = 2 + 10 + 2 * 10
        monkeypatch.setattr(synth_mod, "_MAJOR_CAP_PER_CELL", 1 / cells)
        with pytest.raises(RuntimeError, match=r"did not converge: duality gap .* after 1 major iterations"):
            fit_marginal_joint(table, PrivacyBudget(10.0), RandomSource(64))


class TestIpfKernel:
    """The release takes each marginal as contiguous row sums; only the order
    of additions inside a marginal differs from ``joint.sum(axis=other)``."""

    @pytest.mark.parametrize("ndim", [2, 3, 4, 5, 6])
    def test_marginal_equals_sum_over_other_axes(self, ndim):
        # Within 1e-14 on floats; exact on counts, so the noisy targets keep their values.
        g = np.random.default_rng(ndim)
        for _ in range(3):
            domains = tuple(int(d) for d in g.integers(1, 7, size=ndim))
            joint, counts = g.random(domains) ** 4, g.integers(0, 1000, size=domains)
            for axes in all_low_order_marginals(ndim):
                other = tuple(j for j in range(ndim) if j not in axes)
                expected = joint.sum(axis=other).ravel()
                got = synth_mod._marginal(joint, axes, expected.size)
                assert got.shape == expected.shape
                assert np.allclose(got, expected, rtol=1e-14, atol=0.0)
                assert np.array_equal(synth_mod._marginal(counts, axes, expected.size), counts.sum(axis=other).ravel())

    def test_fit_does_not_depend_on_blas_threads(self):
        # A BLAS kernel may split its sums by thread count; the fit must replay on any machine.
        code = """
import hashlib
from dpsynth.data import build_table
from dpsynth.harness import GeneratorSpec
from dpsynth.rng import RandomSource
from dpsynth.simgen import copula_multivariate, default_prostate_spec
from dpsynth.synth import PrivacyBudget, fit_marginal_joint
spec = default_prostate_spec()
axes = GeneratorSpec(kind="copula", mode="null", copula=spec, variable="fiveari").table_axes()
table = build_table(copula_multivariate(spec, 200, "null", RandomSource(4)), axes)
joint = fit_marginal_joint(table, PrivacyBudget(1.0), RandomSource(5))
print(hashlib.sha256(joint.tobytes()).hexdigest())
"""
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            digests.append(run.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


class TestNoiseScale:
    """Each noisy step's ledger entry states the sensitivity of its query
    under replace-one neighbours and the scale its noise was drawn at,
    sensitivity over the budget share it books: 2 for a histogram or a
    marginal table, 1 for an MWEM cell or DP-MW's group size, 2 Delta for 2U."""

    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    def test_perturbed_uses_scale_2_over_epsilon(self, ledgers, eps):
        perturbed_histogram(hist_2x2(4, 1, 0, 3), PrivacyBudget(eps), RandomSource(1))
        ((entry,),) = [ledger.entries for ledger in ledgers]
        assert (entry.fraction, entry.sensitivity) == (1, 2)
        assert entry.scale == pytest.approx(2 / eps, rel=1e-12)

    @pytest.mark.parametrize("eps,iterations", [(0.1, 1), (1.0, 3), (10.0, 10)])
    def test_mwem_measures_with_scale_2t_over_epsilon(self, ledgers, eps, iterations):
        hist = two_axis(np.arange(20).reshape(2, 10), uniform_bins(0.0, 10.0, 10))
        mwem_weights(hist, PrivacyBudget(eps), iterations, RandomSource(3))
        (ledger,) = ledgers
        measurements = ledger.entries[1::2]
        assert [e.what for e in measurements] == [f"measurement {t + 1}" for t in range(iterations)]
        assert {(e.fraction, e.sensitivity) for e in measurements} == {(Fraction(1, 2 * iterations), 1)}
        assert [e.scale for e in measurements] == pytest.approx([2 * iterations / eps] * iterations, rel=1e-12)

    @pytest.mark.parametrize("eps,iterations", [(0.1, 1), (1.0, 3), (10.0, 10)])
    def test_mwem_selects_with_gumbel_scale_4t_over_epsilon(self, ledgers, eps, iterations):
        hist = two_axis(np.arange(20).reshape(2, 10), uniform_bins(0.0, 10.0, 10))
        mwem_weights(hist, PrivacyBudget(eps), iterations, RandomSource(3))
        (ledger,) = ledgers
        selections = ledger.entries[::2]
        assert [e.what for e in selections] == [f"selection {t + 1}" for t in range(iterations)]
        assert {(e.fraction, e.sensitivity) for e in selections} == {(Fraction(1, 2 * iterations), 1)}
        assert [e.scale for e in selections] == pytest.approx([4 * iterations / eps] * iterations, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    def test_marginal_ipf_uses_scale_2k_over_epsilon(self, ledgers, eps):
        table = build_table(gaussian_bivariate(100, "null", RandomSource(4)), [(None, uniform_bins(40, 60, 5))])
        k = len(all_low_order_marginals(len(table.variables)))
        fit_marginal_joint(table, PrivacyBudget(eps), RandomSource(5))
        (ledger,) = ledgers
        assert {(e.fraction, e.sensitivity) for e in ledger.entries} == {(Fraction(1, k), 2)}
        assert [e.scale for e in ledger.entries] == pytest.approx([2 * k / eps] * k, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    def test_dp_mann_whitney_uses_1_over_eps1_and_delta_over_eps2(self, ledgers, eps):
        data = gaussian_bivariate(200, "null", RandomSource(6))
        dp_mann_whitney(data, DPMWConfig(PrivacyBudget(eps, 1e-6), null_samples=1000), RandomSource(7))
        (ledger,) = ledgers
        size, u = ledger.entries
        eps1, eps2 = 0.65 * eps, 0.35 * eps
        assert (size.what, size.fraction, size.sensitivity) == ("group size", Fraction(0.65), 1)
        assert size.scale == pytest.approx(1 / eps1, rel=1e-12)
        # Delta from the noisy group size, the stream's first draw.
        m_tilde = min(np.bincount(data.groups)) + discrete_laplace_sample(1 / eps1, RandomSource(7))
        delta = 200 - max(1, math.floor(m_tilde - math.log(1 / 2e-6) / eps1))
        assert (u.what, u.fraction, u.sensitivity) == ("u statistic", 1 - Fraction(0.65), 2 * delta)
        assert u.scale == pytest.approx(2 * delta / eps2, rel=1e-12)

    def test_every_noisy_entry_draws_integers(self, monkeypatch):
        draws = []
        original = BudgetLedger.noise

        def record(self, *args, **kwargs):
            draws.append(original(self, *args, **kwargs))
            return draws[-1]

        monkeypatch.setattr(BudgetLedger, "noise", record)
        hist = hist_2x2(40, 10, 10, 40)
        perturbed_histogram(hist, PrivacyBudget(1.0), RandomSource(0))
        mwem(hist, PrivacyBudget(1.0), 3, RandomSource(1))
        marginal_ipf(hist, PrivacyBudget(1.0), RandomSource(2))
        data = gaussian_bivariate(100, "null", RandomSource(3))
        dp_mann_whitney(data, DPMWConfig(PrivacyBudget(1.0, 1e-6), null_samples=1000), RandomSource(4))
        # One histogram, three measurements, three marginals, DP-MW's size and 2U.
        assert len(draws) == 9
        assert all(np.asarray(draw).dtype == np.int64 for draw in draws)

    def test_smoothed_books_its_budget_once_without_noise(self, ledgers):
        smoothed_histogram(hist_2x2(4, 1, 0, 3), PrivacyBudget(2.0), 50, RandomSource(8))
        ((entry,),) = [ledger.entries for ledger in ledgers]
        assert entry == ("50 smoothed draws", 1, 2.0, None, None)


def reference_perturbed_counts(table: CountTable, budget: PrivacyBudget, rng: RandomSource) -> np.ndarray:
    """The per-table perturbed histogram's counts as they stood before stacks."""
    noise = synth_mod.discrete_laplace_sample(2.0 / (float(Fraction(1)) * budget.epsilon), rng, size=table.domains)
    return np.maximum(table.counts + noise, 0)


def reference_mw_fit(targets: list[float], unmeasured: int, n: int) -> tuple[np.ndarray, float]:
    """The per-table MWEM fit as it stood before stacks."""
    r = np.asarray(targets) / n
    a = np.maximum(r, 0.0)
    if unmeasured and a.sum() <= 1.0:
        return a, (1.0 - a.sum()) / unmeasured
    top = np.sort(r)[::-1]
    excess = np.cumsum(top) - 1.0
    k = np.nonzero(top * np.arange(1, r.size + 1) > excess)[0][-1]
    return np.maximum(r - excess[k] / (k + 1), 0.0), 0.0


def reference_mwem_weights(table: CountTable, budget: PrivacyBudget, iterations: int, rng: RandomSource):
    """The per-table MWEM weights as they stood before stacks, and the cells it selected."""
    cells = table.counts.size
    n = table.total_n
    true_counts = table.counts.ravel().astype(float)
    share = float(Fraction(1, 2 * iterations)) * budget.epsilon
    measured, targets = [], []
    w = 1.0 / cells
    unmeasured = np.ones(cells, dtype=bool)
    for _ in range(iterations):
        gumbel = rng.generator.gumbel(size=cells)
        keyed = np.where(unmeasured, share * np.abs(true_counts - n * w) / 2.0 + gumbel, -np.inf)
        query = int(np.argmax(keyed))
        unmeasured[query] = False
        measured.append(query)
        targets.append(float(true_counts[query] + synth_mod.discrete_laplace_sample(1.0 / share, rng)))
        fitted, w = reference_mw_fit(targets, cells - len(measured), n)
    a = np.full(cells, w)
    a[measured] = fitted
    return a, measured


def random_two_axis(g: np.random.Generator, bins: int, n: int) -> CountTable:
    """A (group, value) table of ``n`` records per group, spread unevenly over ``bins`` bins."""
    p = g.dirichlet(np.full(bins, 0.3), size=2)
    return two_axis(np.stack([g.multinomial(n, row) for row in p]), uniform_bins(0.0, float(bins), bins))


def stack_of(tables: list[CountTable]) -> CountTable:
    return CountTable(tables[0].variables, tables[0].levels, np.stack([t.counts for t in tables]))


class TestStacks:
    """A stack of tables releases each table as that table alone would, and a table alone is a stack of one."""

    CASES = [
        (bins, n, eps, seed)
        for seed, (bins, n, eps) in enumerate(itertools.product((2, 10, 100), (1, 60, 20_000), (0.1, 1.0, 1e3)))
    ]

    @pytest.mark.parametrize("bins,n,eps,seed", CASES)
    def test_perturbed_stack_of_one_equals_the_per_table_release(self, bins, n, eps, seed):
        table = random_two_axis(np.random.default_rng(seed), bins, n)
        expected = reference_perturbed_counts(table, PrivacyBudget(eps), RandomSource(seed))
        stacked = perturbed_histogram(stack_of([table]), PrivacyBudget(eps), RandomSource(seed))
        assert stacked.counts.shape == (1, 2, bins)
        assert np.array_equal(stacked.counts[0], expected)
        assert np.array_equal(perturbed_histogram(table, PrivacyBudget(eps), RandomSource(seed)).counts, expected)

    @pytest.mark.parametrize("bins,n,eps,seed", CASES)
    def test_mwem_stack_of_one_equals_the_per_table_weights(self, bins, n, eps, seed):
        # A different selection would move a measured cell's weight, so equal weights mean equal selections.
        table = random_two_axis(np.random.default_rng(seed), bins, n)
        for iterations in sorted({1, 3, min(10, 2 * bins), 2 * bins}):
            expected, measured = reference_mwem_weights(table, PrivacyBudget(eps), iterations, RandomSource(seed))
            stacked = mwem_weights(stack_of([table]), PrivacyBudget(eps), iterations, RandomSource(seed))
            alone = mwem_weights(table, PrivacyBudget(eps), iterations, RandomSource(seed))
            assert stacked.shape == (1, 2 * bins) and alone.shape == (2 * bins,)
            assert np.max(np.abs(stacked[0] - expected)) <= 1e-12
            assert np.array_equal(alone, stacked[0])
            assert len(set(measured)) == iterations

    @pytest.mark.parametrize("kind", ["gaussian", "copula"])
    def test_marginal_ipf_stack_of_one_equals_the_per_table_release(self, kind):
        if kind == "gaussian":
            table = build_table(gaussian_bivariate(300, "signal", RandomSource(33)), [(None, uniform_bins(40, 60, 12))])
        else:
            table = fiveari_table(100, 34)
        budget, rng = PrivacyBudget(1.0), RandomSource(35)
        expected = rng.generator.multinomial(table.total_n, fit_marginal_joint(table, budget, rng).ravel())
        stacked = marginal_ipf(stack_of([table]), budget, RandomSource(35))
        assert stacked.counts.shape == (1, *table.domains)
        assert np.array_equal(stacked.counts[0].ravel(), expected)
        assert np.array_equal(marginal_ipf(table, budget, RandomSource(35)).counts, stacked.counts[0])

    def test_rows_do_not_interact(self):
        # Every draw but the smoothed release has a size fixed by the stack's
        # shape, so each row's release depends on its own table and the stream
        # alone: replacing the other rows leaves it unchanged.
        g = np.random.default_rng(3)
        tables = [random_two_axis(g, 10, n) for n in (1, 5, 50, 500, 5000)]
        others = [random_two_axis(g, 10, n) for n in (7, 70, 700, 7, 70)]
        budget = PrivacyBudget(1.0)
        for row in range(len(tables)):
            mixed = stack_of([t if i == row else o for i, (t, o) in enumerate(zip(tables, others))])
            for release in (
                lambda s: perturbed_histogram(s, budget, RandomSource(4)).counts,
                lambda s: mwem_weights(s, budget, 5, RandomSource(5)),
            ):
                assert np.array_equal(release(mixed)[row], release(stack_of(tables))[row])
        # The smoothed release draws row after row, so its first row is fixed by its table alone.
        first = [smoothed_histogram(stack_of([tables[0], t]), budget, 300, RandomSource(6)).counts[0] for t in others]
        assert all(np.array_equal(counts, first[0]) for counts in first)

    def test_rows_draw_their_own_noise(self):
        # Equal tables in one stack get independent releases, not copies of one draw.
        table = random_two_axis(np.random.default_rng(10), 10, 200)
        stack = stack_of([table] * 10)
        budget = PrivacyBudget(0.5)
        for released in (
            perturbed_histogram(stack, budget, RandomSource(11)).counts,
            smoothed_histogram(stack, budget, 100, RandomSource(12)).counts,
            mwem(stack, budget, 5, RandomSource(13)).counts,
            mwem_weights(stack, budget, 5, RandomSource(14)),
        ):
            assert len({row.tobytes() for row in released}) == 10

    def test_mwem_rows_select_their_own_cells(self):
        # At T = 1 a row's one measured cell is the one whose weight differs from the shared weight.
        stack = stack_of([random_two_axis(np.random.default_rng(15), 10, 200)] * 30)
        weights = mwem_weights(stack, PrivacyBudget(0.01), 1, RandomSource(16))
        selected = set()
        for row in weights:
            values, counts = np.unique(row, return_counts=True)
            (measured,) = np.flatnonzero(row == values[counts == 1])
            selected.add(int(measured))
        assert len(selected) > 5

    def test_rows_release_their_own_tables(self):
        # Tables on disjoint cells, released at a budget so large that no noise or smoothing
        # moves a record: each row stays on its own table's cells.
        spec = uniform_bins(0.0, 4.0, 4)
        tables = [two_axis(counts, spec) for counts in ([[9, 0, 0, 0], [0, 7, 0, 0]], [[0, 0, 5, 0], [0, 0, 0, 8]])]
        stack = stack_of(tables)
        budget = PrivacyBudget(1e9)
        for released in (
            perturbed_histogram(stack, budget, RandomSource(17)).counts,
            smoothed_histogram(stack, budget, 50, RandomSource(18)).counts,
            mwem(stack, budget, 8, RandomSource(19)).counts,
        ):
            for row, table in zip(released, tables):
                assert np.all(row[table.counts == 0] == 0) and row.sum() > 0

    def test_smoothed_probabilities_row_by_row(self):
        g = np.random.default_rng(7)
        rows = g.integers(0, 1000, size=(20, 200)).astype(float)
        stacked = smoothed_probabilities(rows, 0.5, 100)
        for row, probs in zip(rows, stacked):
            assert np.array_equal(probs, smoothed_probabilities(row, 0.5, 100))

    @pytest.mark.parametrize("unmeasured", [0, 1, 190])
    def test_mw_fit_row_by_row(self, unmeasured):
        # Interior, over-full and all-measured rows side by side, each fitted as if alone.
        g = np.random.default_rng(unmeasured)
        t, n = 10, g.integers(1, 2000, size=40)
        targets = g.normal(1.0, 3.0, size=(40, t)) * (n / t)[:, None] * g.uniform(0.2, 2.0, size=(40, 1))
        fitted, w = synth_mod._mw_fit(targets, unmeasured, n)
        assert fitted.shape == (40, t) and w.shape == (40,)
        for row in range(40):
            alone_fitted, alone_w = reference_mw_fit(targets[row].tolist(), unmeasured, int(n[row]))
            assert np.max(np.abs(fitted[row] - alone_fitted)) <= 1e-15
            assert abs(w[row] - alone_w) <= 1e-15

    def test_stack_releases_keep_sizes_and_shape(self):
        g = np.random.default_rng(8)
        stack = stack_of([random_two_axis(g, 10, n) for n in (3, 30, 300)])
        budget = PrivacyBudget(1.0)
        smoothed = smoothed_histogram(stack, budget, 40, RandomSource(9))
        released = mwem(stack, budget, 4, RandomSource(9))
        assert smoothed.counts.shape == released.counts.shape == stack.counts.shape
        assert smoothed.counts.sum(axis=(1, 2)).tolist() == [40, 40, 40]
        assert released.counts.sum(axis=(1, 2)).tolist() == [6, 60, 600]
        assert np.all(perturbed_histogram(stack, PrivacyBudget(0.01), RandomSource(9)).counts >= 0)
