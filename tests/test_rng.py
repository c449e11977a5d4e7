"""Sampler distribution checks against closed forms and scipy oracles."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from dpsynth import synth as synth_mod
from dpsynth.data import CountTable
from dpsynth.rng import RandomSource, discrete_laplace_sample
from dpsynth.synth import PrivacyBudget, fit_marginal_joint, marginal_ipf

N_BIG = 1_000_000


class TestRandomSource:
    def test_same_seed_bit_identical(self):
        a = discrete_laplace_sample(1.0, RandomSource(123), size=1000)
        b = discrete_laplace_sample(1.0, RandomSource(123), size=1000)
        assert np.array_equal(a, b)

    def test_child_streams_reproducible_and_independent(self):
        root = RandomSource(9)
        child_first = root.child(4).generator.random(100)
        # Consuming the parent must not change what the child produces.
        root.generator.random(1000)
        assert np.array_equal(root.child(4).generator.random(100), child_first)
        other = RandomSource(9).child(5).generator.random(100)
        assert not np.array_equal(child_first, other)

    def test_nested_paths(self):
        assert RandomSource(1).child(2, 3).path == (2, 3)
        assert RandomSource(1).child(2).child(3).path == (2, 3)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "x"])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(ValueError):
            RandomSource(seed)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**31))
    def test_child_determinism_property(self, seed, index):
        a = RandomSource(seed).child(index).generator.random(4)
        b = RandomSource(seed).child(index).generator.random(4)
        assert np.array_equal(a, b)


class TestDiscreteLaplace:
    def test_mean_is_zero(self):
        draws = discrete_laplace_sample(20.0, RandomSource(3), size=N_BIG)
        assert abs(draws.mean()) < 0.15

    def test_point_mass_at_zero(self):
        # (e^(1/20) - 1)/(e^(1/20) + 1) = 0.0249948 from the pmf.
        draws = discrete_laplace_sample(20.0, RandomSource(4), size=N_BIG)
        assert abs((draws == 0).mean() - 0.0249948) < 0.002

    @pytest.mark.parametrize("scale", [0.0, -2.0])
    def test_nonpositive_scale_rejected(self, scale):
        with pytest.raises(ValueError):
            discrete_laplace_sample(scale, RandomSource(0), size=10)

    def test_chi2_goodness_of_fit(self):
        b = 3.0
        draws = discrete_laplace_sample(b, RandomSource(6), size=N_BIG)
        support = np.arange(-25, 26)
        pmf = (np.exp(1 / b) - 1) / (np.exp(1 / b) + 1) * np.exp(-np.abs(support) / b)
        observed = np.array([(draws == k).sum() for k in support], dtype=float)
        # Pool everything beyond the tabulated support into two tail cells.
        observed = np.concatenate([[np.sum(draws < -25)], observed, [np.sum(draws > 25)]])
        tail = (1.0 - pmf.sum()) / 2.0
        expected = np.concatenate([[tail], pmf, [tail]]) * N_BIG
        stat = ((observed - expected) ** 2 / expected).sum()
        p = scipy.stats.chi2.sf(stat, df=len(expected) - 1)
        assert p > 0.01

    def test_tiny_scale_always_zero(self):
        draws = discrete_laplace_sample(2e-6, RandomSource(7), size=10_000)
        assert np.all(draws == 0)

    def test_variance_at_dp_mann_whitney_scale(self):
        # Scale 1e7 is about DP-MW's 2U noise at epsilon 0.01 with N = 20 000.
        # The variance is 2q/(1 - q)^2 with q = e^(-1/b); the sample variance
        # of a Laplace-shaped law has relative standard error sqrt(5/n).
        b = 1e7
        draws = discrete_laplace_sample(b, RandomSource(8), size=N_BIG)
        q = np.exp(-1 / b)
        variance = 2 * q / np.expm1(-1 / b) ** 2
        assert draws.dtype == np.int64
        assert abs(draws.astype(float).var() / variance - 1) < 5 * np.sqrt(5 / N_BIG)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 3.5, 1e7])
    def test_scalar_draw_is_the_first_of_size_one(self, scale):
        one = discrete_laplace_sample(scale, RandomSource(9))
        assert type(one) is np.int64
        assert one == discrete_laplace_sample(scale, RandomSource(9), size=1)[0]


def one_axis(counts) -> CountTable:
    return CountTable(("value",), (np.arange(len(counts), dtype=float),), counts)


class TestCategorical:
    """Released records are counted by one multinomial draw over the cells:
    ``marginal_ipf`` draws its ``total_n`` records from the fitted joint."""

    @staticmethod
    def release(monkeypatch, joint, n, seed):
        table = one_axis([n] + [0] * (len(joint) - 1))
        monkeypatch.setattr(synth_mod, "fit_marginal_joint", lambda *args: np.asarray(joint, dtype=float))
        counts = marginal_ipf(table, PrivacyBudget(1.0), RandomSource(seed)).counts
        assert counts.sum() == n
        return counts

    def test_degenerate_weight_always_selected(self, monkeypatch):
        assert self.release(monkeypatch, [1.0, 0.0, 0.0], 1000, 9).tolist() == [1000, 0, 0]

    def test_even_weights(self, monkeypatch):
        assert abs(self.release(monkeypatch, [0.5, 0.5], 100_000, 10)[0] / 100_000 - 0.5) < 0.01

    def test_normalization(self, monkeypatch):
        assert abs(self.release(monkeypatch, [0.75, 0.25], 100_000, 11)[0] / 100_000 - 0.75) < 0.01

    def test_zero_weight_cells_never_drawn(self, monkeypatch):
        assert self.release(monkeypatch, [1 / 3, 0.0, 2 / 3], 50_000, 12)[1] == 0

    def test_release_fits_the_joint(self):
        # The release draws after the fit on the same stream, so a fit on a fresh
        # copy of that stream reproduces the joint it draws from.
        table = one_axis([30_000, 25_000, 20_000, 15_000, 10_000])
        joint = fit_marginal_joint(table, PrivacyBudget(1.0), RandomSource(13))
        counts = marginal_ipf(table, PrivacyBudget(1.0), RandomSource(13)).counts
        assert counts.sum() == table.total_n
        assert scipy.stats.chisquare(counts, table.total_n * joint).pvalue > 1e-3
