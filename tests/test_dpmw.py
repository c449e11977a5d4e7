"""DP Mann-Whitney baseline: budget split, noiseless limit, null validity."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from dpsynth import dpmw as dpmw_mod
from dpsynth.data import GroupedDataset
from dpsynth.dpmw import DPMWConfig, dp_mann_whitney
from dpsynth.rng import RandomSource
from dpsynth.simgen import gaussian_bivariate
from dpsynth.synth import PrivacyBudget


def tiny_dataset() -> GroupedDataset:
    return GroupedDataset([0, 0, 0, 1, 1, 1], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


class TestConfig:
    def test_requires_positive_delta(self):
        with pytest.raises(ValueError):
            DPMWConfig(PrivacyBudget(1.0, 0.0))

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.5])
    def test_size_fraction_bounds(self, frac):
        with pytest.raises(ValueError):
            DPMWConfig(PrivacyBudget(1.0, 1e-6), size_fraction=frac)

    def test_minimum_null_samples(self):
        with pytest.raises(ValueError):
            DPMWConfig(PrivacyBudget(1.0, 1e-6), null_samples=999)

    @pytest.mark.parametrize("k", [2500.5, 10_000.0, True, "10000", None])
    def test_null_samples_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="null_samples"):
            DPMWConfig(PrivacyBudget(1.0, 1e-6), null_samples=k)

    @pytest.mark.parametrize("frac", ["0.5", True, None, float("nan")])
    def test_size_fraction_must_be_a_number(self, frac):
        with pytest.raises(ValueError, match="size_fraction"):
            DPMWConfig(PrivacyBudget(1.0, 1e-6), size_fraction=frac)

    def test_numpy_scalars_accepted(self):
        cfg = DPMWConfig(PrivacyBudget(1.0, 1e-6), size_fraction=np.float64(0.5), null_samples=np.int64(2000))
        assert cfg.null_samples == 2000


class TestMechanism:
    def test_empty_group_rejected(self):
        data = GroupedDataset([0, 0], [1.0, 2.0])
        with pytest.raises(ValueError):
            dp_mann_whitney(data, DPMWConfig(PrivacyBudget(1.0, 1e-6)), RandomSource(0))

    def test_vanishing_noise_limit(self):
        # eps = 1e6: u_tilde converges to U = 0 and p to the exact two-sided
        # permutation p-value. With groups of 3 from 6 untied ranks there are
        # C(6,3) = 20 splits and only the two extremes reach |U - 4.5| = 4.5,
        # so the exact p is 0.1; the Monte Carlo version adds +-0.03 noise.
        cfg = DPMWConfig(PrivacyBudget(1e6, 1e-6))
        out = dp_mann_whitney(tiny_dataset(), cfg, RandomSource(1))
        assert abs(out.statistic - 0.0) < 0.01
        assert abs(out.p_value - 0.1) < 0.03

    def test_budget_split_is_exact(self, monkeypatch):
        ledgers = []
        original = dpmw_mod.BudgetLedger

        def capture(epsilon):
            ledger = original(epsilon)
            ledgers.append(ledger)
            return ledger

        monkeypatch.setattr(dpmw_mod, "BudgetLedger", capture)
        cfg = DPMWConfig(PrivacyBudget(0.3, 1e-6))
        dp_mann_whitney(tiny_dataset(), cfg, RandomSource(2))
        (ledger,) = ledgers
        assert ledger.spent == 1
        assert ledger.entries[0][1] == Fraction(0.65)
        assert ledger.entries[1][1] == 1 - Fraction(0.65)

    def test_p_value_never_zero(self):
        data = gaussian_bivariate(200, "signal", RandomSource(3))
        cfg = DPMWConfig(PrivacyBudget(100.0, 1e-6), null_samples=1000)
        out = dp_mann_whitney(data, cfg, RandomSource(4))
        assert 0.0 < out.p_value <= 1.0
        assert out.p_value >= 1.0 / 1001.0

    def test_deterministic_given_seed(self):
        data = gaussian_bivariate(100, "null", RandomSource(5))
        cfg = DPMWConfig(PrivacyBudget(1.0, 1e-6), null_samples=1000)
        a = dp_mann_whitney(data, cfg, RandomSource(6))
        b = dp_mann_whitney(data, cfg, RandomSource(6))
        assert a == b

    def test_matches_nonprivate_permutation_test_at_huge_epsilon(self):
        data = gaussian_bivariate(60, "signal", RandomSource(7))
        cfg = DPMWConfig(PrivacyBudget(1e8, 1e-6))
        out = dp_mann_whitney(data, cfg, RandomSource(8))
        # Non-private Monte Carlo permutation oracle with the same statistic.
        g = np.random.default_rng(9)
        u = float(out.statistic)
        n = 60
        mu = 30 * 30 / 2.0
        sums = np.array(
            [g.permutation(np.arange(1, n + 1))[:30].sum() for _ in range(20_000)],
            dtype=float,
        )
        u_null = sums - 30 * 31 / 2.0
        p_oracle = (1 + np.sum(np.abs(u_null - mu) >= abs(u - mu))) / 20_001
        assert abs(out.p_value - p_oracle) < 0.03

    def test_signal_power_at_moderate_budget(self):
        # Signal data one sigma apart at n=1000: the Monte Carlo pilot puts
        # Type II at essentially zero for eps=1, far under the 0.10 bound.
        reps = 200
        root = RandomSource(555)
        cfg = DPMWConfig(PrivacyBudget(1.0, 1e-6), null_samples=2000)
        misses = 0
        for rep in range(reps):
            data = gaussian_bivariate(1000, "signal", root.child(rep, 0))
            out = dp_mann_whitney(data, cfg, root.child(rep, 1))
            misses += out.p_value > 0.05
        assert misses / reps <= 0.10

    def test_null_validity_smoke(self):
        # Small pilot of the acceptance grid: Type I stays near alpha.
        reps = 100
        rejections = 0
        root = RandomSource(10)
        cfg = DPMWConfig(PrivacyBudget(0.5, 1e-6), null_samples=2000)
        for rep in range(reps):
            data = gaussian_bivariate(100, "null", root.child(rep, 0))
            out = dp_mann_whitney(data, cfg, root.child(rep, 1))
            rejections += out.p_value <= 0.05
        assert rejections / reps <= 0.12


class TestSizeBound:
    """The lower bound m_low = floor(m_tilde - t), t = log(1/(2 delta))/eps1,
    exceeds the true size m with probability below delta.

    m_low > m exactly when the group size's discrete Laplace noise K of scale
    1/eps1 reaches ceil(t + 1). The tail of its pmf ((1 - q)/(1 + q)) q^|k|,
    q = e^(-eps1), is summed term by term here, not taken from the closed form.
    """

    @pytest.mark.parametrize("delta", [1e-6, 1e-3])
    @pytest.mark.parametrize("eps1", [*np.geomspace(1e-3, 10.0, 25), 0.0065, 0.065, 0.65, 3.25, 6.5])
    def test_failure_probability_below_delta(self, eps1, delta):
        t = math.log(1 / (2 * delta)) / eps1
        q = math.exp(-eps1)
        k = math.ceil(t + 1) + np.arange(math.ceil(60 / eps1))  # beyond the last term, the tail is below e^(-60)
        tail = math.fsum((1 - q) / (1 + q) * np.exp(-eps1 * k))
        assert tail <= delta
        assert tail <= 2 * delta / (1 + math.exp(eps1)) * (1 + 1e-9)


def exact_rank_sum_pmf(n_total: int, m: int) -> np.ndarray:
    """P(rank sum = s) of a uniform m-subset of 1..n_total, indexed by s.

    Enumerates the subsets when there are few; otherwise counts them with
    the one-rank-at-a-time recurrence over all n_total ranks in float64,
    with no blocks, so it shares nothing with the sampler's decomposition.
    """
    top = n_total * (n_total + 1) // 2
    if math.comb(n_total, m) <= 10_000:
        counts = np.zeros(top + 1)
        for subset in itertools.combinations(range(1, n_total + 1), m):
            counts[sum(subset)] += 1
    else:
        table = np.zeros((m + 1, top + 1))
        table[0, 0] = 1.0
        for rank in range(1, n_total + 1):
            table[1:, rank:] += table[:-1, : top + 1 - rank]
        counts = table[m]
    return counts / counts.sum()


class TestNullSampler:
    @pytest.mark.parametrize("b", [63, 20])
    def test_tables_are_exact_integers(self, b):
        cdf, first, size, _, _ = dpmw_mod._subset_sum_cdf(b)
        assert cdf.dtype == np.uint64
        counts = np.diff(cdf, prepend=np.uint64(0)).reshape(b + 1, -1)
        assert [int(x) for x in counts.sum(axis=1, dtype=np.uint64)] == [math.comb(b, c) for c in range(b + 1)]
        assert [int(x) for x in size] == [math.comb(b, c) for c in range(b + 1)]
        assert int(first[0]) == 0 and int(first[-1] + size[-1]) == 2**b
        assert int(cdf[-1]) == 2**b

    def test_table_matches_enumeration(self):
        b = 10
        cdf, _, _, _, _ = dpmw_mod._subset_sum_cdf(b)
        counts = np.diff(cdf, prepend=np.uint64(0)).reshape(b + 1, -1)
        expected = np.zeros_like(counts)
        for c in range(b + 1):
            for subset in itertools.combinations(range(1, b + 1), c):
                expected[c, sum(subset)] += 1
        assert np.array_equal(counts, expected)

    # N < 63 is one short block; 70 = 63 + 7 and 130 = 2*63 + 4 add a remainder.
    @pytest.mark.parametrize("n_total", [12, 70, 130])
    @pytest.mark.parametrize("half", [False, True])
    def test_matches_exact_pmf(self, n_total, half):
        m = n_total // 2 if half else 1
        k = 100_000
        sums = dpmw_mod._null_rank_sums(n_total, m, k, RandomSource(n_total + m))
        pmf = exact_rank_sum_pmf(n_total, m)
        observed = np.bincount(sums, minlength=pmf.size)
        assert observed.size == pmf.size
        # Pool consecutive sums until each cell expects at least 20 draws.
        obs_cells, exp_cells = [], []
        obs_acc = exp_acc = 0.0
        for o, e in zip(observed, k * pmf):
            obs_acc += o
            exp_acc += e
            if exp_acc >= 20:
                obs_cells.append(obs_acc)
                exp_cells.append(exp_acc)
                obs_acc = exp_acc = 0.0
        obs_cells[-1] += obs_acc
        exp_cells[-1] += exp_acc
        assert len(exp_cells) > 5
        p = scipy.stats.chisquare(obs_cells, exp_cells).pvalue
        assert p > 1e-4

    @pytest.mark.parametrize("m", [137, 10_000])
    def test_wilcoxon_moments_at_large_n(self, m):
        n_total, k = 20_000, 10_000
        sums = dpmw_mod._null_rank_sums(n_total, m, k, RandomSource(m)).astype(float)
        mean = m * (n_total + 1) / 2
        var = m * (n_total - m) * (n_total + 1) / 12
        assert abs(sums.mean() - mean) < 4 * math.sqrt(var / k)
        assert abs(sums.var(ddof=1) - var) < 4 * var * math.sqrt(2 / (k - 1))

    def test_deterministic_given_seed(self):
        a = dpmw_mod._null_rank_sums(1000, 400, 5000, RandomSource(3))
        b = dpmw_mod._null_rank_sums(1000, 400, 5000, RandomSource(3))
        c = dpmw_mod._null_rank_sums(1000, 400, 5000, RandomSource(4))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def reference_null_rank_sums(n_total: int, m_hat: int, k: int, rng: RandomSource) -> np.ndarray:
    """The sampler as it was before the guide table: one binary search of the whole CDF.

    Kept verbatim but for taking the first three of ``_subset_sum_cdf``'s
    arrays, so that the guide-table sampler can be pinned to it draw for draw.
    """
    _BLOCK, _CHUNK_PAIRS = dpmw_mod._BLOCK, dpmw_mod._CHUNK_PAIRS
    n_full, rest = divmod(n_total, _BLOCK)
    sizes = np.array([_BLOCK] * n_full + ([rest] if rest else []), dtype=np.int64)
    starts = np.arange(sizes.size, dtype=np.int64) * _BLOCK
    tables = [(sizes == b, dpmw_mod._subset_sum_cdf(int(b))[:3]) for b in np.unique(sizes)]
    gen = rng.generator
    out = np.empty(k, dtype=np.int64)
    chunk = max(1, _CHUNK_PAIRS // sizes.size)
    for lo in range(0, k, chunk):
        rows = min(chunk, k - lo)
        counts = gen.multivariate_hypergeometric(sizes, m_hat, size=rows, method="marginals")
        sums = counts @ starts
        for cols, (cdf, first, size) in tables:
            c = counts[:, cols]
            u = gen.integers(0, size[c], dtype=np.uint64) + first[c]
            flat = np.searchsorted(cdf, u, side="right")
            sums += (flat - c * (cdf.size // size.size)).sum(axis=1)
        out[lo : lo + rows] = sums
    return out


# (N, m_hat) pairs: one-block, exact-block and remainder-block N, with m_hat
# at 1, 137 where it fits and N // 2.
REFERENCE_CASES = [
    (n, m) for n in (12, 63, 64, 126, 130, 1000, 20_000) for m in sorted({1, 137, n // 2}) if m <= n // 2
]


class TestGuideTable:
    """The guide-table sampler returns exactly what a binary search of the CDF does."""

    @pytest.mark.parametrize("n_total, m", REFERENCE_CASES)
    def test_matches_reference_sampler(self, n_total, m):
        # 4 000 rows at n_total = 20 000 span three chunks of 1 648 rows.
        k = 4_000 if n_total == 20_000 else 5_000
        got = dpmw_mod._null_rank_sums(n_total, m, k, RandomSource(n_total + m))
        want = reference_null_rank_sums(n_total, m, k, RandomSource(n_total + m))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mode", ["null", "signal"])
    def test_dp_mann_whitney_unchanged(self, monkeypatch, seed, mode):
        data = gaussian_bivariate(1000, mode, RandomSource(100 + seed))
        cfg = DPMWConfig(PrivacyBudget(1.0, 1e-6))
        got = dp_mann_whitney(data, cfg, RandomSource(seed))
        monkeypatch.setattr(dpmw_mod, "_null_rank_sums", reference_null_rank_sums)
        want = dp_mann_whitney(data, cfg, RandomSource(seed))
        assert got == want

    @pytest.mark.parametrize("b", range(1, 64))
    def test_lookup_at_every_cdf_boundary(self, b):
        table = dpmw_mod._subset_sum_cdf(b)
        cdf, first, size = table[:3]
        width = cdf.size // size.size
        # Row-local CDF F_c(s), the number of c-subsets with sum at most s;
        # it stays below C(63, 31) < 2**63, so int64 holds it and F_c(s) - 1.
        local = (cdf.reshape(b + 1, width) - first[:, None]).astype(np.int64)
        top = size.astype(np.int64)[:, None]
        r = np.concatenate([np.zeros_like(top), top - 1, local - 1, local], axis=1)
        c = np.broadcast_to(np.arange(b + 1)[:, None], r.shape)
        keep = (r >= 0) & (r < top)
        c, r = c[keep], r[keep].astype(np.uint64)
        want = np.searchsorted(cdf, first[c] + r, side="right")
        assert np.array_equal(dpmw_mod._inverse_cdf(table, c, r), want)
