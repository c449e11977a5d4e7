"""Differentially private Mann-Whitney U test run directly on sensitive data.

The mechanism releases integers with the budget ledger's discrete Laplace
noise: the smaller group size with part of the budget (plus all of delta,
spent on a high-probability lower bound that caps U's sensitivity), and 2U
with the rest. Its two-sided p-value comes from a Monte Carlo null
distribution of equally noised permutation statistics, compared in integer
arithmetic. The total record count is treated as public.

Under the null every m-subset of the untied ranks 1..N is equally likely to
be the smaller group, so a null statistic needs only the rank sum of a
uniform m-subset, not a permuted rank vector. The sampler draws it exactly
in O(N/b) variates. Split 1..N into consecutive blocks of b = 63 ranks (plus
one shorter block when b does not divide N). Of the C(N, m) subsets, those
with c_j ranks in block j number prod_j C(b_j, c_j): the block counts follow
the multivariate hypergeometric law, and given them the subset is a uniform
c_j-subset of each block, independently across blocks. The rank sum of a
block starting after rank o is c*o plus the sum of a uniform c-subset of
1..b, which is drawn by inverse CDF from an exact integer table of
c-subset-sum counts. b = 63 is the largest block for which that table is
exact in uint64: all its counts, stacked over c, sum to 2**63 < 2**64.

The inverse CDF is an indexed search (Chen & Asau, 1974; Devroye 1986,
section III.2.4) rather than a binary search of the whole table. Row c's
uniform key r in [0, C(b, c)) picks guide entry r >> shift[c], the first
CDF position above the bucket's smallest key, and a forward scan finishes
the search. The start is never past the answer and the scan stops at it,
so each block sum equals a binary search's, in integer arithmetic only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from numbers import Integral, Real

import numpy as np

from .data import GroupedDataset, build_table
from .rng import RandomSource, discrete_laplace_sample
from .stattests import TestOutcome, u_statistic
from .synth import BudgetLedger, PrivacyBudget

__all__ = ["DEFAULT_DELTA", "DPMWConfig", "dp_mann_whitney"]

# Ranks per block of the null sampler; see the module docstring for the bound.
_BLOCK = 63
# (row, block) pairs drawn at once: 4 MB per 64-bit array of a chunk.
_CHUNK_PAIRS = 1 << 19
# Each CDF row's guide table has 2**_GUIDE_BITS buckets of equal key width.
_GUIDE_BITS = 12

# The budget's delta when a caller sets none; only the size bound spends it.
DEFAULT_DELTA = 1e-6


@dataclass(frozen=True)
class DPMWConfig:
    """Budget split and null-simulation size for the DP Mann-Whitney test.

    ``size_fraction`` of epsilon estimates the smaller group size; the rest
    privatizes the U statistic. delta is consumed only by the size bound.
    """

    budget: PrivacyBudget
    size_fraction: float = 0.65
    null_samples: int = 10_000

    def __post_init__(self):
        if not self.budget.delta > 0:
            raise ValueError("the DP Mann-Whitney test requires delta > 0")
        frac, k = self.size_fraction, self.null_samples
        if isinstance(frac, bool) or not isinstance(frac, Real) or not 0.0 < frac < 1.0:
            raise ValueError(f"size_fraction must be a number in (0, 1), got {frac!r}")
        if isinstance(k, bool) or not isinstance(k, Integral) or k < 1000:
            raise ValueError(f"null_samples must be an integer of at least 1000, got {k!r}")


@lru_cache(maxsize=2)
def _subset_sum_cdf(b: int) -> tuple[np.ndarray, ...]:
    """Exact inverse-CDF table of the sum of a uniform c-subset of 1..b.

    Row c of the count table holds, at column s, the number of c-subsets
    of 1..b that sum to s, for s in 0..b(b+1)/2; row c sums to C(b, c).
    Returns ``(cdf, first, size, shift, guide)``: the running total of the
    rows laid end to end, ``first[c]`` the total before row c and
    ``size[c] = C(b, c)``. A uniform integer in ``[first[c], first[c] +
    size[c])`` then falls in row c at column s with probability
    count/C(b, c). Everything is exact in uint64 while b <= 63, since the
    grand total is 2**b. ``guide[c, g]`` is the first position whose CDF
    exceeds ``first[c] + (g << shift[c])``, and ``size[c] >> shift[c]`` is
    below ``2**_GUIDE_BITS``.
    """
    width = b * (b + 1) // 2 + 1
    counts = np.zeros((b + 1, width), dtype=np.uint64)
    counts[0, 0] = 1
    for rank in range(1, b + 1):
        # Subsets that take `rank`: one more element, sum shifted by rank.
        # The ufunc reads the right side as it was before the update.
        counts[1:, rank:] += counts[:-1, : width - rank]
    cdf = np.cumsum(counts, axis=None, dtype=np.uint64)
    size = counts.sum(axis=1, dtype=np.uint64)
    first = cdf[width - 1 :: width] - size
    shift = np.array(
        [max(0, math.comb(b, c).bit_length() - _GUIDE_BITS) for c in range(b + 1)], dtype=np.uint64
    )
    buckets = np.arange(1 << _GUIDE_BITS, dtype=np.uint64)
    # int32 holds every position (b = 63 has 129 088) in half the memory.
    guide = np.searchsorted(cdf, first[:, None] + (buckets << shift[:, None]), side="right")
    guide = guide.astype(np.int32)
    for shared in (cdf, first, size, shift, guide):
        shared.flags.writeable = False  # every caller gets the cached arrays
    return cdf, first, size, shift, guide


def _inverse_cdf(table: tuple[np.ndarray, ...], c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, first[c] + r, "right")``, by guide table and forward scan.

    Exact for every key (see the module docstring). Uses ``r`` as scratch.
    """
    cdf, first, _, shift, guide = table
    key = shift[c]
    np.right_shift(r, key, out=key)
    pos = guide[c, key]
    del key
    r += first[c]
    todo = np.flatnonzero(cdf[pos] <= r)
    while todo.size:
        pos[todo] += 1
        todo = todo[cdf[pos[todo]] <= r[todo]]
    return pos


def _null_rank_sums(n_total: int, m_hat: int, k: int, rng: RandomSource) -> np.ndarray:
    """Rank sums of k uniform m_hat-subsets of the ranks 1..n_total.

    Exact in distribution (see the module docstring): per-block counts from
    one multivariate hypergeometric draw per row, then each block's local
    sum by inverse CDF from ``_subset_sum_cdf``, for every (row, block)
    pair at once by ``_inverse_cdf``: a guide-table start that is never past
    the answer, then a forward scan that stops on it. Rows are drawn in
    chunks of about ``_CHUNK_PAIRS`` pairs to bound memory.
    """
    n_full, rest = divmod(n_total, _BLOCK)
    sizes = np.array([_BLOCK] * n_full + ([rest] if rest else []), dtype=np.int64)
    starts = np.arange(sizes.size, dtype=np.int64) * _BLOCK
    # The distinct sizes in increasing order; not ``np.unique``, whose first call imports numpy.ma.
    tables = [(sizes == b, _subset_sum_cdf(b)) for b in sorted(set(sizes.tolist()))]
    gen = rng.generator
    out = np.empty(k, dtype=np.int64)
    chunk = max(1, _CHUNK_PAIRS // sizes.size)
    for lo in range(0, k, chunk):
        rows = min(chunk, k - lo)
        counts = gen.multivariate_hypergeometric(sizes, m_hat, size=rows, method="marginals")
        sums = counts @ starts
        for cols, table in tables:
            cdf, _, size = table[:3]
            c = counts.compress(cols, axis=1).reshape(-1).astype(np.int32)  # half the int64 bytes
            pos = _inverse_cdf(table, c, gen.integers(0, size[c], dtype=np.uint64))
            c *= cdf.size // size.size
            pos -= c
            sums += pos.reshape(rows, -1).sum(axis=1)
        out[lo : lo + rows] = sums
    return out


def dp_mann_whitney(data: GroupedDataset, cfg: DPMWConfig, rng: RandomSource) -> TestOutcome:
    """(epsilon, delta)-DP two-sided Mann-Whitney U test on the original data.

    The smaller group size m gets noise K of scale 1/eps1 (sensitivity 1). The
    bound m_low = floor(m + K - t), t = log(1/(2 delta))/eps1, caps U's
    sensitivity at Delta = N - max(1, m_low), and 2U gets noise of scale
    2 Delta/eps2. With q = e^(-eps1), P(m_low > m) = P(K >= ceil(t + 1)) =
    q^ceil(t + 1)/(1 + q) <= 2 delta q/(1 + q) = 2 delta/(1 + e^eps1) < delta.
    The p-value compares |2U~ - m_hat(N - m_hat)| with ``null_samples``
    statistics 2 rank_sum - m_hat(m_hat + 1), ranks split (m_hat, N - m_hat),
    re-noised at the 2U entry's scale; the statistic returned is 2U~/2.
    """
    counts = build_table(data, [(None, None)]).counts
    two_u = int(2 * u_statistic(counts))  # raises unless both groups are non-empty
    n_total = int(counts.sum())
    ledger = BudgetLedger(cfg.budget.epsilon)
    size_frac = Fraction(cfg.size_fraction)
    m_tilde = int(counts.sum(axis=1).min()) + int(ledger.noise(size_frac, 1, "group size", rng))
    eps1 = ledger.entries[0].epsilon
    m_low = math.floor(m_tilde - math.log(1.0 / (2.0 * cfg.budget.delta)) / eps1)
    m_hat = min(max(m_tilde, 1), n_total // 2)
    sensitivity = n_total - max(1, m_low)
    two_u_tilde = two_u + int(ledger.noise(1 - size_frac, 2 * sensitivity, "u statistic", rng))
    ledger.close()

    # Null distribution: untied ranks split into groups of sizes (m_hat, rest).
    k = cfg.null_samples
    two_u_null = 2 * _null_rank_sums(n_total, m_hat, k, rng) - m_hat * (m_hat + 1)
    two_u_null += discrete_laplace_sample(ledger.entries[1].scale, rng, k)
    two_mu = m_hat * (n_total - m_hat)
    exceed = int(np.count_nonzero(np.abs(two_u_null - two_mu) >= abs(two_u_tilde - two_mu)))
    p = (1 + exceed) / (k + 1)
    return TestOutcome(two_u_tilde / 2, p, True)
