"""Differentially private synthetic-data generators over histograms and marginals.

Four mechanisms are provided:

* ``perturbed_histogram`` - discrete Laplace noise on every cell count,
  negatives clamped to zero.
* ``smoothed_histogram`` - draws exactly ``m`` records from cell
  probabilities proportional to ``count + alpha``, with
  ``alpha = 1/(exp(epsilon/m) - 1)``.
* ``mwem`` - cell-count queries selected by the exponential mechanism and
  measured with Laplace noise; after each one the distribution is refitted
  to all the measurements in closed form.
* ``marginal_ipf`` - noisy one-way/two-way marginal release reconciled into
  a joint distribution by iterative proportional fitting.

Every mechanism reads a :class:`~dpsynth.data.CountTable` and releases
synthetic counts over the same cells, a table of the same axes and levels
(:func:`dpsynth.data.samples_from_counts` expands it into records). The
histogram mechanisms run on the (group, binned value) table; ``marginal_ipf``
runs on a table of any number of axes.

Every mechanism accounts for its privacy budget through a
:class:`BudgetLedger`; a run that would not consume exactly the configured
epsilon fails loudly rather than silently over- or under-spending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

import numpy as np

from .data import CountTable
from .rng import RandomSource, categorical_sample, discrete_laplace_sample, laplace_sample

__all__ = [
    "PrivacyBudget",
    "BudgetLedger",
    "perturbed_histogram",
    "smoothed_histogram",
    "smoothed_probabilities",
    "mwem",
    "mwem_weights",
    "fit_marginal_joint",
    "marginal_ipf",
    "all_low_order_marginals",
    "SYNTHESIZERS",
]


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) pair; the synthesizers here are pure epsilon-DP."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")


class BudgetLedger:
    """Tracks mechanism invocations as exact fractions of the total epsilon."""

    def __init__(self, epsilon: float):
        self.epsilon = epsilon
        self.spent = Fraction(0)
        self.entries: list[tuple[str, Fraction]] = []

    def spend(self, fraction: Fraction, what: str) -> float:
        """Record spending ``fraction`` of the budget; returns it in epsilon units."""
        if fraction <= 0:
            raise ValueError("budget fractions must be positive")
        self.spent += fraction
        self.entries.append((what, fraction))
        return float(fraction) * self.epsilon

    def close(self) -> None:
        if self.spent != 1:
            raise AssertionError(
                f"mechanism consumed {self.spent} of its budget instead of all of it: {self.entries}"
            )


def _draw_counts(table: CountTable, probs: np.ndarray, size: int, rng: RandomSource) -> CountTable:
    """The table's cells counted over ``size`` draws from the flat cell probabilities ``probs``."""
    cells = categorical_sample(probs, rng, size=size)
    return replace(table, counts=np.bincount(cells, minlength=probs.size).reshape(table.domains))


def perturbed_histogram(table: CountTable, budget: PrivacyBudget, rng: RandomSource) -> CountTable:
    """Discrete Laplace(2/epsilon) noise per cell, negatives set to zero.

    The clamped noisy counts are released directly, so the synthetic size is
    similar to (not exactly) the original.
    """
    ledger = BudgetLedger(budget.epsilon)
    scale = 2.0 / ledger.spend(Fraction(1), "histogram release")
    noise = discrete_laplace_sample(scale, rng, size=table.domains)
    ledger.close()
    return replace(table, counts=np.maximum(table.counts + noise, 0))


def smoothed_probabilities(counts, epsilon: float, m: int) -> np.ndarray:
    """Cell probabilities proportional to ``count + alpha``, ``alpha = 1/(exp(epsilon/m) - 1)``.

    Neighbouring datasets differ by replacing one record, so the total n is
    fixed and one record moves between two cells. A single draw's probability
    then changes by at most a factor ``(c + 1 + alpha)/(c + alpha) <= 1 + 1/alpha``,
    reached when a cell goes from 0 to 1. Over m independent draws the privacy
    loss is at most ``m*log(1 + 1/alpha)``, which this alpha makes exactly
    epsilon (Wasserman & Zhou, JASA 2010). alpha is computed as
    ``exp(-x)/-expm1(-x)`` with ``x = epsilon/m`` so that it falls smoothly to
    0 for large x instead of overflowing.
    """
    c = np.asarray(counts, dtype=float)
    x = epsilon / m
    alpha = math.exp(-x) / -math.expm1(-x)
    weights = c + alpha
    return weights / weights.sum()


def smoothed_histogram(table: CountTable, budget: PrivacyBudget, m: int, rng: RandomSource) -> CountTable:
    """Counts of exactly ``m`` draws from the additively smoothed cell distribution.

    Smoothing is applied over the joint group-by-bin cells so that group
    membership is protected along with the values. Under replace-one
    neighbours the additive constant ``alpha = 1/(exp(epsilon/m) - 1)`` of
    :func:`smoothed_probabilities` makes the m draws jointly epsilon-DP, with
    privacy loss ``m*log(1 + 1/alpha) = epsilon``: the whole budget is spent.
    """
    if not isinstance(m, (int, np.integer)) or m <= 0:
        raise ValueError(f"m must be a positive integer, got {m}")
    ledger = BudgetLedger(budget.epsilon)
    ledger.spend(Fraction(1), f"{m} smoothed draws")
    ledger.close()
    return _draw_counts(table, smoothed_probabilities(table.counts.ravel(), budget.epsilon, int(m)), int(m), rng)


def _mw_fit(targets: list[float], unmeasured: int, n: int) -> tuple[np.ndarray, float]:
    """MWEM's fit to the noisy counts ``targets`` (stated in :func:`mwem_weights`).

    Returns the measured cells' weights, in the order of ``targets``, and
    the weight ``w`` shared by each of the ``unmeasured`` other cells.
    """
    r = np.asarray(targets) / n
    a = np.maximum(r, 0.0)
    if unmeasured and a.sum() <= 1.0:
        return a, (1.0 - a.sum()) / unmeasured
    # Euclidean projection of r onto the simplex (Duchi et al., ICML 2008):
    # a = max(r - c, 0) with the water level c that makes the weights sum to 1.
    top = np.sort(r)[::-1]
    excess = np.cumsum(top) - 1.0
    k = np.nonzero(top * np.arange(1, r.size + 1) > excess)[0][-1]
    return np.maximum(r - excess[k] / (k + 1), 0.0), 0.0


def mwem_weights(table: CountTable, budget: PrivacyBudget, iterations: int, rng: RandomSource) -> np.ndarray:
    """Multiplicative Weights Exponential Mechanism over the table's cell counts.

    Each of the T iterations spends epsilon/(2T) selecting the worst
    unmeasured cell-count query (exponential mechanism, sensitivity 1,
    score |true - approximated|) and epsilon/(2T) measuring it with
    Laplace(2T/epsilon) noise, then refits the distribution to every
    measurement so far. Queries are selected without replacement. Returns
    the fitted cell distribution (flattened); consumes the whole budget, so
    sampling from it is post-processing.

    The fit is the exact minimiser of the squared error that MWEM's
    multiplicative-weights updates descend from the uniform start: the
    distribution ``a`` that minimises ``1/4 * sum_j (r_j - a_j)**2`` over the
    t measured cells, ``r_j`` being a noisy count over n, and whose B - t
    unmeasured cells share one weight ``w``.

    * If some cell is unmeasured and ``sum_j max(r_j, 0) <= 1``, then
      ``a_j = max(r_j, 0)`` and ``w = (1 - sum_j a_j)/(B - t)``.
    * Otherwise (the targets are over-full, or every cell is measured)
      ``w = 0`` and ``a_j = max(r_j - c, 0)``, where the level ``c`` makes the
      weights sum to 1: the Euclidean projection onto the simplex.

    It depends only on the noisy targets, so the state is the measured
    cells, their targets and ``w``; the selection keys only unmeasured
    cells, whose approximated count is ``n * w``, and the full vector is
    built once for the return value.
    """
    cells = table.counts.size
    if not isinstance(iterations, (int, np.integer)) or iterations < 1:
        raise ValueError(f"iterations must be a positive integer, got {iterations}")
    if iterations > cells:
        raise ValueError(f"iterations ({iterations}) cannot exceed the {cells} cell queries")
    t_total = int(iterations)
    n = table.total_n
    if n < 1:
        raise ValueError("MWEM needs a table with at least one record")
    true_counts = table.counts.ravel().astype(float)
    ledger = BudgetLedger(budget.epsilon)
    measured: list[int] = []
    targets: list[float] = []
    w = 1.0 / cells
    unmeasured = np.ones(cells, dtype=bool)
    for t in range(t_total):
        eps_select = ledger.spend(Fraction(1, 2 * t_total), f"selection {t + 1}")
        # Gumbel-max draw == exponential mechanism with sensitivity 1, and it
        # cannot overflow for large scores the way exp-normalization can.
        gumbel = rng.generator.gumbel(size=cells)
        keyed = np.where(unmeasured, eps_select * np.abs(true_counts - n * w) / 2.0 + gumbel, -np.inf)
        query = int(np.argmax(keyed))
        unmeasured[query] = False
        eps_measure = ledger.spend(Fraction(1, 2 * t_total), f"measurement {t + 1}")
        measured.append(query)
        targets.append(float(true_counts[query] + laplace_sample(1.0 / eps_measure, rng)))
        fitted, w = _mw_fit(targets, cells - len(measured), n)
    ledger.close()
    a = np.full(cells, w)
    a[measured] = fitted
    return a


def mwem(table: CountTable, budget: PrivacyBudget, iterations: int, rng: RandomSource) -> CountTable:
    """Counts of ``total_n`` draws from the MWEM-fitted cell distribution."""
    return _draw_counts(table, mwem_weights(table, budget, iterations, rng), table.total_n, rng)


def all_low_order_marginals(n_variables: int) -> tuple[tuple[int, ...], ...]:
    """Every one-way and two-way marginal, by variable index."""
    singles = [(j,) for j in range(n_variables)]
    pairs = [tuple(p) for p in combinations(range(n_variables), 2)]
    return tuple(singles + pairs)


def _expand(arr: np.ndarray, axes: tuple[int, ...], ndim: int) -> np.ndarray:
    shape = [1] * ndim
    for k, j in enumerate(axes):
        shape[j] = arr.shape[k]
    return arr.reshape(shape)


def fit_marginal_joint(
    table: CountTable,
    budget: PrivacyBudget,
    rng: RandomSource,
    marginals: tuple[tuple[int, ...], ...] | None = None,
    max_sweeps: int = 500,
) -> np.ndarray:
    """DP marginal release plus IPF reconstruction of the joint distribution.

    Each selected marginal receives Laplace(2k/epsilon) noise (k marginals,
    budget split evenly), is clamped at zero and renormalized; iterative
    proportional fitting from a uniform start then produces a joint
    distribution matching the noisy targets. Consumes the whole budget;
    anything derived from the returned joint is post-processing.
    """
    ndim = len(table.variables)
    if marginals is None:
        marginals = all_low_order_marginals(ndim)
    if not marginals:
        raise ValueError("at least one marginal is required")
    seen: set[tuple[int, ...]] = set()
    covered: set[int] = set()
    for axes in marginals:
        if not axes or len(set(axes)) != len(axes) or any(not 0 <= j < ndim for j in axes):
            raise ValueError(f"invalid marginal {axes!r}")
        if tuple(axes) != tuple(sorted(axes)):
            raise ValueError(f"marginal axes must be sorted, got {axes!r}")
        if tuple(axes) in seen:
            raise ValueError(f"duplicate marginal {axes!r}")
        seen.add(tuple(axes))
        covered.update(axes)
    if covered != set(range(ndim)):
        raise ValueError("every variable must appear in at least one marginal")

    k = len(marginals)
    ledger = BudgetLedger(budget.epsilon)
    targets = []
    for axes in marginals:
        eps_share = ledger.spend(Fraction(1, k), f"marginal {axes}")
        counts = table.counts.sum(axis=tuple(j for j in range(ndim) if j not in axes))
        noisy = np.maximum(counts + laplace_sample(2.0 / eps_share, rng, size=counts.shape), 0.0)
        total = noisy.sum()
        # A fully clamped marginal carries no information; fall back to uniform.
        target = noisy / total if total > 0 else np.full(counts.shape, 1.0 / counts.size)
        # Keep targets strictly positive (tiny uniform mixture): clamped-to-zero
        # cells in different marginals are often mutually contradictory at small
        # epsilon, and exact zeros would annihilate the multiplicative fit.
        targets.append((1.0 - 1e-8) * target + 1e-8 / target.size)
    ledger.close()

    joint = np.full(table.domains, 1.0 / float(np.prod(table.domains)))
    for _ in range(max_sweeps):
        worst = 0.0
        for axes, target in zip(marginals, targets):
            other = tuple(j for j in range(ndim) if j not in axes)
            current = joint.sum(axis=other)
            worst = max(worst, float(np.max(np.abs(current - target))))
            ratio = np.divide(target, current, out=np.ones_like(target), where=current > 0)
            joint = joint * _expand(ratio, axes, ndim)
        mass = joint.sum()
        if mass <= 0:
            # Contradictory clamped-to-zero targets can annihilate the joint
            # at very small epsilon; restart from uniform and stop fitting.
            joint = np.full(table.domains, 1.0 / float(np.prod(table.domains)))
            break
        joint /= mass
        if worst <= 1e-8:
            break
    return joint


def marginal_ipf(table: CountTable, budget: PrivacyBudget, rng: RandomSource) -> CountTable:
    """Counts of ``total_n`` draws from the IPF-fitted noisy-marginal joint."""
    return _draw_counts(table, fit_marginal_joint(table, budget, rng).ravel(), table.total_n, rng)


# The synthesizers by name; each call takes a table, a budget and a random
# source, and picks the keyword options it uses: ``m``, the smoothed
# histogram's synthetic size, and ``iterations``, MWEM's rounds.
SYNTHESIZERS = {
    "perturbed": lambda table, budget, rng, **_: perturbed_histogram(table, budget, rng),
    "smoothed": lambda table, budget, rng, m, **_: smoothed_histogram(table, budget, m, rng),
    "mwem": lambda table, budget, rng, iterations, **_: mwem(table, budget, iterations, rng),
    "marginal_ipf": lambda table, budget, rng, **_: marginal_ipf(table, budget, rng),
}

