"""Differentially private synthetic-data generators over histograms and marginals.

Four mechanisms are provided:

* ``perturbed_histogram`` - discrete Laplace noise on every cell count,
  negatives clamped to zero.
* ``smoothed_histogram`` - draws exactly ``m`` records from cell
  probabilities proportional to ``count + alpha``, with
  ``alpha = 1/(exp(epsilon/m) - 1)``.
* ``mwem`` - cell-count queries selected by the exponential mechanism and
  measured with discrete Laplace noise; after each one the distribution is
  refitted to all the measurements in closed form.
* ``marginal_ipf`` - noisy one-way/two-way marginal release reconciled into
  a joint distribution: the joint whose marginals are the least-squares fit
  of the noisy ones over the reachable marginals (Private-PGM's estimate),
  found exactly by Wolfe's min-norm-point algorithm. The joint is not the
  maximum-entropy one with those marginals; no report's law depends on
  which joint it is, as a report reads a release only through its (group,
  tested variable) marginal, which is one of the measured ones.

Every mechanism reads a :class:`~dpsynth.data.CountTable` and releases
synthetic counts over the same cells, a table of the same axes and levels
(:func:`dpsynth.data.samples_from_counts` expands it into records). The
histogram mechanisms run on the (group, binned value) table; ``marginal_ipf``
runs on a table of any number of axes. Every mechanism also takes a stack
of tables, one per repetition, and releases a stack: each table of it
independently, from one stream, in one call. One table is the case of a
stack of one; it draws the same values, without the stack axis.

Every mechanism accounts for its privacy budget through a
:class:`BudgetLedger`, which also draws its noise at scale sensitivity/(share
* epsilon) from the query's stated L1 sensitivity under replace-one
neighbours; a run that would not consume exactly the configured epsilon
fails loudly rather than silently over- or under-spending. Each noisy query is an
integer count, so its discrete Laplace noise is eps-DP (the geometric mechanism).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .data import CountTable
from .rng import RandomSource, discrete_laplace_sample

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


class LedgerEntry(NamedTuple):
    """One booking; ``sensitivity`` and ``scale`` are its noise's, None if it drew none."""

    what: str
    fraction: Fraction
    epsilon: float
    sensitivity: float | None = None
    scale: float | None = None


class BudgetLedger:
    """Books each step's share of the total epsilon as an exact fraction, and issues its noise.

    :meth:`noise` and :meth:`select` are the only code that turns a share into a noise scale.
    """

    def __init__(self, epsilon: float):
        self.epsilon = epsilon
        self.spent = Fraction(0)
        self.entries: list[LedgerEntry] = []

    def spend(self, fraction: Fraction, what: str, sensitivity: float | None = None, spread: float = 1.0) -> float:
        """Book ``fraction``; returns it in epsilon units, eps; a noisy entry's scale is spread * sensitivity / eps."""
        if fraction <= 0:
            raise ValueError("budget fractions must be positive")
        eps = float(fraction) * self.epsilon
        scale = None if sensitivity is None else spread * sensitivity / eps
        self.spent += fraction
        self.entries.append(LedgerEntry(what, fraction, eps, sensitivity, scale))
        return eps

    def noise(self, fraction: Fraction, sensitivity: float, what: str, rng: RandomSource, size=None):
        """Book ``fraction`` and return integer discrete Laplace noise at scale sensitivity/(fraction * epsilon)."""
        self.spend(fraction, what, sensitivity)
        return discrete_laplace_sample(self.entries[-1].scale, rng, size)

    def select(self, fraction: Fraction, sensitivity: float, score, allowed, what: str, rng: RandomSource):
        """Exponential mechanism by Gumbel-max: the argmax over ``score``'s last axis, among ``allowed``, of
        ``eps * score / (2 * sensitivity)`` plus Gumbel noise (scale ``2 * sensitivity / eps`` on the score)."""
        eps = self.spend(fraction, what, sensitivity, spread=2.0)
        gumbel = rng.generator.gumbel(size=score.shape)
        return np.argmax(np.where(allowed, eps * score / (2.0 * sensitivity) + gumbel, -np.inf), axis=-1)

    def close(self) -> None:
        if self.spent != 1:
            raise AssertionError(f"mechanism consumed {self.spent} of its budget instead of all of it: {self.entries}")


def _rows(table: CountTable) -> np.ndarray:
    """The table's counts as one row of flat cells per table of a stack (one row for one table)."""
    return table.counts.reshape(-1, math.prod(table.domains))


def perturbed_histogram(table: CountTable, budget: PrivacyBudget, rng: RandomSource) -> CountTable:
    """Discrete Laplace(2/epsilon) noise per cell, negatives set to zero.

    It passes the ledger sensitivity 2: a replaced record moves between two cells.
    The clamped noisy counts are released directly, so the synthetic size is
    similar to (not exactly) the original.
    """
    ledger = BudgetLedger(budget.epsilon)
    noise = ledger.noise(Fraction(1), 2, "histogram release", rng, table.counts.shape)
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
    0 for large x instead of overflowing. Rows of a 2-d ``counts`` are
    normalised each on its own.
    """
    c = np.asarray(counts, dtype=float)
    x = epsilon / m
    alpha = math.exp(-x) / -math.expm1(-x)
    weights = c + alpha
    return weights / weights.sum(axis=-1, keepdims=True)


def smoothed_histogram(table: CountTable, budget: PrivacyBudget, m: int, rng: RandomSource) -> CountTable:
    """Counts of exactly ``m`` draws from the additively smoothed cell distribution.

    Smoothing is applied over the joint group-by-bin cells so that group
    membership is protected along with the values. Under replace-one
    neighbours the additive constant ``alpha = 1/(exp(epsilon/m) - 1)`` of
    :func:`smoothed_probabilities` makes the m draws jointly epsilon-DP, with
    privacy loss ``m*log(1 + 1/alpha) = epsilon``: the whole budget is spent.
    alpha uses the epsilon of its one noiseless ledger entry. The counts of
    the m draws are one Multinomial(m, probabilities) draw per table.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m <= 0:
        raise ValueError(f"m must be a positive integer, got {m}")
    ledger = BudgetLedger(budget.epsilon)
    eps = ledger.spend(Fraction(1), f"{m} smoothed draws")
    ledger.close()
    counts = rng.generator.multinomial(int(m), smoothed_probabilities(_rows(table), eps, int(m)))
    return replace(table, counts=counts.reshape(table.counts.shape))


def _mw_fit(targets, unmeasured: int, n) -> tuple[np.ndarray, np.ndarray]:
    """MWEM's fit to the noisy counts ``targets`` (stated in :func:`mwem_weights`).

    ``targets`` holds one table's t targets, or one row of them per table
    of a stack, each row fitted on its own with its record count in ``n``.
    Returns the measured cells' weights, in the order of ``targets``, and
    the weight ``w`` (one per row) shared by each of the ``unmeasured``
    other cells.
    """
    r = np.asarray(targets) / np.asarray(n)[..., None]
    a = np.maximum(r, 0.0)
    total = a.sum(axis=-1)
    interior = (total <= 1.0) & (unmeasured > 0)
    # Euclidean projection of r onto the simplex (Duchi et al., ICML 2008):
    # a = max(r - c, 0) with the water level c that makes the weights sum to 1.
    top = np.flip(np.sort(r, axis=-1), axis=-1)
    excess = np.cumsum(top, axis=-1) - 1.0
    above = top * np.arange(1, r.shape[-1] + 1) > excess
    k = r.shape[-1] - 1 - np.argmax(np.flip(above, axis=-1), axis=-1)[..., None]
    projected = np.maximum(r - np.take_along_axis(excess, k, axis=-1) / (k + 1), 0.0)
    shared = (1.0 - total) / unmeasured if unmeasured else np.zeros_like(total)
    return np.where(interior[..., None], a, projected), np.where(interior, shared, 0.0)


def mwem_weights(table: CountTable, budget: PrivacyBudget, iterations: int, rng: RandomSource) -> np.ndarray:
    """Multiplicative Weights Exponential Mechanism over the table's cell counts.

    Each of the T iterations spends epsilon/(2T) selecting the worst
    unmeasured cell-count query (exponential mechanism, score |true -
    approximated|, Gumbel noise of scale 4T/epsilon on the score) and
    epsilon/(2T) measuring it with discrete Laplace(2T/epsilon) noise; both pass the
    ledger a cell count's sensitivity, 1. It then refits the distribution
    to every measurement so far. Queries are selected without replacement.
    Returns the fitted cell distribution (flattened; one row per table of a
    stack); consumes the whole budget, so sampling from it is post-processing.

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
    built once for the return value. A stack's tables are run side by side:
    each round draws one Gumbel key per cell of every table and one
    discrete Laplace value per table.
    """
    cells = math.prod(table.domains)
    if isinstance(iterations, bool) or not isinstance(iterations, (int, np.integer)) or iterations < 1:
        raise ValueError(f"iterations must be a positive integer, got {iterations}")
    if iterations > cells:
        raise ValueError(f"iterations ({iterations}) cannot exceed the {cells} cell queries")
    t_total = int(iterations)
    true_counts = _rows(table).astype(float)
    n = true_counts.sum(axis=1)
    if np.any(n < 1):
        raise ValueError("MWEM needs a table with at least one record")
    index = np.arange(n.size)
    ledger = BudgetLedger(budget.epsilon)
    measured = np.empty((n.size, t_total), dtype=np.int64)
    targets = np.empty((n.size, t_total))
    w = np.full(n.size, 1.0 / cells)
    unmeasured = np.ones(true_counts.shape, dtype=bool)
    share = Fraction(1, 2 * t_total)
    for t in range(t_total):
        query = ledger.select(share, 1, np.abs(true_counts - (n * w)[:, None]), unmeasured, f"selection {t + 1}", rng)
        unmeasured[index, query] = False
        measured[:, t] = query
        noise = ledger.noise(share, 1, f"measurement {t + 1}", rng, n.size)
        targets[:, t] = true_counts[index, query] + noise
        fitted, w = _mw_fit(targets[:, : t + 1], cells - (t + 1), n)
    ledger.close()
    a = np.repeat(w[:, None], cells, axis=1)
    a[index[:, None], measured] = fitted
    return a.reshape(*table.stack_shape, cells)


def mwem(table: CountTable, budget: PrivacyBudget, iterations: int, rng: RandomSource) -> CountTable:
    """Counts of as many draws as the table has records from the MWEM-fitted cell distribution.

    The counts are one Multinomial(n, weights) draw per table.
    """
    weights = mwem_weights(table, budget, iterations, rng)
    counts = rng.generator.multinomial(_rows(table).sum(axis=1).reshape(table.stack_shape), weights)
    return replace(table, counts=counts.reshape(table.counts.shape))


def all_low_order_marginals(n_variables: int) -> tuple[tuple[int, ...], ...]:
    """Every one-way and two-way marginal, by variable index."""
    singles = [(j,) for j in range(n_variables)]
    pairs = [tuple(p) for p in combinations(range(n_variables), 2)]
    return tuple(singles + pairs)


def _marginal(joint: np.ndarray, axes: tuple[int, ...], size: int) -> np.ndarray:
    """The flattened marginal of ``joint`` on the sorted ``axes``: those axes
    moved to the front (one copy), then one sum per contiguous row."""
    return np.moveaxis(joint, axes, range(len(axes))).reshape(size, -1).sum(axis=1)


# A fit whose duality gap is still open after this many major iterations per
# measured marginal cell raises rather than return an unconverged joint.
_MAJOR_CAP_PER_CELL = 10
# The stop rule's duality gap, relative to the scale of the targets.
_GAP_TOLERANCE = 1e-12


def _nearest_marginal_joint(domains, marginals, y) -> tuple[np.ndarray, np.ndarray]:
    """The joint over ``domains`` whose ``marginals`` are nearest ``y`` in L2, by Wolfe's algorithm.

    ``y`` holds the target of each marginal, flattened and concatenated in
    the order of ``marginals``. M is the matrix whose column for each cell
    indicates that cell's entry in every marginal, so the reachable
    marginals are the polytope of the vectors M p, p a distribution over the
    cells. Wolfe's min-norm-point algorithm (Math. Programming 11, 1976)
    keeps a corral, an affinely independent set of cells with positive
    weights whose marginals mu = M p are the point of the corral's affine
    hull nearest y. Each major iteration adds the cell of least score
    M^T (mu - y); each minor one steps toward the enlarged hull's nearest
    point and drops the cells whose weight reaches zero. The start is the
    cell nearest y, the lowest flat index on a tie. The fit stops at a
    duality gap ``(mu - y) . mu - min M^T (mu - y)`` of at most 1e-12 times
    the targets' scale (their largest absolute entry, at least 1), where mu
    is the projection mu* of y onto the polytope. A gap still open after
    ``_MAJOR_CAP_PER_CELL`` times ``y.size`` major iterations raises.

    Returns the joint, the corral's weights on their cells and zero
    elsewhere, and its marginals mu. The affine steps solve the bordered
    system [[0, 1^T], [1, A]] [rho; weights] = [1; M^T y] over the corral,
    where A counts the marginals on which two cells agree. Its inverse is
    bordered and cut one cell at a time and applied by numpy's own sums, as
    a fit must replay on any machine: LAPACK's solve splits its sums by BLAS
    thread count, and its bytes differ under 1 and 2 threads from 99
    unknowns up. A cell's scores are the sum of its entries in each
    marginal, so no cells-by-marginals matrix is built.
    """
    ndim, k = len(domains), len(marginals)
    shapes = [tuple(d if j in axes else 1 for j, d in enumerate(domains)) for axes in marginals]
    bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    # The cell at coordinates c has the entry bounds[m] + strides[m] @ c in marginal m.
    strides = np.array(
        [[math.prod(shape[j + 1 :]) * (j in axes) for j in range(ndim)] for axes, shape in zip(marginals, shapes)]
    )
    # Each marginal's slice of y, in its broadcast shape up to its last axis, by that axis.
    stages = [[] for _ in range(ndim)]
    for lo, hi, axes, shape in zip(bounds[:-1], bounds[1:], marginals, shapes):
        stages[axes[-1]].append((lo, hi, shape[: axes[-1] + 1]))

    def scores(v):
        """M^T v, flattened: each cell's sum of its entries of ``v``, added axis by axis."""
        out = np.zeros(())
        for j, stage in enumerate(stages):
            grown = np.empty(domains[: j + 1])
            grown[...] = out[..., None]
            for lo, hi, shape in stage:
                grown += v[lo:hi].reshape(shape)
            out = grown
        return out.ravel()

    def entries(cell):
        return bounds[:-1] + strides @ np.array(np.unravel_index(cell, domains))

    def product(matrix, v):
        return np.einsum("ij,j->i", matrix, v)

    def bordered(solution):
        """[[0, 1^T], [1, A]] @ solution, A's product taken through the marginals."""
        weighted = np.bincount(rows.ravel(), weights=np.repeat(solution[1:], k), minlength=y.size)
        return np.concatenate([[solution[1:].sum()], weighted[rows].sum(axis=1) + solution[0]])

    def affine_point():
        """The weights of the corral's affine hull point nearest y, refined once against the exact system."""
        rhs = np.concatenate([[1.0], u[cells]])
        solution = product(inverse, rhs)
        solution += product(inverse, rhs - bordered(solution))
        return solution[1:]

    u = scores(y)
    tolerance = _GAP_TOLERANCE * max(1.0, float(np.abs(y).max()))
    cap = round(_MAJOR_CAP_PER_CELL * y.size)
    cells = [int(np.argmax(u))]
    rows = entries(cells[0])[None, :]
    weights = np.ones(1)
    # The inverse of the corral's bordered system, its border first.
    inverse = np.array([[-float(k), 1.0], [1.0, 0.0]])
    major = 0
    while True:
        mu = np.bincount(rows.ravel(), weights=np.repeat(weights, k), minlength=y.size)
        z = mu - y
        score = scores(z)
        best = int(np.argmin(score))
        gap = float((z * mu).sum() - score[best])
        if gap <= tolerance:
            break
        if major == cap:
            raise RuntimeError(
                f"marginal fit did not converge: duality gap {gap:.3e} above {tolerance:.3e} "
                f"after {cap} major iterations"
            )
        major += 1
        # Border the inverse with the new cell's column, through its Schur complement sigma.
        new = entries(best)
        column = np.concatenate([[1.0], (rows == new).sum(axis=1)])
        h = product(inverse, column)
        sigma = k - float((column * h).sum())
        size = len(cells) + 1
        grown = np.empty((size + 1, size + 1))
        np.multiply.outer(h, h / sigma, out=grown[:size, :size])
        grown[:size, :size] += inverse
        grown[:size, size] = grown[size, :size] = -h / sigma
        grown[size, size] = 1.0 / sigma
        inverse = grown
        cells.append(best)
        rows = np.vstack([rows, new])
        weights = np.append(weights, 0.0)
        while True:
            affine = affine_point()
            if np.all(affine > 0):
                weights = affine
                break
            # Step from the weights toward the affine point until a weight reaches zero.
            falling = np.flatnonzero(affine <= 0)
            ratios = weights[falling] / (weights[falling] - affine[falling])
            step = float(ratios.min())
            weights = step * affine + (1.0 - step) * weights
            weights[falling[np.argmin(ratios)]] = 0.0
            for i in np.flatnonzero(weights <= 0)[::-1]:
                # Cut the cell from the inverse: the Schur complement of its diagonal entry.
                keep = np.arange(len(cells) + 1) != i + 1
                pivot = inverse[keep, i + 1]
                inverse = inverse[np.ix_(keep, keep)] - np.multiply.outer(pivot, pivot / inverse[i + 1, i + 1])
                del cells[i]
            keep = weights > 0
            rows, weights = rows[keep], weights[keep]
    joint = np.zeros(math.prod(domains))
    joint[cells] = weights
    return joint.reshape(domains), mu


def fit_marginal_joint(
    table: CountTable,
    budget: PrivacyBudget,
    rng: RandomSource,
    marginals: tuple[tuple[int, ...], ...] | None = None,
) -> np.ndarray:
    """DP marginal release plus the least-squares joint distribution that reconciles it.

    Each selected marginal receives discrete Laplace(2k/epsilon) noise (k
    marginals, budget split evenly, each passing the ledger a table's
    sensitivity, 2). The targets y are the noisy counts over the table's
    record count n, neither clamped nor renormalised, and the fit is
    Private-PGM's estimate (McKenna, Sheldon & Miklau, ICML 2019): the joint
    whose marginals mu* minimise ||mu - y||, found exactly by Wolfe's
    min-norm-point algorithm (:func:`_nearest_marginal_joint`); a fit whose
    duality gap is still open at its iteration cap raises ``RuntimeError``
    rather than return. Consumes the whole budget; anything derived from
    the returned joint is post-processing.

    mu* is unique, but the joints that realise it need not be, and this one
    is not the maximum-entropy joint: it is the convex combination of at
    most one more cell than there are measured marginal cells, often a
    single cell at small epsilon. That moves no report's law: a report reads
    a release only through its (group, tested variable) marginal, one of
    the measured ones, and a Multinomial(n, p) draw summed down to it is
    Multinomial(n, mu*) on it for every p with marginals mu*.
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
    n = int(table.counts.sum())
    if n < 1:
        raise ValueError("the marginal fit needs a table with at least one record")

    k = len(marginals)
    ledger = BudgetLedger(budget.epsilon)
    targets = []
    for axes in marginals:
        counts = _marginal(table.counts, axes, math.prod(table.domains[j] for j in axes))
        targets.append(counts + ledger.noise(Fraction(1, k), 2, f"marginal {axes}", rng, counts.size))
    ledger.close()
    return _nearest_marginal_joint(table.domains, marginals, np.concatenate(targets) / n)[0]


def marginal_ipf(table: CountTable, budget: PrivacyBudget, rng: RandomSource) -> CountTable:
    """Counts of as many draws as the table has records from the joint fitted to its noisy marginals.

    A stack's tables are fitted in order, and the counts are one Multinomial(n, joint) draw per table.
    """
    tables = [replace(table, counts=counts) for counts in table.counts.reshape(-1, *table.domains)]
    joints = np.reshape([fit_marginal_joint(t, budget, rng) for t in tables], (*table.stack_shape, -1))
    counts = rng.generator.multinomial(_rows(table).sum(axis=1).reshape(table.stack_shape), joints)
    return replace(table, counts=counts.reshape(table.counts.shape))


# The synthesizers by name; each call takes a table, a budget and a random
# source, and picks the keyword options it uses: ``m``, the smoothed
# histogram's synthetic size, and ``iterations``, MWEM's rounds.
SYNTHESIZERS = {
    "perturbed": lambda table, budget, rng, **_: perturbed_histogram(table, budget, rng),
    "smoothed": lambda table, budget, rng, m, **_: smoothed_histogram(table, budget, m, rng),
    "mwem": lambda table, budget, rng, iterations, **_: mwem(table, budget, iterations, rng),
    "marginal_ipf": lambda table, budget, rng, **_: marginal_ipf(table, budget, rng),
}

