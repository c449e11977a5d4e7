"""Controlled data generators with known ground truth.

``gaussian_bivariate`` produces the two-group Gaussian populations used to
measure Type I (null mode: identical distributions) and Type II (signal
mode: means one standard deviation apart) error rates. ``gaussian_table``
and ``subsample_table`` draw only the counts that a synthesizer reads, from
their exact law.

``copula_multivariate`` produces a mixed-type multivariate dataset through
a Gaussian copula: a correlated latent normal vector is pushed through the
standard-normal CDF and then through each variable's inverse marginal CDF.
In signal mode the high-risk class draws from per-variable parameter
overrides; in null mode everyone draws from the low-risk parameters and
the class labels are an exact half/half random split, so any label-value
association is spurious by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Mapping

import numpy as np

from .data import BinningSpec, CountTable, GroupedDataset, from_json, resolve_binning, to_json
from .rng import RandomSource
from .special import betaincinv, ndtr, ndtri, normal_cdf

__all__ = [
    "MarginalSpec",
    "VariableSpec",
    "CopulaSpec",
    "gaussian_bivariate",
    "gaussian_table",
    "subsample_table",
    "copula_multivariate",
    "default_prostate_spec",
    "load_copula_spec",
]

NULL_MEAN = 50.0
NULL_SIGMA = 2.0
SIGNAL_MEANS = (51.0, 50.0)
SIGNAL_SIGMA = 1.0


def _half(n: int, mode: str) -> int:
    """The size of each group of an ``n``-record dataset in ``mode``, after checking both."""
    if mode not in ("null", "signal"):
        raise ValueError(f"mode must be 'null' or 'signal', got {mode!r}")
    if not isinstance(n, (int, np.integer)) or n < 2 or n % 2:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    return n // 2


def gaussian_bivariate(n: int, mode: str, rng: RandomSource) -> GroupedDataset:
    """Two equal groups of Gaussian values.

    null mode: both groups N(50, 2). signal mode: group 1 is N(51, 1) and
    group 0 is N(50, 1), an effect size of one standard deviation.
    """
    half = _half(n, mode)
    if mode == "null":
        values = rng.generator.normal(NULL_MEAN, NULL_SIGMA, size=n)
    else:
        mu1, mu0 = SIGNAL_MEANS
        values = np.concatenate(
            [
                rng.generator.normal(mu0, SIGNAL_SIGMA, size=half),
                rng.generator.normal(mu1, SIGNAL_SIGMA, size=half),
            ]
        )
    groups = np.repeat([0, 1], half)
    return GroupedDataset(groups, values)


def gaussian_table(n: int, mode: str, spec: BinningSpec, rng: RandomSource, size: int | None = None) -> CountTable:
    """The (group, binned value) table of ``gaussian_bivariate(n, mode, ...)``, drawn from its exact law.

    Each group is Multinomial(n/2, p), where p holds its normal's mass in
    each bin: the differences of the normal CDF at the edges (by
    :func:`dpsynth.special.normal_cdf`, which loads no scipy), with the two
    end edges moved to -inf and +inf, so that the end bins absorb the tails
    just as :func:`dpsynth.data.discretize` clamps values beyond the edges.
    With ``size``, a stack of ``size`` independent tables, drawn at once; p
    and the levels are computed once per call.
    """
    half = _half(n, mode)
    mu1, mu0 = SIGNAL_MEANS
    means, sigma = ((NULL_MEAN, NULL_MEAN), NULL_SIGMA) if mode == "null" else ((mu0, mu1), SIGNAL_SIGMA)
    edges = np.array(spec.edges)
    edges[0], edges[-1] = -np.inf, np.inf
    p = np.diff(normal_cdf((edges - np.array(means)[:, None]) / sigma), axis=1)
    counts = rng.generator.multinomial(half, p, size=None if size is None else (size, 2))
    return CountTable(("group", "value"), ((0.0, 1.0), spec.midpoints()), counts)


def subsample_table(table: CountTable, n: int, rng: RandomSource, size: int | None = None) -> CountTable:
    """The table of ``n`` of the records counted in ``table``, drawn without replacement.

    One multivariate hypergeometric draw over the cells: the exact law of
    the counts of a ``choice(replace=False)`` subsample of those records.
    With ``size``, a stack of ``size`` independent such tables, drawn at once.
    """
    counts = rng.generator.multivariate_hypergeometric(table.counts.ravel(), n, size=size)
    return replace(table, counts=counts.reshape(counts.shape[:-1] + table.domains))


@dataclass(frozen=True)
class MarginalSpec:
    """One marginal distribution: normal, scaled beta, bernoulli, or ordinal.

    ``params`` holds exactly the parameters of its kind (``_PARAMS``), each
    a finite number, except ordinal's ``probs``, a list of numbers.
    """

    kind: str
    params: Mapping[str, object]

    _PARAMS = {"normal": ("mu", "sigma"), "beta": ("a", "b", "lo", "hi"), "bernoulli": ("p",), "ordinal": ("probs",)}

    def __post_init__(self):
        if self.kind not in self._PARAMS:
            raise ValueError(f"unknown marginal kind {self.kind!r}")
        names = self._PARAMS[self.kind]
        if set(self.params) != set(names):
            raise ValueError(f"{self.kind} marginal takes the parameters {list(names)}, got {sorted(self.params)}")
        p = {
            key: from_json(tuple[float, ...] if key == "probs" else float, self.params[key], f"params.{key}")
            for key in names
        }
        if not np.all(np.isfinite(np.hstack(list(p.values())))):
            raise ValueError(f"{self.kind} marginal parameters must be finite, got {p}")
        if self.kind == "normal":
            if not p["sigma"] > 0:
                raise ValueError("normal marginal needs sigma > 0")
        elif self.kind == "beta":
            if not (p["a"] > 0 and p["b"] > 0):
                raise ValueError("beta marginal needs a, b > 0")
            if not p["lo"] < p["hi"]:
                raise ValueError("beta marginal needs lo < hi")
        elif self.kind == "bernoulli":
            if not 0 < p["p"] < 1:
                raise ValueError("bernoulli marginal needs p in (0, 1)")
        else:
            probs = np.asarray(p["probs"])
            if probs.size < 2 or np.any(probs <= 0) or abs(probs.sum() - 1.0) > 1e-9:
                raise ValueError("ordinal marginal needs >= 2 positive probs summing to 1")
        object.__setattr__(self, "params", p)

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        p = self.params
        if self.kind == "normal":
            return p["mu"] + p["sigma"] * ndtri(u)
        if self.kind == "beta":
            return p["lo"] + (p["hi"] - p["lo"]) * betaincinv(p["a"], p["b"], u)
        if self.kind == "bernoulli":
            return (u >= 1.0 - p["p"]).astype(float)
        cum = np.cumsum(np.asarray(p["probs"], dtype=float))[:-1]
        return 1.0 + np.searchsorted(cum, u, side="right").astype(float)

    @property
    def is_continuous(self) -> bool:
        return self.kind in ("normal", "beta")

    def category_levels(self) -> np.ndarray | None:
        if self.kind == "bernoulli":
            return np.array([0.0, 1.0])
        if self.kind == "ordinal":
            return 1.0 + np.arange(len(self.params["probs"]), dtype=float)
        return None


@dataclass(frozen=True)
class VariableSpec:
    """A named variable: marginal plus, for continuous ones, a binning rule."""

    name: str
    marginal: MarginalSpec
    bins: object = None  # any JSON value, so that the check below names the variable

    def __post_init__(self):
        if self.marginal.is_continuous:
            if not isinstance(self.bins, Mapping):
                raise ValueError(f"continuous variable {self.name!r} needs a bins entry {{count, lo, hi}}")
            object.__setattr__(self, "bins", dict(self.bins))
            try:
                self.binning()
            except ValueError as exc:
                raise ValueError(f"bins for {self.name!r}: {exc}") from None
        elif self.bins:
            raise ValueError(f"categorical variable {self.name!r} must not define bins")

    def binning(self) -> BinningSpec | None:
        """The uniform bins of a continuous variable, by the rule of ``generator.binning``; None otherwise."""
        return None if self.bins is None else resolve_binning(self.bins)


@dataclass(frozen=True)
class CopulaSpec:
    """Gaussian copula: named marginals, latent correlation, class overrides.

    ``correlation`` is kept as nested tuples of floats, so that two specs
    (and the experiment configs holding them) compare with ``==``.
    """

    variables: tuple[VariableSpec, ...]
    correlation: tuple[tuple[float, ...], ...]
    class_effect: Mapping[str, MarginalSpec] = field(default_factory=dict)

    def __post_init__(self):
        if not self.variables:
            raise ValueError("at least one variable is required")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names) or "group" in names:
            raise ValueError("variable names must be unique and must not include 'group'")
        corr = np.asarray(self.correlation, dtype=float)
        d = len(self.variables)
        if corr.shape != (d, d):
            raise ValueError(f"correlation must be {d}x{d}")
        if not np.allclose(corr, corr.T) or not np.allclose(np.diag(corr), 1.0):
            raise ValueError("correlation must be symmetric with unit diagonal")
        try:
            np.linalg.cholesky(corr)
        except np.linalg.LinAlgError:
            raise ValueError("correlation matrix must be positive definite") from None
        for name in self.class_effect:
            if name not in names:
                raise ValueError(f"class_effect refers to unknown variable {name!r}")
        object.__setattr__(self, "correlation", tuple(tuple(float(v) for v in row) for row in corr))
        object.__setattr__(self, "class_effect", dict(self.class_effect))

    def variable(self, name: str) -> VariableSpec:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(f"no variable named {name!r}")

    def marginal_for(self, name: str, high_risk: bool) -> MarginalSpec:
        if high_risk and name in self.class_effect:
            return self.class_effect[name]
        return self.variable(name).marginal

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CopulaSpec":
        return from_json(cls, payload)

    def to_dict(self) -> dict:
        return to_json(self)


def _latent_uniforms(spec: CopulaSpec, n: int, rng: RandomSource) -> np.ndarray:
    chol = np.linalg.cholesky(np.asarray(spec.correlation))
    z = rng.generator.standard_normal((n, len(spec.variables))) @ chol.T
    return ndtr(z)


def _transform(spec: CopulaSpec, u: np.ndarray, high_risk: bool) -> dict[str, np.ndarray]:
    return {
        v.name: spec.marginal_for(v.name, high_risk).inverse_cdf(u[:, j])
        for j, v in enumerate(spec.variables)
    }


def copula_multivariate(spec: CopulaSpec, n: int, mode: str, rng: RandomSource) -> GroupedDataset:
    """Draw n records (label plus the spec's variables) from the copula.

    signal mode: n/2 low-risk records (label 0) and n/2 high-risk records
    (label 1, class_effect marginals). null mode: all n records from the
    low-risk marginals, labels assigned afterwards by an exact fair split.
    """
    half = _half(n, mode)
    if mode == "signal":
        u_low = _latent_uniforms(spec, half, rng)
        u_high = _latent_uniforms(spec, half, rng)
        low = _transform(spec, u_low, high_risk=False)
        high = _transform(spec, u_high, high_risk=True)
        columns = {name: np.concatenate([low[name], high[name]]) for name in low}
        groups = np.repeat([0, 1], half)
    else:
        u = _latent_uniforms(spec, n, rng)
        columns = _transform(spec, u, high_risk=False)
        groups = rng.generator.permutation(np.repeat([0, 1], half))
    first = spec.variables[0].name
    extras = {name: columns[name] for name in columns if name != first}
    return GroupedDataset(groups, columns[first], extras, value_name=first)


def load_copula_spec(path) -> CopulaSpec:
    with Path(path).open(encoding="utf-8") as fh:
        return CopulaSpec.from_dict(json.load(fh))


def default_prostate_spec() -> CopulaSpec:
    """The packaged prostate-like configuration (plausible defaults, not fitted)."""
    return CopulaSpec.from_dict(json.loads(resources.files("dpsynth").joinpath("configs/prostate_like.json").read_text()))
