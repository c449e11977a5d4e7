"""Controlled data generators with known ground truth.

``gaussian_bivariate`` produces the two-group Gaussian populations used to
measure Type I (null mode: identical distributions) and Type II (signal
mode: means one standard deviation apart) error rates.

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
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.special import betaincinv, ndtr, ndtri

from .data import BinningSpec, GroupedDataset, uniform_bins
from .rng import RandomSource

__all__ = [
    "MarginalSpec",
    "VariableSpec",
    "CopulaSpec",
    "gaussian_bivariate",
    "copula_multivariate",
    "default_prostate_spec",
    "load_copula_spec",
]

NULL_MEAN = 50.0
NULL_SIGMA = 2.0
SIGNAL_MEANS = (51.0, 50.0)
SIGNAL_SIGMA = 1.0


def _check_mode(mode: str) -> str:
    if mode not in ("null", "signal"):
        raise ValueError(f"mode must be 'null' or 'signal', got {mode!r}")
    return mode


def gaussian_bivariate(n: int, mode: str, rng: RandomSource) -> GroupedDataset:
    """Two equal groups of Gaussian values.

    null mode: both groups N(50, 2). signal mode: group 1 is N(51, 1) and
    group 0 is N(50, 1), an effect size of one standard deviation.
    """
    _check_mode(mode)
    if not isinstance(n, (int, np.integer)) or n < 2 or n % 2:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    half = n // 2
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


@dataclass(frozen=True)
class MarginalSpec:
    """One marginal distribution: normal, scaled beta, bernoulli, or ordinal."""

    kind: str
    params: Mapping[str, object]

    _KINDS = ("normal", "beta", "bernoulli", "ordinal")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown marginal kind {self.kind!r}")
        p = dict(self.params)
        if self.kind == "normal":
            if not (p.get("sigma", 0) > 0):
                raise ValueError("normal marginal needs sigma > 0")
        elif self.kind == "beta":
            if not (p.get("a", 0) > 0 and p.get("b", 0) > 0):
                raise ValueError("beta marginal needs a, b > 0")
            if not p.get("lo", 0) < p.get("hi", 0):
                raise ValueError("beta marginal needs lo < hi")
        elif self.kind == "bernoulli":
            if not 0 < p.get("p", -1) < 1:
                raise ValueError("bernoulli marginal needs p in (0, 1)")
        else:
            probs = np.asarray(p.get("probs", ()), dtype=float)
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
    bins: Mapping[str, float] | None = None

    def __post_init__(self):
        if self.marginal.is_continuous:
            if not self.bins:
                raise ValueError(f"continuous variable {self.name!r} needs a bins entry")
            b = dict(self.bins)
            if not ({"count", "lo", "hi"} <= set(b)) or int(b["count"]) < 2 or not b["lo"] < b["hi"]:
                raise ValueError(f"bins for {self.name!r} need count >= 2 and lo < hi")
            object.__setattr__(self, "bins", b)
        elif self.bins:
            raise ValueError(f"categorical variable {self.name!r} must not define bins")

    def binning(self) -> BinningSpec | None:
        if self.bins is None:
            return None
        return uniform_bins(float(self.bins["lo"]), float(self.bins["hi"]), int(self.bins["count"]))


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
        try:
            variables = tuple(
                VariableSpec(
                    v["name"],
                    MarginalSpec(v["marginal"]["kind"], v["marginal"].get("params", {})),
                    v.get("bins"),
                )
                for v in payload["variables"]
            )
            correlation = np.asarray(payload["correlation"], dtype=float)
            class_effect = {
                name: MarginalSpec(m["kind"], m.get("params", {}))
                for name, m in payload.get("class_effect", {}).items()
            }
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed copula spec: {exc}") from exc
        return cls(variables, correlation, class_effect)

    def to_dict(self) -> dict:
        return {
            "variables": [
                {
                    "name": v.name,
                    "marginal": {"kind": v.marginal.kind, "params": dict(v.marginal.params)},
                    **({"bins": dict(v.bins)} if v.bins else {}),
                }
                for v in self.variables
            ],
            "correlation": [list(row) for row in self.correlation],
            "class_effect": {
                name: {"kind": m.kind, "params": dict(m.params)}
                for name, m in self.class_effect.items()
            },
        }


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
    _check_mode(mode)
    if not isinstance(n, (int, np.integer)) or n < 2 or n % 2:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    half = n // 2
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
    payload = json.loads(
        resources.files("dpsynth").joinpath("configs/prostate_like.json").read_text()
    )
    return CopulaSpec.from_dict(payload)
