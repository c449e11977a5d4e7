"""Special functions backing every p-value computed in this package.

This is the one module that imports scipy, and it imports ``scipy.special``
only when a function first needs it (:func:`load_scipy`), so that a process
that runs only the Mann-Whitney U test, DP-MW and the histogram
synthesizers never loads scipy.

- :func:`normal_cdf` uses ``math.erfc``, entry by entry on an array, and
  never loads scipy. The MW-U p-value and the gaussian generator's bin
  masses go through it.
- :func:`regularized_incomplete_beta` (the t-test) and
  :func:`regularized_upper_gamma` (the chi-squared and median tests) call
  ``scipy.special.betainc`` and ``gammaincc``, behind domain checks that
  name the bad argument.
- :func:`ndtr`, :func:`ndtri` and :func:`betaincinv` are scipy's own, for
  the copula sampler, whose draws are pinned to scipy's arithmetic.

A config whose cells call any of the scipy-backed functions loads scipy
when it is validated (``harness.ExperimentConfig``), in the parent process,
so that ``run_grid``'s forked workers inherit it instead of each importing
it. The test suite checks the first three functions against a
high-precision quadrature oracle.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = [
    "load_scipy",
    "normal_cdf",
    "regularized_incomplete_beta",
    "regularized_upper_gamma",
    "ndtr",
    "ndtri",
    "betaincinv",
]


@cache
def load_scipy():
    """``scipy.special``, imported on the first call."""
    import scipy.special

    return scipy.special


def normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    A float for a number; for an array, an array of the same shape, each
    entry computed as for that number alone.
    """
    values = np.asarray(x, dtype=float)
    cdf = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in values.ravel().tolist()]
    return cdf[0] if values.ndim == 0 else np.reshape(cdf, values.shape)


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if not (a > 0 and b > 0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    return float(load_scipy().betainc(a, b, x))


def regularized_upper_gamma(s: float, x: float) -> float:
    """Q(s, x) = Gamma(s, x) / Gamma(s), the regularized upper incomplete gamma."""
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    if not x >= 0:
        raise ValueError(f"x must be non-negative, got {x}")
    return float(load_scipy().gammaincc(s, x))


def ndtr(x):
    """``scipy.special.ndtr``: the standard normal CDF, elementwise."""
    return load_scipy().ndtr(x)


def ndtri(u):
    """``scipy.special.ndtri``: the standard normal quantile, elementwise."""
    return load_scipy().ndtri(u)


def betaincinv(a, b, u):
    """``scipy.special.betaincinv``: the inverse of I_x(a, b) in x, elementwise."""
    return load_scipy().betaincinv(a, b, u)
