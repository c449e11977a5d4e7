"""Special functions backing every p-value computed in this package.

The normal CDF uses ``math.erfc``, entry by entry on an array; the
regularized incomplete beta and upper gamma functions call
``scipy.special``, behind the domain checks that name the bad argument.
The test suite checks all three against a high-precision quadrature
oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, gammaincc

__all__ = ["normal_cdf", "regularized_incomplete_beta", "regularized_upper_gamma"]


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
    return float(betainc(a, b, x))


def regularized_upper_gamma(s: float, x: float) -> float:
    """Q(s, x) = Gamma(s, x) / Gamma(s), the regularized upper incomplete gamma."""
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    if not x >= 0:
        raise ValueError(f"x must be non-negative, got {x}")
    return float(gammaincc(s, x))
