"""Special functions versus a high-precision quadrature oracle.

The oracle integrates the defining densities with mpmath's adaptive
quadrature and never touches the implementation under test.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from dpsynth.special import normal_cdf, regularized_incomplete_beta, regularized_upper_gamma

mp.mp.dps = 30


def beta_oracle(a: float, b: float, x: float) -> float:
    integral = mp.quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), [0, x])
    return float(integral / mp.beta(a, b))


def upper_gamma_oracle(s: float, x: float) -> float:
    integral = mp.quad(lambda t: t ** (s - 1) * mp.e ** (-t), [x, mp.inf])
    return float(integral / mp.gamma(s))


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_grid_against_oracle(self):
        for x in np.linspace(-8, 8, 100):
            assert abs(normal_cdf(x) - float(mp.ncdf(x))) < 1e-12

    def test_monotone(self):
        grid = [normal_cdf(x) for x in np.linspace(-10, 10, 200)]
        assert all(b >= a for a, b in zip(grid, grid[1:]))


class TestIncompleteBeta:
    def test_uniform_case(self):
        assert regularized_incomplete_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (2.0, 0.5), (2.0, 5.0), (30.0, 30.0)])
    def test_grid_against_oracle(self, a, b):
        for x in np.linspace(0.005, 0.995, 100):
            assert abs(regularized_incomplete_beta(a, b, x) - beta_oracle(a, b, x)) < 1e-10

    def test_large_df_t_tail_against_oracle(self):
        # The t-test's tail at df = 37 880, t = -1.726 (two groups of n near 20 000).
        df, t = 37880.0, -1.726
        a, b, x = df / 2.0, 0.5, df / (df + t * t)
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(beta_oracle(a, b, x), rel=1e-12)

    def test_monotone_in_x(self):
        grid = [regularized_incomplete_beta(2.0, 3.0, x) for x in np.linspace(0, 1, 101)]
        assert all(b >= a for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("a,b,x", [(0.0, 1.0, 0.5), (1.0, -1.0, 0.5), (1.0, 1.0, 1.5), (1.0, 1.0, -0.1)])
    def test_domain_errors(self, a, b, x):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(a, b, x)


class TestUpperGamma:
    def test_frozen_oracle_value(self):
        # Quadrature oracle gives 7.50131946655e-5 (the chi-squared example's
        # tail probability of 15.68 on 1 df).
        assert regularized_upper_gamma(0.5, 7.84) == pytest.approx(7.50131946655e-5, abs=1e-10)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.5, 7.0])
    def test_grid_against_oracle(self, s):
        for x in np.linspace(0.01, 25.0, 100):
            assert abs(regularized_upper_gamma(s, x) - upper_gamma_oracle(s, x)) < 1e-10

    def test_monotone_decreasing_in_x(self):
        grid = [regularized_upper_gamma(1.5, x) for x in np.linspace(0, 30, 200)]
        assert all(b <= a for a, b in zip(grid, grid[1:]))

    def test_boundary(self):
        assert regularized_upper_gamma(3.0, 0.0) == 1.0

    @pytest.mark.parametrize("s,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)])
    def test_domain_errors(self, s, x):
        with pytest.raises(ValueError):
            regularized_upper_gamma(s, x)
