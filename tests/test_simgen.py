"""Controlled generators: moments, marginal fidelity, label exchangeability."""

import numpy as np
import pytest
import scipy.stats

from dpsynth.rng import RandomSource
from dpsynth.simgen import (
    CopulaSpec,
    MarginalSpec,
    VariableSpec,
    copula_multivariate,
    default_prostate_spec,
    gaussian_bivariate,
    load_copula_spec,
)
from dpsynth.data import build_table
from dpsynth.stattests import TESTS


class TestGaussianBivariate:
    def test_null_mode_groups_match(self):
        data = gaussian_bivariate(20_000, "null", RandomSource(0))
        diff = data.values[data.groups == 1].mean() - data.values[data.groups == 0].mean()
        assert abs(diff) < 0.06

    def test_signal_mode_effect_size(self):
        data = gaussian_bivariate(20_000, "signal", RandomSource(1))
        diff = data.values[data.groups == 1].mean() - data.values[data.groups == 0].mean()
        assert diff == pytest.approx(1.0, abs=0.03)

    def test_group_sizes_exactly_half(self):
        data = gaussian_bivariate(1000, "signal", RandomSource(2))
        assert (data.groups == 0).sum() == 500

    @pytest.mark.parametrize("n", [3, 0, 7, 1])
    def test_bad_sizes_rejected(self, n):
        with pytest.raises(ValueError):
            gaussian_bivariate(n, "null", RandomSource(0))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            gaussian_bivariate(10, "both", RandomSource(0))

    def test_deterministic(self):
        a = gaussian_bivariate(100, "null", RandomSource(3))
        b = gaussian_bivariate(100, "null", RandomSource(3))
        assert np.array_equal(a.values, b.values)


def identity_spec() -> CopulaSpec:
    return CopulaSpec(
        variables=(
            VariableSpec("age", MarginalSpec("normal", {"mu": 66.0, "sigma": 8.0}), {"count": 8, "lo": 30, "hi": 100}),
            VariableSpec("score", MarginalSpec("beta", {"a": 2.0, "b": 5.0, "lo": 0.0, "hi": 10.0}), {"count": 8, "lo": 0, "hi": 10}),
            VariableSpec("flag", MarginalSpec("bernoulli", {"p": 0.3})),
            VariableSpec("grade", MarginalSpec("ordinal", {"probs": [0.2, 0.3, 0.5]})),
        ),
        correlation=np.eye(4),
    )


class TestCopulaSpecValidation:
    def test_default_spec_loads(self):
        spec = default_prostate_spec()
        assert {v.name for v in spec.variables} == {"age", "psa", "volume", "fiveari", "pirads"}

    def test_json_round_trip(self, tmp_path):
        spec = default_prostate_spec()
        path = tmp_path / "spec.json"
        import json

        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        back = load_copula_spec(path)
        assert [v.name for v in back.variables] == [v.name for v in spec.variables]
        assert np.allclose(back.correlation, spec.correlation)

    def test_non_positive_definite_rejected(self):
        corr = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            CopulaSpec(
                variables=tuple(
                    VariableSpec(n, MarginalSpec("bernoulli", {"p": 0.5})) for n in "abc"
                ),
                correlation=corr,
            )

    def test_continuous_variable_requires_bins(self):
        with pytest.raises(ValueError, match="bins"):
            VariableSpec("x", MarginalSpec("normal", {"mu": 0.0, "sigma": 1.0}))

    def test_class_effect_must_reference_known_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            CopulaSpec(
                variables=(VariableSpec("flag", MarginalSpec("bernoulli", {"p": 0.5})),),
                correlation=np.eye(1),
                class_effect={"other": MarginalSpec("bernoulli", {"p": 0.9})},
            )

    def test_ordinal_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MarginalSpec("ordinal", {"probs": [0.5, 0.6]})


class TestCopulaSampling:
    def test_identity_correlation_gives_uncorrelated_columns(self):
        data = copula_multivariate(identity_spec(), 20_000, "null", RandomSource(4))
        cols = [data.column(n) for n in ("age", "score", "flag", "grade")]
        for i in range(4):
            for j in range(i + 1, 4):
                r = np.corrcoef(cols[i], cols[j])[0, 1]
                assert abs(r) < 0.05

    def test_normal_marginal_moments(self):
        data = copula_multivariate(identity_spec(), 20_000, "null", RandomSource(5))
        age = data.column("age")
        assert age.mean() == pytest.approx(66.0, abs=0.2)
        assert age.std() == pytest.approx(8.0, abs=0.2)

    def test_marginals_pass_ks_regardless_of_correlation(self):
        spec = default_prostate_spec()
        data = copula_multivariate(spec, 20_000, "null", RandomSource(6))
        age = scipy.stats.kstest(data.column("age"), scipy.stats.norm(66.0, 8.0).cdf)
        assert age.pvalue > 0.01
        psa = scipy.stats.kstest(
            data.column("psa"), scipy.stats.beta(2.0, 8.0, loc=0.0, scale=60.0).cdf
        )
        assert psa.pvalue > 0.01

    def test_ordinal_frequencies(self):
        data = copula_multivariate(identity_spec(), 50_000, "null", RandomSource(7))
        grade = data.column("grade")
        freqs = [(grade == level).mean() for level in (1.0, 2.0, 3.0)]
        assert np.allclose(freqs, [0.2, 0.3, 0.5], atol=0.01)

    def test_signal_mode_uses_class_effect(self):
        spec = default_prostate_spec()
        data = copula_multivariate(spec, 20_000, "signal", RandomSource(8))
        psa_high = data.column("psa")[data.groups == 1].mean()
        psa_low = data.column("psa")[data.groups == 0].mean()
        assert psa_high > psa_low + 2.0

    def test_null_mode_label_exchangeability(self):
        # Labels are assigned after generation; the MW U test on any column
        # must reject at its nominal rate.
        spec = identity_spec()
        root = RandomSource(9)
        rejections = 0
        reps = 2000
        for rep in range(reps):
            data = copula_multivariate(spec, 200, "null", root.child(rep))
            table = build_table(data, [("score", None)])
            out = TESTS["mw_u"](table.levels[1], table.counts, None)
            rejections += out.feasible and out.p_value <= 0.05
        assert abs(rejections / reps - 0.05) <= 0.015

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            copula_multivariate(identity_spec(), 11, "null", RandomSource(0))
