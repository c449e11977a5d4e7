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
    gaussian_table,
    load_copula_spec,
    subsample_table,
)
from dpsynth.data import GroupedDataset, bmi_bins, build_table, resolve_binning
from dpsynth.stattests import TESTS


def homogeneity_p_value(a: np.ndarray, b: np.ndarray) -> float:
    """Chi-squared p-value that the summed cell counts ``a`` and ``b`` follow one law.

    Cells holding fewer than 10 records of the two together are pooled into one.
    """
    a, b = np.ravel(a), np.ravel(b)
    sparse = a + b < 10
    table = np.array([np.append(a[~sparse], a[sparse].sum()), np.append(b[~sparse], b[sparse].sum())])
    table = table[:, table.sum(axis=0) > 0]
    return scipy.stats.chi2_contingency(table, correction=False).pvalue


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


class TestCountLaws:
    """The count laws against the records they replace: the record path is the reference."""

    @pytest.mark.parametrize("mode", ["null", "signal"])
    @pytest.mark.parametrize(
        "binning", ["gaussian100", {"count": 8, "lo": 48, "hi": 52}], ids=["gaussian100", "narrow"]
    )
    def test_gaussian_table_matches_binned_records(self, mode, binning):
        # The narrow bins leave real tail mass beyond both end edges, which the end bins must absorb.
        spec = resolve_binning(binning)
        root = RandomSource(11)
        law = records = 0
        for k in range(300):
            table = gaussian_table(1000, mode, spec, root.child(k, 0))
            reference = build_table(gaussian_bivariate(1000, mode, root.child(k, 1)), [(None, spec)])
            assert table.counts.sum(axis=1).tolist() == [500, 500]
            assert table.variables == reference.variables
            assert all(np.array_equal(a, b) for a, b in zip(table.levels, reference.levels))
            law = law + table.counts
            records = records + reference.counts
        assert homogeneity_p_value(law, records) > 1e-3

    def test_subsample_table_matches_choice_subsampling(self):
        g = np.random.default_rng(5)
        source = GroupedDataset(g.integers(0, 2, 60), g.normal(25, 3, 60))
        axes = [(None, bmi_bins())]
        full = build_table(source, axes)
        root = RandomSource(12)
        law = records = 0
        for k in range(2000):
            table = subsample_table(full, 40, root.child(k, 0))
            assert table.total_n == 40 and np.all(table.counts <= full.counts)
            idx = root.child(k, 1).generator.choice(source.n, size=40, replace=False)
            law = law + table.counts
            records = records + build_table(GroupedDataset(source.groups[idx], source.values[idx]), axes).counts
        assert homogeneity_p_value(law, records) > 1e-3

    @pytest.mark.parametrize("mode", ["null", "signal"])
    def test_gaussian_table_stack_rows_match_binned_records(self, mode):
        # One call draws every row; the rows together follow the law of as many binned record sets.
        spec = resolve_binning({"count": 8, "lo": 48, "hi": 52})
        root = RandomSource(14)
        stack = gaussian_table(1000, mode, spec, root.child(0), size=300)
        assert stack.counts.shape == (300, 2, 8) and stack.stack_shape == (300,) and stack.domains == (2, 8)
        assert np.all(stack.counts.sum(axis=2) == 500)
        assert len({row.tobytes() for row in stack.counts}) == 300
        records = sum(
            build_table(gaussian_bivariate(1000, mode, root.child(1, k)), [(None, spec)]).counts for k in range(300)
        )
        assert homogeneity_p_value(stack.counts.sum(axis=0), records) > 1e-3

    def test_subsample_table_stack_rows_match_choice_subsampling(self):
        g = np.random.default_rng(6)
        source = GroupedDataset(g.integers(0, 2, 60), g.normal(25, 3, 60))
        axes = [(None, bmi_bins())]
        full = build_table(source, axes)
        root = RandomSource(15)
        stack = subsample_table(full, 40, root.child(0), size=2000)
        assert stack.counts.shape == (2000, *full.domains)
        assert np.all(stack.counts.sum(axis=(1, 2)) == 40) and np.all(stack.counts <= full.counts)
        records = 0
        for k in range(2000):
            idx = root.child(1, k).generator.choice(source.n, size=40, replace=False)
            records = records + build_table(GroupedDataset(source.groups[idx], source.values[idx]), axes).counts
        assert homogeneity_p_value(stack.counts.sum(axis=0), records) > 1e-3

    def test_gaussian_table_checks_size_and_mode(self):
        with pytest.raises(ValueError, match="even"):
            gaussian_table(7, "null", bmi_bins(), RandomSource(0))
        with pytest.raises(ValueError, match="mode"):
            gaussian_table(10, "both", bmi_bins(), RandomSource(0))


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

    @pytest.mark.parametrize(
        "bins",
        [
            {"count": 10.7, "lo": 30, "hi": 95},
            {"count": 1, "lo": 30, "hi": 95},
            {"count": 10, "lo": 95, "hi": 30},
            {"count": 10, "lo": "30", "hi": 95},
            {"count": 10, "hi": 95},
            {"count": 10, "lo": 30, "hi": 95, "cuont": 12},
            "psa40",
        ],
        ids=["fractional", "one", "reversed", "string", "missing", "misspelt", "named"],
    )
    def test_bad_bins_named_at_load(self, bins):
        payload = default_prostate_spec().to_dict()
        payload["variables"][0]["bins"] = bins
        with pytest.raises(ValueError, match="'age'"):
            CopulaSpec.from_dict(payload)

    def test_shipped_bins_kept(self):
        # An integral float count gives the same bins as the integer.
        normal = MarginalSpec("normal", {"mu": 66.0, "sigma": 8.0})
        age = VariableSpec("age", normal, {"count": 13.0, "lo": 30, "hi": 95})
        assert age.binning().edges == tuple(np.linspace(30.0, 95.0, 14))
        for v in default_prostate_spec().variables:
            if v.bins is not None:
                b = v.bins
                assert v.binning().edges == tuple(np.linspace(float(b["lo"]), float(b["hi"]), int(b["count"]) + 1))

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

    def test_misspelt_class_effect_named_at_load(self):
        payload = default_prostate_spec().to_dict()
        payload["class_efect"] = payload.pop("class_effect")
        with pytest.raises(ValueError, match=r"unknown field\(s\): \['class_efect'\]"):
            CopulaSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda params: params.pop("mu"), r"'variables\[0\]\.marginal'.*\['mu', 'sigma'\], got \['sigma'\]"),
            (lambda params: params.update(mu="x"), r"'variables\[0\]\.marginal'.*'params\.mu' has the wrong type: 'x'"),
            (lambda params: params.update(mu=True), r"'variables\[0\]\.marginal'.*'params\.mu' has the wrong type: True"),
            (lambda params: params.update(mu=float("nan")), r"'variables\[0\]\.marginal'.*must be finite"),
            (lambda params: params.update(median=66.0), r"'variables\[0\]\.marginal'.*got \['median', 'mu', 'sigma'\]"),
        ],
        ids=["missing", "string", "bool", "nan", "unknown"],
    )
    def test_bad_marginal_parameter_named_at_load(self, edit, named):
        payload = default_prostate_spec().to_dict()
        edit(payload["variables"][0]["marginal"]["params"])
        with pytest.raises(ValueError, match=named):
            CopulaSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("beta", {"a": 2.0, "b": 5.0, "lo": 0.0}),
            ("bernoulli", {"p": "0.3"}),
            ("ordinal", {"probs": 0.5}),
            ("ordinal", {"probs": [0.5, "0.5"]}),
            ("normal", {"mu": 0.0, "sigma": 1.0, "p": 0.5}),
        ],
        ids=["beta-missing-hi", "bernoulli-string", "ordinal-scalar", "ordinal-string", "normal-extra"],
    )
    def test_each_kind_takes_exactly_its_numeric_parameters(self, kind, params):
        with pytest.raises(ValueError, match=f"{kind} marginal takes|params"):
            MarginalSpec(kind, params)

    def test_class_effect_marginal_named_by_variable(self):
        payload = default_prostate_spec().to_dict()
        del payload["class_effect"]["psa"]["params"]["hi"]
        with pytest.raises(ValueError, match=r"'class_effect\.psa'.*beta marginal"):
            CopulaSpec.from_dict(payload)


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
