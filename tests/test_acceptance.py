"""Acceptance suite: one test per acceptance criterion, at desk scale.

Every criterion prints a single summary line (run pytest with ``-s`` or
check the captured output) before asserting at its stated tolerance.
Monte Carlo tolerances follow the binomial band 3*sqrt(p(1-p)/R) for
R repetitions. The whole module runs from a fixed master seed.
"""

import math
import time

import numpy as np
import pytest

from dpsynth.data import GroupedDataset, build_table, gaussian_unit_bins, load_csv, uniform_bins
from dpsynth.harness import Cell, ExperimentConfig, GeneratorSpec, grid_cells, run_cell, run_grid
from dpsynth.report import emit_report
from dpsynth.rng import RandomSource
from dpsynth.simgen import default_prostate_spec, gaussian_bivariate
from dpsynth.stattests import TESTS, u_statistic
from dpsynth.synth import (
    PrivacyBudget,
    fit_marginal_joint,
    perturbed_histogram,
    smoothed_probabilities,
)

SEED = 20_260_811
TOL_200 = 0.05 + 3 * np.sqrt(0.05 * 0.95 / 200)  # ~0.096


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def brute_force_u(x, y) -> float:
    u = 0.0
    for xi in x:
        for yj in y:
            u += 1.0 if xi > yj else (0.5 if xi == yj else 0.0)
    return u


def test_c01_rank_formula_equals_pair_counting():
    start = time.time()
    g = RandomSource(SEED).child(1).generator
    mismatches = 0
    for _ in range(1000):
        n1, n2 = g.integers(1, 13), g.integers(1, 13)
        x = g.integers(0, 8, size=n1).astype(float)  # small domain forces ties
        y = g.integers(0, 8, size=n2).astype(float)
        data = GroupedDataset(np.repeat([0, 1], [n1, n2]), np.concatenate((x, y)))
        if u_statistic(build_table(data, [(None, None)]).counts) != brute_force_u(x, y):
            mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and elapsed < 5.0
    announce(1, ok, f"rank-formula U vs brute force: {mismatches} mismatches in 1000 ({elapsed:.1f}s)")
    assert mismatches == 0
    assert elapsed < 5.0


def test_c02_nonprivate_calibration():
    start = time.time()
    rates = {}
    for i, test in enumerate(("mw_u", "t", "chi2", "median")):
        config = ExperimentConfig(
            generator=GeneratorSpec(kind="gaussian", mode="null"),
            synthesizer="none",
            epsilons=(1.0,),
            original_sizes=(500,),
            repetitions=2000,
            test=test,
            seed=SEED + 2,
        )
        report = run_cell(config, grid_cells(config)[0], RandomSource(config.seed).child(i))
        rates[test] = report.error_rate
    elapsed = time.time() - start
    ok = all(0.035 <= r <= 0.065 for r in rates.values()) and elapsed < 60.0
    detail = ", ".join(f"{t}={r:.4f}" for t, r in rates.items())
    announce(2, ok, f"raw-data calibration at alpha=0.05 (n=500, R=2000): {detail} ({elapsed:.0f}s)")
    for test, rate in rates.items():
        assert 0.035 <= rate <= 0.065, f"{test} rejected at {rate}"
    assert elapsed < 60.0


def test_c03_cardio_bmi_statistic(cardio_path):
    table = build_table(load_csv(cardio_path), [(None, None)])
    # U is stated for the cardio group, group 1, so its row goes first.
    out = TESTS["mw_u"](table.levels[1], table.counts[::-1], None)
    ok = out.statistic == 471_500_929.50 and out.p_value < 1e-10
    announce(3, ok, f"cardio BMI U statistic = {out.statistic} (p = {out.p_value:.3e})")
    assert out.statistic == 471_500_929.50
    assert out.p_value < 1e-10


def test_c04_dp_mw_validity():
    start = time.time()
    config = ExperimentConfig(
        generator=GeneratorSpec(kind="gaussian", mode="null"),
        synthesizer="dp_mw_baseline",
        epsilons=(0.01, 0.1, 1.0, 5.0, 10.0),
        original_sizes=(100, 1000),
        repetitions=200,
        seed=SEED + 4,
    )
    reports = run_grid(config, workers=4)
    elapsed = time.time() - start
    worst = max(r.error_rate for r in reports)
    ok = worst <= TOL_200 and elapsed < 600.0
    announce(4, ok, f"DP-MW Type I over 10 cells: worst {worst:.3f} <= {TOL_200:.3f} ({elapsed:.0f}s)")
    for r in reports:
        assert r.error_rate <= TOL_200, f"eps={r.epsilon} n={r.n_original}: {r.error_rate}"
    assert elapsed < 600.0


def test_c05_inflated_type1():
    base = dict(
        generator=GeneratorSpec(kind="gaussian", mode="null"),
        repetitions=200,
        seed=SEED + 5,
    )
    low = run_grid(
        ExperimentConfig(synthesizer="perturbed", epsilons=(0.1,), original_sizes=(500,), **base)
    )[0]
    high = run_grid(
        ExperimentConfig(synthesizer="perturbed", epsilons=(10.0,), original_sizes=(20_000,), **base)
    )[0]
    mwem_rates = {
        n: run_grid(
            ExperimentConfig(synthesizer="mwem", epsilons=(10.0,), original_sizes=(n,), **base)
        )[0].error_rate
        for n in (500, 20_000)
    }
    ok = (
        low.error_rate > 0.5
        and high.error_rate <= TOL_200
        and all(rate > 0.05 for rate in mwem_rates.values())
    )
    announce(
        5,
        ok,
        "perturbed Type I: "
        f"eps=0.1/n=500 -> {low.error_rate:.3f} (>0.5), "
        f"eps=10/n=20000 -> {high.error_rate:.3f} (<= {TOL_200:.3f}); "
        f"MWEM eps=10: n=500 -> {mwem_rates[500]:.3f}, n=20000 -> {mwem_rates[20_000]:.3f} (> 0.05)",
    )
    assert low.error_rate > 0.5
    assert high.error_rate <= TOL_200
    for n, rate in mwem_rates.items():
        assert rate > 0.05, f"MWEM at n={n}: {rate}"


def test_c06a_smoothed_histogram_type1_validity():
    config = ExperimentConfig(
        generator=GeneratorSpec(kind="gaussian", mode="null"),
        synthesizer="smoothed",
        epsilons=(0.01, 0.1, 1.0, 5.0, 10.0),
        original_sizes=(20_000,),
        synthetic_sizes=(50, 100, 500, 1000),
        repetitions=200,
        seed=SEED + 6,
    )
    reports = run_grid(config, workers=4)
    worst = max(r.error_rate for r in reports)
    announce(6, worst <= TOL_200, f"smoothed Type I worst of 20 cells: {worst:.3f} (<= {TOL_200:.3f})")
    for r in reports:
        assert r.error_rate <= TOL_200, f"eps={r.epsilon} m={r.n_synthetic}: {r.error_rate}"


def test_c06b_smoothed_histogram_type2_power():
    config = ExperimentConfig(
        generator=GeneratorSpec(kind="gaussian", mode="signal"),
        synthesizer="smoothed",
        epsilons=(10.0,),
        original_sizes=(20_000,),
        synthetic_sizes=(1000,),
        repetitions=200,
        seed=SEED + 7,
    )
    type2 = run_grid(config)[0].error_rate
    announce(6, type2 <= 0.2, f"smoothed Type II at eps=10, m=1000: {type2:.3f} (<= 0.2)")
    assert type2 <= 0.2


def test_c07_mechanism_limit_properties():
    start = time.time()
    rng = RandomSource(SEED + 8)
    # Perturbed histogram becomes the identity as the noise scale vanishes.
    data = gaussian_bivariate(2000, "null", rng.child(0))
    hist = build_table(data, [(None, gaussian_unit_bins())])
    identical = sum(
        np.array_equal(perturbed_histogram(hist, PrivacyBudget(1e6), rng.child(1, run)).counts, hist.counts)
        for run in range(1000)
    )

    # Smoothed probabilities match the empirical frequencies up to the
    # additive alpha = 1/(exp(eps/m) - 1) term, exactly; here alpha is 0.
    counts = hist.counts.ravel().astype(float)
    m, eps = 400, 1e6
    alpha = math.exp(-eps / m) / -math.expm1(-eps / m)
    expected = (counts + alpha) / (counts + alpha).sum()
    probs = smoothed_probabilities(counts, eps, m)
    smoothed_exact = np.array_equal(probs, expected)

    # IPF on a full-joint marginal workload copies the empirical joint.
    table = build_table(data, [(None, uniform_bins(40.0, 60.0, 50))])
    joint = fit_marginal_joint(table, PrivacyBudget(1e6), rng.child(2), marginals=((0, 1),))
    empirical = table.counts / table.total_n
    tv = 0.5 * np.abs(joint - empirical).sum()

    elapsed = time.time() - start
    ok = identical >= 999 and smoothed_exact and tv < 1e-6 and elapsed < 60.0
    announce(
        7,
        ok,
        f"limits: perturbed identity {identical}/1000, smoothed formula exact={smoothed_exact}, "
        f"IPF full-marginal TV={tv:.2e} ({elapsed:.0f}s)",
    )
    assert identical >= 999
    assert smoothed_exact
    assert tv < 1e-6
    assert elapsed < 60.0


def test_c08_smoothing_score_identity():
    g = RandomSource(SEED + 9).generator
    worst = 0.0
    for _ in range(1000):
        cells = int(g.integers(2, 60))
        counts = g.integers(0, 1000, size=cells).astype(float)
        m = int(g.integers(1, 2000))
        eps = float(g.uniform(0.01, 50.0))
        # Exponential mechanism with per-draw budget eps/m and the score
        # log(c + alpha)/log(1 + 1/alpha): replace-one sensitivity <= 1 and a
        # fixed normaliser n + K*alpha, so no factor 2.
        alpha = math.exp(-eps / m) / -math.expm1(-eps / m)
        log_scores = (eps / m) * (np.log(counts + alpha) / np.log1p(1.0 / alpha))
        exp_form = np.exp(log_scores - log_scores.max())
        exp_form /= exp_form.sum()
        direct = smoothed_probabilities(counts, eps, m)
        worst = max(worst, float(np.max(np.abs(direct - exp_form) / exp_form)))
    ok = worst <= 1e-12
    announce(8, ok, f"direct vs exponentiated-score probabilities: worst rel err {worst:.2e}")
    assert worst <= 1e-12


def test_c09_multivariate_failure_accounting():
    config = ExperimentConfig(
        generator=GeneratorSpec(
            kind="copula", mode="null", copula=default_prostate_spec(), variable="fiveari"
        ),
        synthesizer="marginal_ipf",
        epsilons=(0.01,),
        original_sizes=(50,),
        repetitions=200,
        test="chi2",
        seed=SEED + 10,
    )
    report = run_grid(config)[0]
    single_class = report.failure_counts.get("single-class", 0)
    partition_ok = sum(report.failure_counts.values()) == report.repetitions - report.feasible_count
    suppression_ok = report.suppressed == (report.feasible_count < 50)
    ok = single_class > 0 and partition_ok and suppression_ok
    announce(
        9,
        ok,
        f"multivariate eps=0.01 n=50: feasible {report.feasible_count}/200, "
        f"failures {dict(report.failure_counts)}, suppressed={report.suppressed}",
    )
    assert single_class > 0
    assert partition_ok
    assert suppression_ok


def test_c10_worker_determinism(tmp_path):
    config = ExperimentConfig(
        generator=GeneratorSpec(kind="gaussian", mode="null"),
        synthesizer="perturbed",
        epsilons=(0.1, 10.0),
        original_sizes=(100, 500),
        repetitions=25,
        seed=SEED + 11,
        min_feasible=10,
    )
    serial = run_grid(config, workers=1)
    parallel = run_grid(config, workers=8)
    emit_report(serial, tmp_path / "serial", formats=("csv", "json"))
    emit_report(parallel, tmp_path / "parallel", formats=("csv", "json"))
    same_csv = (tmp_path / "serial" / "reports.csv").read_bytes() == (
        tmp_path / "parallel" / "reports.csv"
    ).read_bytes()
    same_json = (tmp_path / "serial" / "reports.json").read_bytes() == (
        tmp_path / "parallel" / "reports.json"
    ).read_bytes()
    ok = same_csv and same_json and serial == parallel
    announce(10, ok, f"1 vs 8 workers byte-identical: csv={same_csv}, json={same_json}")
    assert serial == parallel
    assert same_csv and same_json
