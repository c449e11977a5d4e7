#!/usr/bin/env python3
"""dpsynth grid benchmark: run frozen experiment grids end to end and check them.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload hist_grid --seed 1 --seconds 20 --trace 0

Each workload is a list of frozen experiment configs (``perfbench/workloads/
<name>/``) run through the user path, ``dpsynth.cli.main(["experiment",
...])``, with the seed taken only from ``--seed``.

``--trace 0`` measures set-up (import plus config validation, in fresh
processes) and then repeats the whole workload at ``--workers 2`` for about
``--seconds``, reporting medians over the repeats. ``--trace 1`` runs the
workload once at ``--workers 2`` untraced, then untraced and traced pairs at
``--workers 1``, and reports per-layer metrics from the traced passes.

Every pass is checked: each ``reports.json`` is reloaded with
``report.load_reports_json`` (re-running the report invariants), must hold one
report per grid cell in grid order, and must be byte-identical across all
passes of the run, whatever their worker count or tracing. The last line of
standard output is one JSON object with ``correct``, ``attempted`` and
``failed`` (grid cells) and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DPSYNTH_OUTDIR", None)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

WORKLOADS = {
    "hist_grid": ("gaussian_perturbed_null.json", "smoothed_signal.json"),
    "fit_grid": ("mwem_gaussian_null.json", "ipf_copula_fiveari.json"),
    "dpmw_grid": ("dp_mw_gaussian_null.json",),
}

SETUP_PER_PASS = 3  # fresh set-up processes before each untraced pass; setup_s is their median
MIN_ITERATIONS = 3  # untraced repeats per --trace 0 run, at least
SELF_COVERAGE_MIN = 0.95  # per-layer self times must account for this share of traced wall

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
from dpsynth import harness
for path in sys.argv[2:]:
    harness.load_config(path, seed=int(sys.argv[1]))
print(repr(time.perf_counter() - t0))
"""

# Per-layer functions reported in the JSON line (each as calls, self_s,
# ms_p50, ms_tail). Every other traced name is printed and saved only.
REPORTED_FUNCTIONS = (
    "cli.main",
    "harness.run_cell",
    "harness.run_test",
    "rng.RandomSource.child",
    "rng.categorical_sample",
    "rng.laplace_sample",
    "rng.discrete_laplace_sample",
    "simgen.gaussian_bivariate",
    "simgen.copula_multivariate",
    "data.discretize",
    "data.build_histogram",
    "data.samples_from_counts",
    "data.build_table",
    "synth.perturbed_histogram",
    "synth.smoothed_histogram",
    "synth.mwem_weights",
    "synth.mwem",
    "synth.fit_marginal_joint",
    "synth.marginal_ipf",
    "stattests.mann_whitney_u",
    "stattests.chi_squared",
    "special.normal_cdf",
    "special.regularized_upper_gamma",
    "dpmw.dp_mann_whitney",
    "report.emit_report",
)
FUNCTION_METRICS = (("calls", "count"), ("self_s", "s"), ("ms_p50", "ms"), ("ms_tail", "ms"))
COUNT_METRICS = (
    ("dpmw.null_elems", "count"),
    ("dpmw.null_bytes_computed", "B"),
    ("synth.ipf_joint_cells", "count"),
    ("synth.ipf_marginals", "count"),
    ("data.records_emitted", "count"),
)


@dataclass
class Pass:
    """One run of every config of a workload: timings and the check's verdict."""

    label: str
    wall: float
    cpu: float
    failed: int  # grid cells that raised or failed the output check
    digests: list[str]  # sha256 of each config's reports.json, "missing" if none
    feasible: int  # feasible repetitions over all reports


def cpu_seconds() -> float:
    """User plus system CPU of this process and every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """The larger of this process's and its largest child's peak RSS (ru_maxrss is KiB on Linux)."""
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def machine_line() -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"# machine: nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} numpy={numpy.__version__}"


def prepare_configs(workload: str, outdir: Path, repetitions: int | None) -> list[Path]:
    """The workload's frozen configs; with ``repetitions``, copies that override it."""
    paths = [BENCH_DIR / "workloads" / workload / name for name in WORKLOADS[workload]]
    if repetitions is None:
        return paths
    copies = []
    for path in paths:
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["repetitions"] = repetitions
        copy = outdir / "configs" / path.name
        copy.parent.mkdir(parents=True, exist_ok=True)
        copy.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        copies.append(copy)
    return copies


def measure_setup(configs: list[Path], seed: int, count: int) -> list[float]:
    """Seconds to import dpsynth and load and validate the configs, in ``count`` fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, str(seed), *map(str, configs)]
    times = []
    for _ in range(count):
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def check_outputs(configs, outdirs: list[Path], codes: list) -> tuple[int, list[str], int]:
    """(failed cells, reports.json sha256 per config, feasible repetitions) for one pass."""
    from dpsynth import harness, report

    failed = feasible = 0
    digests = []
    for config, outdir, code in zip(configs, outdirs, codes):
        expected = harness.grid_cells(config)
        reports_path = outdir / "reports.json"
        if code != 0 or not reports_path.is_file():
            failed += len(expected)
            digests.append("missing")
            continue
        digests.append(hashlib.sha256(reports_path.read_bytes()).hexdigest())
        try:
            reports, _ = report.load_reports_json(reports_path)
        except (ValueError, TypeError, KeyError) as exc:
            print(f"# check: {reports_path} fails the report invariants: {exc}", file=sys.stderr)
            failed += len(expected)
            continue
        if len(reports) != len(expected):
            print(f"# check: {reports_path} has {len(reports)} reports for {len(expected)} cells", file=sys.stderr)
            failed += len(expected)
            continue
        for got, cell in zip(reports, expected):
            if (
                (got.epsilon, got.n_original, got.n_synthetic) != tuple(cell)
                or got.method != config.synthesizer
                or got.test != config.test
                or got.repetitions != config.repetitions
            ):
                failed += 1
        feasible += sum(r.feasible_count for r in reports)
    return failed, digests, feasible


def run_pass(label: str, workload: "Workload", workers: int, outdir: Path, tracer=None) -> Pass:
    """Run every config through ``dpsynth.cli.main``; time it; check its reports.

    With a ``tracer``, the layers are wrapped for the timed part only, so
    the output check is not traced.
    """
    from dpsynth import cli
    import tracing

    outdirs = [outdir / label / path.stem for path in workload.paths]
    codes = []
    captured = io.StringIO()
    undo = tracing.install(tracer) if tracer is not None else []
    try:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        for path, out in zip(workload.paths, outdirs):
            argv = ["experiment", "--config", str(path), "--seed", str(workload.seed), "--workers", str(workers), "--out", str(out)]
            try:
                with contextlib.redirect_stdout(captured):
                    codes.append(cli.main(argv))
            except Exception:  # a crashing config counts its cells as failed; the run goes on
                traceback.print_exc()
                codes.append(None)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    finally:
        tracing.restore(undo)
    (outdir / label).mkdir(parents=True, exist_ok=True)
    (outdir / label / "cli_stdout.txt").write_text(captured.getvalue(), encoding="utf-8")
    failed, digests, feasible = check_outputs(workload.configs, outdirs, codes)
    return Pass(label, wall, cpu, failed, digests, feasible)


def count_mismatches(passes: list[Pass], workload: "Workload") -> int:
    """Cells of passes whose reports.json differs from the first pass's (the c10 invariant)."""
    reference = passes[0].digests
    bad = 0
    for p in passes[1:]:
        for size, ref, got in zip(workload.cells, reference, p.digests):
            if got != ref and got != "missing":
                print(f"# check: {p.label} reports differ from {passes[0].label}", file=sys.stderr)
                bad += size
    return bad


def repeat(step, seconds: float, minimum: int) -> list:
    """Call ``step`` at least ``minimum`` times, then while another call fits in ``seconds``."""
    results = []
    t0 = time.perf_counter()
    while True:
        s0 = time.perf_counter()
        results.append(step(len(results)))
        last = time.perf_counter() - s0
        if len(results) >= minimum and time.perf_counter() - t0 + last > seconds:
            return results


class Workload:
    """The config files of a workload and their validated contents at the run's seed."""

    def __init__(self, paths: list[Path], seed: int):
        from dpsynth import harness

        self.paths = paths
        self.seed = seed
        self.configs = [harness.load_config(path, seed=seed) for path in paths]
        self.cells = [len(harness.grid_cells(config)) for config in self.configs]
        self.repetitions = sum(n * c.repetitions for n, c in zip(self.cells, self.configs))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(workload: Workload, seconds: float, outdir: Path) -> tuple[list[Pass], dict]:
    measure_setup(workload.paths, workload.seed, 1)  # warm-up: bytecode caches are written on first import
    setup: list[float] = []

    def step(i):
        # Set-up samples are spread over the run so that they see the same machine as the passes.
        setup.extend(measure_setup(workload.paths, workload.seed, SETUP_PER_PASS))
        return run_pass(f"untraced_w2_{i}", workload, 2, outdir)

    passes = repeat(step, seconds, MIN_ITERATIONS)
    wall = statistics.median(p.wall for p in passes)
    reps = workload.repetitions
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall, "s"),
        "reps_per_s": metric(reps / wall, "1/s"),
        "cpu_s": metric(statistics.median(p.cpu for p in passes), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    print(f"# {len(passes)} untraced passes at 2 workers, {reps} repetitions each; walls {[round(p.wall, 3) for p in passes]}")
    print(f"# setup_s samples {[round(t, 4) for t in setup]}")
    return passes, metrics


def traced_run(workload: Workload, seconds: float, outdir: Path) -> tuple[list[Pass], dict, bool]:
    import tracing

    tracer = tracing.Tracer()
    reference = run_pass("untraced_w2", workload, 2, outdir)

    def pair(i):
        plain = run_pass(f"untraced_w1_{i}", workload, 1, outdir)
        return plain, run_pass(f"traced_w1_{i}", workload, 1, outdir, tracer)

    pairs = repeat(pair, seconds - reference.wall, 1)
    plain_passes = [p for p, _ in pairs]
    traced_passes = [t for _, t in pairs]
    traced_wall = statistics.median(t.wall for t in traced_passes)
    plain_wall = statistics.median(p.wall for p in plain_passes)

    stats = tracer.layer_stats(len(pairs))
    counts = tracer.counts
    for key in counts:
        counts[key] //= len(pairs)
    coverage = tracer.self_seconds() / sum(t.wall for t in traced_passes)
    tracer.save(outdir / "spans.npz")
    tracing.write_summary(outdir / "layers.json", stats, counts)

    metrics = {}
    for name in REPORTED_FUNCTIONS:
        entry = stats.get(name, {"calls": 0, "self_s": 0.0, "ms_p50": 0.0, "ms_tail": 0.0})
        for key, unit in FUNCTION_METRICS:
            metrics[f"{name}.{key}"] = metric(entry[key], unit)
    for name, unit in COUNT_METRICS:
        metrics[name] = metric(counts.get(name, 0), unit)
    outcomes = counts.get("stattests.outcomes", 0)
    metrics["stattests.feasible_ratio"] = metric(counts.get("stattests.feasible", 0) / outcomes if outcomes else 0.0, "frac")
    metrics["harness.feasible_ratio"] = metric(reference.feasible / workload.repetitions, "frac")
    metrics["harness.cpu_util"] = metric(reference.cpu / (reference.wall * 2), "frac")
    metrics["trace.overhead_frac"] = metric(traced_wall / plain_wall - 1.0, "frac")
    metrics["trace.self_coverage"] = metric(coverage, "frac")

    print(f"# untraced w2 wall {reference.wall:.3f} s; {len(pairs)} pair(s) at 1 worker: untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s")
    print(f"# per-layer self time covers {coverage:.4f} of traced wall (required >= {SELF_COVERAGE_MIN})")
    print(f"# {'layer function':44s} {'calls':>9s} {'self_s':>9s} {'ms_p50':>9s} {'ms_tail':>9s}  tail pct")
    for name, entry in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"# {name:44s} {entry['calls']:9d} {entry['self_s']:9.4f} {entry['ms_p50']:9.4f} "
            f"{entry['ms_tail']:9.4f}  p{entry['tail_pct']:g} of {entry['calls'] * len(pairs)} calls"
        )
    for name, value in sorted(counts.items()):
        print(f"# count {name} = {value}" + (" (computed)" if name.endswith("bytes_computed") else ""))
    return [reference, *plain_passes, *traced_passes], metrics, coverage >= SELF_COVERAGE_MIN


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--repetitions", type=int, help="override every config's repetitions (smoke test)")
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so that the experiment's worker pool is shut down and joined.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "dpsynth" / "__init__.py").is_file():
        print(f"error: no dpsynth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dpsynth

    if Path(dpsynth.__file__).resolve().parent != (SRC / "dpsynth").resolve():
        print(f"error: imported dpsynth from {dpsynth.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    outdir = OUT_ROOT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    workload = Workload(prepare_configs(args.workload, outdir, args.repetitions), args.seed)

    print(machine_line())
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, configs {[p.name for p in workload.paths]}")
    coverage_ok = True
    if args.trace:
        passes, metrics, coverage_ok = traced_run(workload, args.seconds, outdir)
    else:
        passes, metrics = untraced_run(workload, args.seconds, outdir)

    attempted = sum(workload.cells) * len(passes)
    failed = min(attempted, sum(p.failed for p in passes) + count_mismatches(passes, workload))
    workload_digest = hashlib.sha256("".join(passes[0].digests).encode()).hexdigest()
    print(f"# reports_sha256 {args.workload} {workload_digest}")
    print(f"# failed_frac {failed / attempted:g} ({failed} of {attempted} cells)")
    for name, entry in metrics.items():
        if not args.trace or entry["unit"] == "frac":
            print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    correct = failed == 0 and coverage_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
