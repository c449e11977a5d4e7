"""Command-line entry point.

Subcommands: ``synth`` (privatize a CSV), ``test`` (classical two-sample
test on a CSV), ``dp-test`` (the DP Mann-Whitney baseline), ``experiment``
(run the error-rate grids of a JSON config), and ``report`` (re-render
saved reports). Exit codes: 0 success, 1 usage error, 2 data or config
error. Every run prints a reproducibility header with the effective
configuration, and with the resolved seed and numpy version when it draws randomness.
Input CSVs with a ``group,value`` header are read as grouped records; any
other header is read as the cardiovascular file.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from . import harness, report as report_mod
from .data import (
    BINNINGS,
    IngestionError,
    build_table,
    load_csv,
    resolve_binning,
    samples_from_counts,
    save_grouped_csv,
)
from .dpmw import DEFAULT_DELTA, DPMWConfig, dp_mann_whitney
from .harness import ConfigError
from .rng import RandomSource
from .stattests import TESTS
from .synth import SYNTHESIZERS, PrivacyBudget

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _outdir(value: str | None) -> Path:
    base = Path(os.environ.get("DPSYNTH_OUTDIR", "."))
    if value is None:
        return base
    path = Path(value)
    return path if path.is_absolute() else base / path


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _resolve_seed(seed: int | None) -> int:
    return secrets.randbits(63) if seed is None else seed


def _print_header(command: str, seed: int | None, config: dict) -> None:
    print(f"# dpsynth {command}")
    if seed is not None:
        print(f"# seed: {seed}")
        print(f"# numpy: {np.__version__}")
    print(f"# config: {json.dumps(config, sort_keys=True, default=str)}")


def _binning_from_args(args) -> object:
    if args.bins is not None:
        if args.lo is None or args.hi is None:
            raise ConfigError("--bins requires --lo and --hi")
        return {"count": args.bins, "lo": args.lo, "hi": args.hi}
    return args.binning


# The synth flags that one method alone reads: flag -> (method, default).
_METHOD_FLAGS = {"m": ("smoothed", None), "iterations": ("mwem", harness.ExperimentConfig.mwem_iterations)}


def _method_options(args, spec) -> dict:
    """The method's own flags with their values; a flag another method reads is an error.

    ``--m`` must be a positive integer, and ``--iterations`` must lie in
    1..2B for the ``spec`` of B bins.
    """
    options = {}
    for flag, (method, default) in _METHOD_FLAGS.items():
        value = getattr(args, flag)
        if method == args.method:
            options[flag] = default if value is None else value
        elif value is not None:
            raise ConfigError(f"--{flag} applies only to --method {method}, not to --method {args.method}")
    if args.method == "smoothed" and (options["m"] is None or options["m"] < 1):
        raise ConfigError(f"--m must be a positive integer with --method smoothed, got {options['m']}")
    # MWEM runs on the (group, bin) table, one query per cell.
    queries = 2 * spec.bin_count
    if args.method == "mwem" and not 1 <= options["iterations"] <= queries:
        raise ConfigError(
            f"--iterations must lie in 1..{queries} (one query per group-by-bin cell), got {options['iterations']}"
        )
    return options


def _cmd_synth(args) -> int:
    seed = _resolve_seed(args.seed)
    # Built before the header is printed, so that an out-of-range seed prints none.
    rng = RandomSource(seed)
    binning = _binning_from_args(args)
    spec = resolve_binning(binning)
    budget = PrivacyBudget(args.epsilon)
    options = _method_options(args, spec)
    _print_header(
        "synth",
        seed,
        {
            "input": args.input,
            "method": args.method,
            "epsilon": args.epsilon,
            **options,
            "binning": binning,
            "out": str(args.out),
        },
    )
    original = load_csv(args.input)
    released = SYNTHESIZERS[args.method](build_table(original, [(None, spec)]), budget, rng, **options)
    # The file holds the released counts as records at the bin midpoints, in cell order.
    synthetic = samples_from_counts(released)
    out = _outdir(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_grouped_csv(synthetic, out)
    # The synthesizer drew from the seed's root stream, whose child path is empty.
    provenance = {
        "method": args.method,
        "epsilon": args.epsilon,
        "seed": seed,
        "numpy": np.__version__,
        "stream": [],
        "original_n": original.n,
        "synthetic_n": synthetic.n,
    }
    sidecar = out.with_suffix(out.suffix + ".provenance.json")
    sidecar.write_text(json.dumps(provenance, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {synthetic.n} records to {out}")
    print(f"wrote provenance to {sidecar}")
    return 0


def _cmd_test(args) -> int:
    _print_header("test", None, {"input": args.input, "test": args.test, "variable": args.variable})
    data = load_csv(args.input)
    table = build_table(data, [(args.variable, None)])
    support, counts = table.levels[1], table.counts
    # Distinct observed values become the chi-squared table's categories.
    if args.test == "chi2" and support.size > 20:
        raise ConfigError("chi2 on the CLI expects a categorical column (<= 20 distinct values)")
    outcome = TESTS[args.test](support, counts, support)
    print(json.dumps(outcome.to_dict(), sort_keys=True))
    return 0


def _cmd_dp_test(args) -> int:
    seed = _resolve_seed(args.seed)
    rng = RandomSource(seed)
    cfg = DPMWConfig(
        PrivacyBudget(args.epsilon, args.delta),
        size_fraction=args.size_fraction,
        null_samples=args.null_samples,
    )
    _print_header(
        "dp-test",
        seed,
        {
            "input": args.input,
            "epsilon": args.epsilon,
            "delta": args.delta,
            "size_fraction": args.size_fraction,
            "null_samples": args.null_samples,
        },
    )
    outcome = dp_mann_whitney(load_csv(args.input), cfg, rng)
    print(json.dumps(outcome.to_dict(), sort_keys=True))
    return 0


def _cmd_experiment(args) -> int:
    configs = harness.load_configs(args.config, seed=args.seed)
    # A one-experiment file prints its object, a longer one the whole array.
    printed = [harness.config_to_dict(config) for config in configs]
    _print_header("experiment", _distinct(c.seed for c in configs), printed if len(printed) > 1 else printed[0])
    reports = [r for config in configs for r in harness.run_grid(config, workers=args.workers)]
    outdir = _outdir(args.out)
    written = report_mod.emit_report(reports, outdir, alpha=configs[0].alpha)
    for path in written:
        print(f"wrote {path}")
    suppressed = sum(r.suppressed for r in reports)
    threshold = _distinct(c.min_feasible for c in configs)
    print(f"{len(reports)} cells, {suppressed} suppressed (feasible < {threshold})")
    return 0


def _distinct(values) -> str:
    """The distinct values in first-seen order, comma-separated."""
    return ", ".join(dict.fromkeys(str(v) for v in values))


def _cmd_report(args) -> int:
    reports, alpha = report_mod.load_reports_json(args.reports)
    _print_header("report", None, {"reports": args.reports, "formats": args.formats})
    outdir = _outdir(args.out)
    formats = tuple(args.formats.split(","))
    for path in report_mod.emit_report(reports, outdir, formats=formats, alpha=alpha):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpsynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate DP-synthetic data from a CSV")
    p.add_argument("--input", required=True, help="input CSV (group,value header, or a cardio file)")
    p.add_argument("--method", required=True, choices=list(SYNTHESIZERS))
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--m", type=int, help="synthetic size (smoothed method only)")
    p.add_argument(
        "--iterations",
        type=int,
        help=f"MWEM rounds (mwem method only; default {harness.ExperimentConfig.mwem_iterations})",
    )
    p.add_argument("--binning", choices=list(BINNINGS), default="bmi24")
    p.add_argument("--bins", type=int, help="custom bin count (with --lo/--hi)")
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output CSV path (under DPSYNTH_OUTDIR if relative)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("test", help="run a classical two-sample test on a CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--test", required=True, choices=list(TESTS))
    p.add_argument("--variable", help="extra column to test instead of 'value'")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("dp-test", help="run the DP Mann-Whitney U test on a CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--size-fraction", type=float, default=DPMWConfig.size_fraction)
    p.add_argument("--null-samples", type=int, default=DPMWConfig.null_samples)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_dp_test)

    p = sub.add_parser("experiment", help="run the error-rate grids of a JSON config (one experiment or an array)")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="overrides the seed in the config file")
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes; 1 runs every chunk in this process, more start a pool; the work is split "
        "by (grid cell, chunk of its repetitions)",
    )
    p.add_argument("--out", default="results")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="re-render saved reports.json")
    p.add_argument("--reports", required=True)
    p.add_argument("--formats", default="csv,json,svg")
    p.add_argument("--out", default="results")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, IngestionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # str() of a KeyError quotes its message.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
