"""Render error-rate reports as CSV, JSON, and SVG line charts.

The SVG charts all share one layout: error proportion against
the privacy budget on a log axis, one series per dataset size, with a
horizontal reference line at the significance level. Suppressed cells
(too few feasible repetitions) appear as gaps in the series. Output is
plain deterministic text so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Sequence

from .data import from_json
from .harness import ErrorRateReport

__all__ = ["emit_report", "load_reports_json", "render_figure"]

# Every report field but the failure counts, in field order.
_CSV_COLUMNS = [f.name for f in fields(ErrorRateReport) if f.name != "failure_counts"]

_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#17becf"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 40, 50


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(
    reports: Sequence[ErrorRateReport],
    outdir,
    formats: Iterable[str] = ("csv", "json", "svg"),
    alpha: float = 0.05,
) -> list[Path]:
    """Write reports.csv / reports.json / figure_*.svg into ``outdir``."""
    if not reports:
        raise ValueError("no reports to emit")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    formats = tuple(formats)
    unknown = set(formats) - {"csv", "json", "svg"}
    if unknown:
        raise ValueError(f"unknown report format(s): {sorted(unknown)}")
    if "csv" in formats:
        path = outdir / "reports.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for r in reports:
                d = r.to_dict()
                writer.writerow([_fmt(d[c]) for c in _CSV_COLUMNS])
        written.append(path)
    if "json" in formats:
        path = outdir / "reports.json"
        payload = {"alpha": alpha, "reports": [r.to_dict() for r in reports]}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(path)
    if "svg" in formats:
        for key, group in _grouped(reports).items():
            method, test, kind = key
            name = f"figure_{method}_{test}_{kind}.svg"
            path = outdir / name
            path.write_text(render_figure(group, alpha), encoding="utf-8")
            written.append(path)
    return written


def load_reports_json(path) -> tuple[list[ErrorRateReport], float]:
    """Read back a reports.json file for re-rendering.

    A payload that is not an object, that holds no ``reports`` list or an
    ``alpha`` that is not a number in (0, 1), as ``ExperimentConfig``
    requires, or an entry that :func:`from_json` cannot read as an
    :class:`ErrorRateReport` raises ``ValueError`` naming the report and field.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if not isinstance(payload.get("reports"), list):
        raise ValueError(f"{path}: expected a 'reports' list")
    alpha = payload.get("alpha", 0.05)
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ValueError(f"{path}: field 'alpha' must be a number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"{path}: field 'alpha' must be in (0, 1), got {alpha}")
    reports = []
    for number, entry in enumerate(payload["reports"], start=1):
        try:
            reports.append(from_json(ErrorRateReport, entry))
        except ValueError as exc:
            raise ValueError(f"{path}: report {number}: {exc}") from None
    return reports, float(alpha)


def _grouped(reports: Sequence[ErrorRateReport]) -> dict:
    groups: dict[tuple, list[ErrorRateReport]] = {}
    for r in reports:
        groups.setdefault((r.method, r.test, r.error_kind), []).append(r)
    return groups


def _series_label(report: ErrorRateReport) -> str:
    if report.n_synthetic is not None:
        return f"m={report.n_synthetic}"
    return f"n={report.n_original}"


def render_figure(reports: Sequence[ErrorRateReport], alpha: float) -> str:
    """One SVG chart: error rate vs epsilon, one polyline per size."""
    method, test, kind = reports[0].method, reports[0].test, reports[0].error_kind
    epsilons = sorted({r.epsilon for r in reports})
    series: dict[str, dict[float, ErrorRateReport]] = {}
    for r in reports:
        series.setdefault(_series_label(r), {})[r.epsilon] = r

    lo = math.log10(min(epsilons)) if min(epsilons) > 0 else 0.0
    hi = math.log10(max(epsilons)) if max(epsilons) > 0 else 1.0
    span = (hi - lo) or 1.0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def x_at(eps: float) -> float:
        if len(epsilons) == 1:
            return _MARGIN_L + plot_w / 2.0
        return _MARGIN_L + (math.log10(eps) - lo) / span * plot_w

    def y_at(rate: float) -> float:
        return _MARGIN_T + (1.0 - rate) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<text x="{_MARGIN_L}" y="22" font-size="14">{method} / {test}: {kind} error rate</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_at(tick)
        parts.append(f'<line x1="{_MARGIN_L - 4}" y1="{y:.1f}" x2="{_MARGIN_L}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">{tick:g}</text>')
    for eps in epsilons:
        x = x_at(eps)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle">{eps:g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle">'
        "privacy budget (log scale)</text>"
    )
    y_alpha = y_at(alpha)
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{y_alpha:.1f}" x2="{_MARGIN_L + plot_w}" y2="{y_alpha:.1f}" '
        'stroke="#888" stroke-dasharray="6 4"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w + 6}" y="{y_alpha + 4:.1f}" fill="#888">alpha={alpha:g}</text>'
    )

    for i, (label, by_eps) in enumerate(sorted(series.items())):
        color = _PALETTE[i % len(_PALETTE)]
        segment: list[str] = []
        segments: list[list[str]] = []
        for eps in epsilons:
            r = by_eps.get(eps)
            # Suppressed or missing cells break the line into separate segments.
            if r is None or r.suppressed or r.error_rate is None:
                if segment:
                    segments.append(segment)
                    segment = []
                continue
            px, py = x_at(eps), y_at(r.error_rate)
            segment.append(f"{px:.1f},{py:.1f}")
            parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="{color}"/>')
        if segment:
            segments.append(segment)
        for seg in segments:
            if len(seg) > 1:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
        ly = _MARGIN_T + 14 + 18 * i
        lx = _MARGIN_L + plot_w + 14
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
