"""Tabular data model: grouped records, count tables, CSV ingestion.

The central objects are :class:`GroupedDataset` (binary group label plus a
continuous value, optionally more named columns) and :class:`CountTable`
(cell counts over named axes, the group axis first), which every
synthesizer reads and every test runs on. :func:`build_table` is the one
way records become such a table, and :func:`samples_from_counts` expands a
table back into records.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "BinningSpec",
    "GroupedDataset",
    "CountTable",
    "IngestionError",
    "discretize",
    "samples_from_counts",
    "load_csv",
    "save_grouped_csv",
    "gaussian_unit_bins",
    "bmi_bins",
    "psa_bins",
    "uniform_bins",
    "BINNINGS",
    "resolve_binning",
    "build_table",
]


class IngestionError(ValueError):
    """Raised when a CSV file cannot be ingested; carries offending row numbers."""

    def __init__(self, message: str, rows: Sequence[int] = ()):
        super().__init__(message)
        self.rows = tuple(rows)


@dataclass(frozen=True)
class BinningSpec:
    """Half-open bins [edge_i, edge_{i+1}); out-of-range values clamp to the end bins."""

    edges: tuple[float, ...]

    def __post_init__(self):
        if len(self.edges) < 3:
            raise ValueError("a binning spec needs at least 2 bins (3 edges)")
        e = np.asarray(self.edges, dtype=float)
        if not np.all(np.isfinite(e)):
            raise ValueError("bin edges must be finite")
        if not np.all(np.diff(e) > 0):
            raise ValueError("bin edges must be strictly increasing")
        object.__setattr__(self, "edges", tuple(float(v) for v in e))

    @property
    def bin_count(self) -> int:
        return len(self.edges) - 1

    def midpoints(self) -> np.ndarray:
        e = np.asarray(self.edges)
        return (e[:-1] + e[1:]) / 2.0


def gaussian_unit_bins() -> BinningSpec:
    """100 integer-centered bins: bin labeled k covers [k-0.5, k+0.5), k = 1..100."""
    return BinningSpec(tuple(np.arange(0.5, 101.5, 1.0)))


def bmi_bins() -> BinningSpec:
    """24 BMI bins: below 18 in the first bin, 40 and above in the last."""
    return BinningSpec(tuple(float(v) for v in range(17, 42)))


def psa_bins() -> BinningSpec:
    """40 PSA bins from 1 upward; below 1 clamps to the first bin, 40+ to the last."""
    return BinningSpec(tuple(float(v) for v in range(1, 42)))


def uniform_bins(lo: float, hi: float, count: int) -> BinningSpec:
    if count < 2:
        raise ValueError("count must be at least 2")
    return BinningSpec(tuple(np.linspace(lo, hi, count + 1)))


BINNINGS = {"gaussian100": gaussian_unit_bins, "bmi24": bmi_bins, "psa40": psa_bins}


def resolve_binning(binning) -> BinningSpec:
    """A named binning (a key of :data:`BINNINGS`) or a ``{count, lo, hi}`` mapping of uniform bins."""
    if isinstance(binning, str):
        try:
            return BINNINGS[binning]()
        except KeyError:
            raise ValueError(f"binning {binning!r} is not one of {sorted(BINNINGS)}") from None
    if isinstance(binning, Mapping):
        values = [binning.get(key) for key in ("lo", "hi", "count")]
        # A boolean or a string is not a number here, although float() accepts both.
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
            raise ValueError(f"binning mapping needs numbers lo, hi and count, got {dict(binning)}")
        lo, hi, count = values
        if not float(count).is_integer() or count < 2:
            raise ValueError(f"binning count must be an integer of at least 2, got {count!r}")
        try:
            return uniform_bins(float(lo), float(hi), int(count))
        except ValueError as exc:
            raise ValueError(f"binning mapping {dict(binning)}: {exc}") from None
    raise ValueError("binning must be a named spec or a {count, lo, hi} mapping")


@dataclass(frozen=True)
class GroupedDataset:
    """Records of (binary group, value), optionally with extra named columns."""

    groups: np.ndarray
    values: np.ndarray
    extras: Mapping[str, np.ndarray] = field(default_factory=dict)
    value_name: str = "value"

    def __post_init__(self):
        g = np.asarray(self.groups, dtype=np.int64)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or v.ndim != 1 or g.shape != v.shape:
            raise ValueError("groups and values must be 1-d arrays of equal length")
        if g.size and (g.min() < 0 or g.max() > 1):
            raise ValueError("group labels must be 0 or 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        extras = {}
        for name, col in dict(self.extras).items():
            arr = np.asarray(col, dtype=float)
            if arr.shape != g.shape:
                raise ValueError(f"extra column {name!r} has mismatched length")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"extra column {name!r} contains non-finite values")
            extras[name] = arr
        object.__setattr__(self, "groups", g)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "extras", extras)

    @property
    def n(self) -> int:
        return int(self.groups.size)

    def column(self, name: str | None = None) -> np.ndarray:
        if name is None or name == self.value_name:
            return self.values
        try:
            return self.extras[name]
        except KeyError:
            raise KeyError(f"no column named {name!r}") from None


@dataclass(frozen=True)
class CountTable:
    """Cell counts over named axes, the group axis first.

    ``levels[j]`` holds the strictly increasing values of axis ``j``: the
    bin midpoints of a binned variable, the levels of a categorical one, or
    the distinct values that a column was observed to take.
    The order is checked where the levels are made (a :class:`BinningSpec`'s
    edges, the category levels given to :func:`build_table`; observed values
    come sorted), so a table does not check it again each time its counts
    are replaced.
    ``counts`` is an int64 array of shape ``domains``, and a record counted
    in cell ``(i, j, ...)`` reads ``levels[0][i], levels[1][j], ...``.
    """

    variables: tuple[str, ...]
    levels: tuple[np.ndarray, ...]
    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        levels = tuple(np.asarray(lv, dtype=float) for lv in self.levels)
        if len(self.variables) != c.ndim or c.shape != tuple(lv.size for lv in levels):
            raise ValueError("counts need one axis per variable, as long as its levels")
        if c.size and c.min() < 0:
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "levels", levels)

    @property
    def domains(self) -> tuple[int, ...]:
        return self.counts.shape

    @property
    def total_n(self) -> int:
        return int(self.counts.sum())


def discretize(values, spec: BinningSpec) -> np.ndarray:
    """Map each value to the bin whose half-open interval contains it.

    Values below the first edge map to bin 0; values at or above the last
    edge map to the last bin.
    """
    v = np.asarray(values, dtype=float)
    if np.any(np.isnan(v)):
        raise ValueError("cannot discretize NaN values")
    idx = np.searchsorted(spec.edges, v, side="right") - 1
    return np.clip(idx, 0, spec.bin_count - 1).astype(np.int64)


def samples_from_counts(table: CountTable) -> GroupedDataset:
    """Expand a table's counts into records, in cell order.

    A record takes its cell's levels: the first axis gives its group, the
    second its value and every further axis an extra column of that name.
    """
    cells = np.repeat(np.arange(table.counts.size), table.counts.ravel())
    codes = np.unravel_index(cells, table.domains)
    group, value, *extras = (lv[code] for lv, code in zip(table.levels, codes))
    names = table.variables
    return GroupedDataset(group.astype(np.int64), value, dict(zip(names[2:], extras)), value_name=names[1])


def _sniff_delimiter(sample: str) -> str:
    return ";" if sample.count(";") >= sample.count(",") else ","


def _malformed_rows(bad_rows: list[int]) -> IngestionError:
    """The error naming the first 20 bad rows and how many more there are."""
    shown = ", ".join(map(str, bad_rows[:20]))
    more = "" if len(bad_rows) <= 20 else f" (+{len(bad_rows) - 20} more)"
    return IngestionError(f"malformed rows: {shown}{more}", rows=bad_rows)


def save_grouped_csv(data: GroupedDataset, path) -> None:
    """Write `group,value[,extra columns]` with one row per record."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        names = list(data.extras)
        writer.writerow(["group", "value", *names])
        cols = [data.extras[n] for n in names]
        for i in range(data.n):
            writer.writerow(
                [int(data.groups[i]), repr(float(data.values[i])), *(repr(float(c[i])) for c in cols)]
            )


def load_csv(path) -> GroupedDataset:
    """Read a CSV whose format its header names.

    A header starting with ``group,value`` marks a file written by
    :func:`save_grouped_csv`: each row holds as many cells as the header, a
    0/1 group, the value and the extra columns. Any other header is taken
    for the public cardiovascular file, which needs ``height``, ``weight``
    and ``cardio`` columns, the only cells of a row that are read: value =
    BMI (weight in kg divided by squared height in meters), group = the
    cardio label. The delimiter is ``;`` or ``,``, whichever the start of
    the file holds more of. Any malformed row aborts ingestion and is
    reported by its 1-based row number after the header, blank lines
    counted; blank lines are otherwise skipped.
    """
    with Path(path).open(newline="", encoding="utf-8") as fh:
        head = fh.read(4096)
        fh.seek(0)
        reader = csv.reader(fh, delimiter=_sniff_delimiter(head))
        header = [h.strip() for h in next(reader, [])]
        names = [h.lower() for h in header]
        if names[:2] == ["group", "value"]:
            extra_names = header[2:]

            def parse(row: list[str]) -> list[float]:
                vals = [float(cell) for cell in row]
                if len(vals) != len(header) or vals[0] not in (0.0, 1.0):
                    raise ValueError
                return vals

        else:
            # A repeated column name reads its last column.
            columns = {name: j for j, name in enumerate(names)}
            missing = {"height", "weight", "cardio"} - set(columns)
            if missing:
                raise IngestionError(f"missing required columns: {sorted(missing)}")
            extra_names = []

            def parse(row: list[str]) -> list[float]:
                height = float(row[columns["height"]])
                weight = float(row[columns["weight"]])
                cardio = int(float(row[columns["cardio"]]))
                if height <= 0 or weight <= 0 or cardio not in (0, 1):
                    raise ValueError
                return [cardio, weight / (height / 100.0) ** 2]

        rows = []
        bad_rows = []
        for i, row in enumerate(reader, start=1):
            if not row:
                continue
            try:
                rows.append(parse(row))
            except (IndexError, OverflowError, ValueError):
                bad_rows.append(i)
        if bad_rows:
            raise _malformed_rows(bad_rows)
    arr = np.asarray(rows, dtype=float) if rows else np.zeros((0, 2 + len(extra_names)))
    extras = {name: arr[:, 2 + j] for j, name in enumerate(extra_names)}
    return GroupedDataset(arr[:, 0].astype(np.int64), arr[:, 1], extras)


def build_table(
    data: GroupedDataset, axes: Sequence[tuple[str | None, BinningSpec | Sequence[float] | None]]
) -> CountTable:
    """The records of ``data`` counted per cell: the group axis, then one axis per entry of ``axes``.

    The group axis has levels (0, 1) and reads ``data.groups`` as they are.
    Each further axis is a ``(column, encoder)`` pair, the column named as
    :meth:`GroupedDataset.column` reads it (``None`` for the value column).
    The encoder is a :class:`BinningSpec` (levels are its bin midpoints),
    the column's strictly increasing category levels, one of which every
    value must equal, or ``None`` for the column's observed distinct values.
    """
    if data.n == 0:
        raise ValueError("cannot build a table from an empty dataset")
    names, levels, flat = ["group"], [(0.0, 1.0)], data.groups
    for name, enc in axes:
        column = data.column(name)
        if enc is None:
            lv, codes = np.unique(column, return_inverse=True)
        elif isinstance(enc, BinningSpec):
            lv, codes = enc.midpoints(), discretize(column, enc)
        else:
            lv = np.asarray(enc, dtype=float)
            if not np.all(lv[1:] > lv[:-1]):
                raise ValueError(f"column {name!r} needs strictly increasing levels, got {enc}")
            codes = np.clip(np.searchsorted(lv, column), 0, lv.size - 1)
            if not np.array_equal(lv[codes], column):
                raise ValueError(f"column {name!r} contains values outside its declared levels")
        names.append(data.value_name if name is None else name)
        levels.append(lv)
        flat = flat * lv.size + codes
    shape = tuple(len(lv) for lv in levels)
    counts = np.bincount(flat, minlength=math.prod(shape)).reshape(shape)
    return CountTable(tuple(names), tuple(levels), counts)
