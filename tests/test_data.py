"""Binning, count tables, and CSV ingestion."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpsynth.data import (
    BinningSpec,
    CountTable,
    GroupedDataset,
    IngestionError,
    bmi_bins,
    build_table,
    discretize,
    gaussian_unit_bins,
    load_csv,
    psa_bins,
    resolve_binning,
    samples_from_counts,
    save_grouped_csv,
    uniform_bins,
)


def two_axis(counts, spec: BinningSpec) -> CountTable:
    """The (group, value) table of ``counts`` over ``spec``'s bins."""
    return CountTable(("group", "value"), ((0.0, 1.0), spec.midpoints()), counts)


class TestBinningSpec:
    def test_named_specs_have_stated_sizes(self):
        assert gaussian_unit_bins().bin_count == 100
        assert bmi_bins().bin_count == 24
        assert psa_bins().bin_count == 40

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            BinningSpec((0.0, 1.0, 1.0))

    def test_too_few_edges(self):
        with pytest.raises(ValueError):
            BinningSpec((0.0, 1.0))


class TestDiscretize:
    def test_bmi_first_bin(self):
        assert discretize([17.2], bmi_bins())[0] == 0

    def test_psa_overflow_clamps_to_last(self):
        assert discretize([45.0], psa_bins())[0] == 39

    def test_gaussian_bin_convention(self):
        # Bin labeled 50 covers [49.5, 50.5) and sits at index 49.
        assert discretize([50.2], gaussian_unit_bins())[0] == 49

    def test_underflow_clamps_to_first(self):
        assert discretize([-1000.0], gaussian_unit_bins())[0] == 0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            discretize([np.nan], bmi_bins())

    @given(st.integers(min_value=2, max_value=30))
    def test_idempotent_on_midpoints(self, count):
        spec = uniform_bins(-3.0, 7.0, count)
        mids = spec.midpoints()
        assert np.array_equal(discretize(mids, spec), np.arange(count))


class TestBuildHistogram:
    """The (group, binned value) table: ``build_table`` with one binned axis."""

    def test_single_cell(self):
        data = GroupedDataset([0, 0, 0], [1.0, 1.1, 1.2])
        hist = build_table(data, [(None, uniform_bins(0.0, 10.0, 5))])
        assert hist.total_n == 3
        assert hist.counts[0, 0] == 3
        assert hist.counts.sum() == 3

    def test_empty_rejected(self):
        for axes in ([(None, bmi_bins())], [(None, None)], [(None, (0.0, 1.0))]):
            with pytest.raises(ValueError, match="empty"):
                build_table(GroupedDataset([], []), axes)

    @given(st.lists(st.tuples(st.integers(0, 1), st.floats(-50, 150)), min_size=1, max_size=200))
    def test_conserves_counts_per_group(self, records):
        groups = [g for g, _ in records]
        values = [v for _, v in records]
        data = GroupedDataset(groups, values)
        hist = build_table(data, [(None, bmi_bins())])
        assert hist.counts[0].sum() == groups.count(0)
        assert hist.counts[1].sum() == groups.count(1)


class TestSamplesFromCounts:
    def test_midpoint_expansion(self):
        data = samples_from_counts(two_axis([[2, 0], [0, 1]], uniform_bins(0.0, 2.0, 2)))
        assert data.n == 3
        assert np.array_equal(data.groups, [0, 0, 1])
        assert np.array_equal(data.values, [0.5, 0.5, 1.5])

    def test_all_zero_counts(self):
        data = samples_from_counts(two_axis(np.zeros((2, 3), dtype=int), uniform_bins(0.0, 3.0, 3)))
        assert data.n == 0

    def test_further_axes_become_extra_columns_in_cell_order(self):
        counts = np.zeros((2, 2, 3), dtype=int)
        counts[1, 0, 2] = 2
        counts[0, 1, 0] = 1
        table = CountTable(("group", "age", "grade"), ((0.0, 1.0), (60.0, 70.0), (1.0, 2.0, 3.0)), counts)
        data = samples_from_counts(table)
        assert data.value_name == "age"
        assert np.array_equal(data.groups, [0, 1, 1])
        assert np.array_equal(data.values, [70.0, 60.0, 60.0])
        assert np.array_equal(data.extras["grade"], [1.0, 3.0, 3.0])

    @given(
        st.lists(st.integers(0, 5), min_size=8, max_size=8).map(
            lambda flat: np.array(flat).reshape(2, 4)
        )
    )
    def test_round_trip_through_histogram(self, counts):
        spec = uniform_bins(0.0, 8.0, 4)
        if counts.sum() == 0:
            return
        hist = build_table(samples_from_counts(two_axis(counts, spec)), [(None, spec)])
        assert np.array_equal(hist.counts, counts)


class TestGroupedDataset:
    def test_group_labels_validated(self):
        with pytest.raises(ValueError, match="0 or 1"):
            GroupedDataset([0, 2], [1.0, 2.0])
        with pytest.raises(ValueError, match="0 or 1"):
            GroupedDataset([-1, 1], [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GroupedDataset([0, 1], [1.0, np.inf])

    def test_column_access(self):
        data = GroupedDataset([0, 1], [1.0, 2.0], {"age": np.array([60.0, 70.0])})
        assert np.array_equal(data.column("age"), [60.0, 70.0])
        assert np.array_equal(data.column(), [1.0, 2.0])
        with pytest.raises(KeyError):
            data.column("missing")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestCardioCsv:
    def test_bmi_arithmetic(self, tmp_path):
        path = _write(
            tmp_path,
            "cardio.csv",
            "id;age;height;weight;cardio\n1;50;170;70;0\n2;60;160;80;1\n",
        )
        data = load_csv(path)
        assert data.n == 2
        assert data.values[0] == pytest.approx(24.2215, abs=1e-4)
        assert np.array_equal(data.groups, [0, 1])

    def test_comma_delimited_also_accepted(self, tmp_path):
        path = _write(tmp_path, "cardio.csv", "id,height,weight,cardio\n1,170,70,1\n2,160,80,0\n")
        data = load_csv(path)
        assert data.n == 2
        assert data.values[0] == pytest.approx(24.2215, abs=1e-4)
        assert np.array_equal(data.groups, [1, 0])

    def test_missing_column_rejected(self, tmp_path):
        path = _write(tmp_path, "cardio.csv", "id;age;height;weight\n1;50;170;70\n")
        with pytest.raises(IngestionError, match="cardio"):
            load_csv(path)

    def test_malformed_rows_reported_by_index(self, tmp_path):
        path = _write(
            tmp_path,
            "cardio.csv",
            "height;weight;cardio\n170;70;0\nabc;70;1\n175;;0\n170;70;inf\n",
        )
        with pytest.raises(IngestionError) as err:
            load_csv(path)
        assert err.value.rows == (2, 3, 4)

    def test_cells_beyond_the_named_columns_ignored(self, tmp_path):
        path = _write(tmp_path, "cardio.csv", "height;weight;cardio\n170;70;1;9\n160;80\n")
        with pytest.raises(IngestionError) as err:
            load_csv(path)
        assert err.value.rows == (2,)
        path = _write(tmp_path, "ok.csv", "height;weight;cardio\n170;70;1;9\n")
        assert np.array_equal(load_csv(path).groups, [1])

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = _write(tmp_path, "cardio.csv", "height;weight;cardio\n170;70;0\n\n160;80;1\n")
        assert np.array_equal(load_csv(path).groups, [0, 1])
        path = _write(tmp_path, "bad.csv", "height;weight;cardio\n170;70;0\n\nabc;70;1\n")
        with pytest.raises(IngestionError) as err:
            load_csv(path)
        assert err.value.rows == (3,)

    def test_many_bad_rows_counted_past_the_first_20(self, tmp_path):
        path = _write(tmp_path, "cardio.csv", "height;weight;cardio\n" + "170;70;2\n" * 25)
        with pytest.raises(IngestionError, match=r"malformed rows: 1, 2, .*, 20 \(\+5 more\)$") as err:
            load_csv(path)
        assert err.value.rows == tuple(range(1, 26))

    def test_full_file_has_70000_records(self, cardio_path):
        data = load_csv(cardio_path)
        assert data.n == 70_000

    def test_per_group_totals(self, cardio_path):
        data = load_csv(cardio_path)
        hist = build_table(data, [(None, bmi_bins())])
        assert hist.counts[0].sum() == 35_021
        assert hist.counts[1].sum() == 34_979


class TestGroupedCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        data = GroupedDataset([0, 1, 1], [1.5, 2.5, 3.5], {"age": np.array([60.0, 61.0, 62.0])})
        path = tmp_path / "d.csv"
        save_grouped_csv(data, path)
        back = load_csv(path)
        assert np.array_equal(back.groups, data.groups)
        assert np.array_equal(back.values, data.values)
        assert np.array_equal(back.extras["age"], data.extras["age"])

    def test_bad_header_rejected(self, tmp_path):
        # Without a group,value header the file is read as the cardio format.
        path = _write(tmp_path, "d.csv", "a,b\n1,2\n")
        with pytest.raises(IngestionError, match="missing required columns"):
            load_csv(path)

    def test_bad_rows_reported(self, tmp_path):
        path = _write(tmp_path, "d.csv", "group,value\n0,1.0\n7,2.0\nx,3.0\n")
        with pytest.raises(IngestionError) as err:
            load_csv(path)
        assert err.value.rows == (2, 3)

    def test_many_bad_rows_counted_past_the_first_20(self, tmp_path):
        path = _write(tmp_path, "d.csv", "group,value\n" + "0,x\n" * 25)
        with pytest.raises(IngestionError, match=r"malformed rows: 1, 2, .*, 20 \(\+5 more\)$") as err:
            load_csv(path)
        assert err.value.rows == tuple(range(1, 26))

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = _write(tmp_path, "d.csv", "group,value\n0,1.0\n\n1,2.0\n")
        assert np.array_equal(load_csv(path).values, [1.0, 2.0])
        path = _write(tmp_path, "bad.csv", "group,value\n0,1.0\n\n7,2.0\n")
        with pytest.raises(IngestionError) as err:
            load_csv(path)
        assert err.value.rows == (3,)


class TestLoadCsv:
    def test_grouped_header_read_as_grouped(self, tmp_path):
        path = _write(tmp_path, "cardio.csv", "group;value;age\n0;1.5;60\n1;2.5;61\n")
        data = load_csv(path)
        assert np.array_equal(data.values, [1.5, 2.5])
        assert np.array_equal(data.extras["age"], [60.0, 61.0])

    def test_other_header_read_as_cardio(self, tmp_path):
        path = _write(tmp_path, "d.csv", "id;height;weight;cardio\n1;170;70;0\n2;160;80;1\n")
        assert load_csv(path).values[0] == pytest.approx(24.2215, abs=1e-4)

    def test_grouped_file_reports_malformed_rows(self, tmp_path):
        path = _write(tmp_path, "d.csv", "group,value\n0,1.0\n1,x\n")
        with pytest.raises(IngestionError, match="malformed rows: 2"):
            load_csv(path)


class TestResolveBinning:
    def test_named_and_mapping(self):
        assert resolve_binning("psa40") == psa_bins()
        assert resolve_binning({"count": 4, "lo": 0, "hi": 8}) == uniform_bins(0.0, 8.0, 4)
        assert resolve_binning({"count": 4.0, "lo": 0.5, "hi": 8}) == uniform_bins(0.5, 8.0, 4)

    @pytest.mark.parametrize(
        "bad",
        [
            "bmi25",
            {"count": 4, "lo": 0},
            3,
            {"count": 10.7, "lo": 40, "hi": 60},
            {"count": 1, "lo": 40, "hi": 60},
            {"count": 4, "lo": True, "hi": 60},
            {"count": 4, "lo": 40, "hi": "2"},
            {"count": float("inf"), "lo": 40, "hi": 60},
            {"count": 4, "lo": 60, "hi": 40},
        ],
    )
    def test_bad_binning_rejected(self, bad):
        with pytest.raises(ValueError, match="binning"):
            resolve_binning(bad)


class TestCountTable:
    def test_histogram_is_the_two_axis_table(self):
        data = GroupedDataset([0, 1, 1], [0.5, 1.5, 1.6], value_name="bmi")
        table = build_table(data, [(None, uniform_bins(0.0, 2.0, 2))])
        assert table.variables == ("group", "bmi")
        assert table.domains == (2, 2)
        assert table.total_n == 3
        assert np.array_equal(table.counts, [[1, 0], [0, 2]])
        assert np.array_equal(table.levels[0], [0.0, 1.0])
        assert np.array_equal(table.levels[1], [0.5, 1.5])

    def test_categorical_levels_checked(self):
        # Every value must equal a level exactly, whichever side it misses on.
        for values in ([0.0, 0.5], [1e-9], [1.0000001], [-1e-9]):
            data = GroupedDataset(np.zeros(len(values), dtype=int), [0.0] * len(values), {"flag": values})
            with pytest.raises(ValueError, match="declared levels"):
                build_table(data, [("flag", (0.0, 1.0))])

    def test_mixed_columns(self):
        data = GroupedDataset([0, 1], [1.0, 3.0], {"x": [0.2, 0.8]}, value_name="score")
        table = build_table(data, [(None, (1.0, 2.0, 3.0)), ("x", uniform_bins(0.0, 1.0, 4))])
        assert table.variables == ("group", "score", "x")
        assert table.domains == (2, 3, 4)
        assert np.argwhere(table.counts).tolist() == [[0, 0, 0], [1, 2, 3]]
        assert np.array_equal(table.levels[1], [1.0, 2.0, 3.0])
        assert np.array_equal(table.levels[2], [0.125, 0.375, 0.625, 0.875])

    @pytest.mark.parametrize(
        "variables, levels, counts, match",
        [
            (("group", "value"), ((0.0, 1.0), (1.0, 2.0)), [[1, 0, 0], [0, 0, 0]], "one axis per variable"),
            (("group",), ((0.0, 1.0), (1.0, 2.0)), [[1, 0], [0, 0]], "one axis per variable"),
            (("group", "value"), ((0.0, 1.0), (1.0, 2.0)), [[1, -1], [0, 0]], "non-negative"),
        ],
        ids=["shape", "variables", "negative-count"],
    )
    def test_malformed_tables_rejected(self, variables, levels, counts, match):
        with pytest.raises(ValueError, match=match):
            CountTable(variables, levels, counts)

    @pytest.mark.parametrize("levels", [(1.0, 0.0), (0.0, 0.0, 1.0), (0.0, np.nan)])
    def test_category_levels_must_increase(self, levels):
        # searchsorted would place values by an unsorted order without a word.
        with pytest.raises(ValueError, match="strictly increasing"):
            build_table(GroupedDataset([0, 1], [1.0, 0.0]), [(None, levels)])

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3), st.floats(-1, 2)), min_size=1, max_size=50))
    def test_records_round_trip_through_build_table(self, records):
        def table_of(data: GroupedDataset) -> CountTable:
            return build_table(data, [(None, (0.0, 1.0, 2.0, 3.0)), ("x", uniform_bins(0.0, 1.0, 4))])

        groups, values, xs = (list(column) for column in zip(*records))
        table = table_of(GroupedDataset(groups, values, {"x": np.array(xs, dtype=float)}))
        assert table.total_n == len(records)
        assert np.array_equal(table_of(samples_from_counts(table)).counts, table.counts)


def counted_one_by_one(data: GroupedDataset, axes) -> tuple[list[list[float]], np.ndarray]:
    """The levels and counts of each axis, every record's cell worked out on its own and tallied in a Counter."""
    levels, codes = [[0.0, 1.0]], [[int(g) for g in data.groups]]
    for name, enc in axes:
        column = [float(v) for v in data.column(name)]
        if enc is None:
            lv = sorted(set(column))
            code = [lv.index(v) for v in column]
        elif isinstance(enc, BinningSpec):
            # The bin of v is the number of inner edges at or below it, so the end bins take the overflow.
            lv = [float(m) for m in enc.midpoints()]
            code = [sum(v >= e for e in enc.edges[1:-1]) for v in column]
        else:
            lv = list(enc)
            code = [lv.index(v) for v in column]
        levels.append(lv)
        codes.append(code)
    counts = np.zeros([len(lv) for lv in levels], dtype=np.int64)
    for cell, count in Counter(zip(*codes)).items():
        counts[cell] = count
    return levels, counts


AXIS_KINDS = {
    "binned": [(None, uniform_bins(0.0, 3.0, 4))],
    "declared": [("grade", (1.0, 2.0, 3.0))],
    "observed": [(None, None)],
    "mixed": [("grade", (1.0, 2.0, 3.0)), (None, None), ("x", uniform_bins(-1.0, 2.0, 5)), ("x", None)],
}


class TestBuildTable:
    records = st.lists(
        st.tuples(
            st.integers(0, 1),
            st.integers(-4, 10).map(lambda k: k / 2),  # half-integers, so that values tie and overflow the bins
            st.sampled_from([1.0, 2.0, 3.0]),
            st.floats(-1.5, 2.5),
        ),
        min_size=1,
        max_size=60,
    )

    @pytest.mark.parametrize("kind", sorted(AXIS_KINDS))
    @given(records=records)
    def test_counts_equal_records_counted_one_by_one(self, kind, records):
        groups, values, grades, xs = (list(column) for column in zip(*records))
        data = GroupedDataset(groups, values, {"grade": grades, "x": xs})
        axes = AXIS_KINDS[kind]
        table = build_table(data, axes)
        levels, counts = counted_one_by_one(data, axes)
        assert table.variables == ("group", *(data.value_name if name is None else name for name, _ in axes))
        assert [lv.tolist() for lv in table.levels] == levels
        assert np.array_equal(table.counts, counts)
        for axis, (name, enc) in enumerate(axes, start=1):
            if enc is None:
                assert np.array_equal(table.levels[axis], np.unique(data.column(name)))
