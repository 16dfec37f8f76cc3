import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmpfpca.data import FunctionalDataset, read_dataset_csv, write_dataset_csv
from vmpfpca.simulate import SimConfig, generate


class TestDataset:
    def test_times_sorted_on_construction(self):
        ds = FunctionalDataset(["a"] * 3, [0.9, 0.1, 0.5], [3.0, 1.0, 2.0])
        assert np.array_equal(ds.times, [0.1, 0.5, 0.9])
        assert np.array_equal(ds.values, [1.0, 2.0, 3.0])
        assert np.array_equal(ds.offsets, [0, 3])

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="at least two"):
            FunctionalDataset([], [], []).validate()
        with pytest.raises(ValueError, match="at least two"):
            FunctionalDataset(["a"], [0.5], [1.0]).validate()
        with pytest.raises(ValueError, match="curve 'b' has times outside"):
            FunctionalDataset(["a", "b", "b"], [0.5, 0.2, 1.5], [0.0, 1.0, 2.0]).validate()
        with pytest.raises(ValueError, match="zero variance"):
            FunctionalDataset(["a", "b"], [0.5, 0.2], [1.0, 1.0]).validate()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_response_rejected_without_warning(self):
        ds = FunctionalDataset(["a", "a", "b"], [0.1, 0.2, 0.3], [1e154, -1e154, 2.0])
        with pytest.raises(ValueError, match="the response overflows"):
            ds.validate()

    def test_list_lengths_checked_before_pairing(self):
        # pairing labels with times would silently drop the last label
        t = np.linspace(0.0, 1.0, 2)
        with pytest.raises(ValueError, match="3 labels, 2 times, 2 values"):
            FunctionalDataset(["a", "b", "c"], t, t**2)

    @pytest.mark.parametrize("size", [5, 2], ids=["longer", "shorter"])
    def test_value_length_checked_on_construction(self, size):
        # pairing by the sorted times would drop extra values or index past short ones
        with pytest.raises(ValueError, match=f"3 times, {size} values"):
            FunctionalDataset(["a", "a", "b"], np.linspace(0.0, 1.0, 3), np.arange(float(size)))

    @pytest.mark.parametrize("column", ["times", "values"])
    def test_non_finite_entry_rejected_on_construction(self, column):
        rows = {"times": [0.2, 0.4, 0.5], "values": [1.0, 1.0, 1.0]}
        rows[column][2] = np.nan
        with pytest.raises(ValueError, match="curve 'b' contains non-finite entries"):
            FunctionalDataset(["a", "a", "b"], rows["times"], rows["values"])

    def test_rescale(self):
        ds = FunctionalDataset(["a", "a", "b"], [4.0, 2.0, 3.0], [2.0, 1.0, 5.0])
        rescaled, (offset, scale) = ds.rescale_times()
        assert offset == 2.0 and scale == 2.0
        assert rescaled.curve_ids == ds.curve_ids
        assert np.array_equal(rescaled.offsets, ds.offsets)
        assert np.allclose(rescaled.times, [0.0, 1.0, 0.5])
        assert np.array_equal(rescaled.values, ds.values)
        rescaled.validate()

    def test_rescale_without_rows_says_so(self):
        with pytest.raises(ValueError, match="cannot rescale: the dataset has no rows"):
            FunctionalDataset([], [], []).rescale_times()


ROW_ENTRIES = st.floats(0.0, 1.0) | st.just(float("nan"))
ROWS = st.lists(st.tuples(st.sampled_from("abcd"), ROW_ENTRIES, ROW_ENTRIES), max_size=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(ROWS, st.tuples(*[st.integers(0, 1)] * 3))
def test_construction_keeps_lengths_or_raises_value_error(rows, trim):
    """Any row columns, of equal lengths or with one or more cut short, either
    build a dataset that keeps every row, grouped into one curve per distinct
    label, or raise ValueError; never IndexError, never a dropped row."""
    labels, times, values = (
        [row[k] for row in rows][: len(rows) - cut] for k, cut in enumerate(trim)
    )
    try:
        dataset = FunctionalDataset(labels, times, values)
    except ValueError:
        return
    assert dataset.num_observations == len(labels) == len(times) == len(values)
    assert dataset.curve_ids == list(dict.fromkeys(labels))
    counts = np.diff(dataset.offsets)
    assert counts.tolist() == [labels.count(c) for c in dataset.curve_ids]
    row_curves = np.repeat(dataset.curve_ids, counts).tolist()
    assert sorted(zip(labels, times, values)) == sorted(
        zip(row_curves, dataset.times.tolist(), dataset.values.tolist())
    )


FINITE_ROWS = st.lists(
    st.tuples(
        st.sampled_from("abcd"),
        st.integers(0, 4).map(lambda k: k / 4) | st.floats(0.0, 1.0),
        st.integers(-2, 2).map(float) | st.floats(-10.0, 10.0),
    ),
    min_size=1,
    max_size=20,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(FINITE_ROWS, st.randoms(use_true_random=False))
def test_shuffled_rows_give_an_identical_dataset(rows, random):
    """Rows in any order that keeps each curve's first row in first-appearance
    order build the same dataset, tied times included."""
    labels = [label for label, _, _ in rows]
    firsts = [labels.index(c) for c in dict.fromkeys(labels)]
    rest = [i for i in range(len(rows)) if i not in firsts]
    random.shuffle(rest)
    shuffled = [rows[i] for i in firsts + rest]
    a, b = (FunctionalDataset(*zip(*r)) for r in (rows, shuffled))
    assert a.curve_ids == b.curve_ids
    for name in ("times", "values", "offsets"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


class TestCsvRoundTrip:
    def test_write_then_read_identity(self, tmp_path):
        dataset, _ = generate(SimConfig(num_curves=9, seed=5))
        path = tmp_path / "data.csv"
        write_dataset_csv(dataset, path)
        back = read_dataset_csv(path)
        assert back.curve_ids == dataset.curve_ids
        assert np.array_equal(back.offsets, dataset.offsets)
        assert np.array_equal(back.times, dataset.times)
        assert np.array_equal(back.values, dataset.values)

    def test_rows_need_not_be_grouped(self, tmp_path):
        path = tmp_path / "scrambled.csv"
        path.write_text(
            "curve_id,t,y\n"
            "b,0.5,2.0\n"
            "a,0.9,1.5\n"
            "b,0.25,4.0\n"
            "a,0.1,0.5\n",
            encoding="utf-8",
        )
        ds = read_dataset_csv(path)
        assert ds.curve_ids == ["b", "a"]  # first-appearance order
        assert np.array_equal(ds.offsets, [0, 2, 4])
        assert np.array_equal(ds.times, [0.25, 0.5, 0.1, 0.9])
        assert np.array_equal(ds.values, [4.0, 2.0, 0.5, 1.5])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,time,value\na,0.1,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_dataset_csv(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("curve_id,t,y\na,0.1,not_a_number\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            read_dataset_csv(path)

    def test_error_names_the_file_line_after_a_multi_line_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('curve_id,t,y\n"a\nb",0.1,1.0\nc,0.2,oops\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.csv:4: could not convert"):
            read_dataset_csv(path)

    def test_over_long_field_reports_line(self, tmp_path):
        path = tmp_path / "long.csv"
        field = "1" * (csv.field_size_limit() + 1)
        path.write_text(f"curve_id,t,y\na,0.1,1.0\nb,{field},2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"long\.csv:3: field larger than field limit"):
            read_dataset_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("curve_id,t,y\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data rows"):
            read_dataset_csv(path)
