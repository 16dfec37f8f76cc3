import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmpfpca.data import FunctionalDataset, read_dataset_csv, write_dataset_csv
from vmpfpca.simulate import SimConfig, generate


class TestDataset:
    def test_times_sorted_on_construction(self):
        ds = FunctionalDataset(["a"], [np.array([0.9, 0.1, 0.5])], [np.array([3.0, 1.0, 2.0])])
        assert np.array_equal(ds.times[0], [0.1, 0.5, 0.9])
        assert np.array_equal(ds.values[0], [1.0, 2.0, 3.0])

    def test_validation_errors(self):
        ok_t, ok_y = np.array([0.5]), np.array([1.0])
        with pytest.raises(ValueError, match="no curves"):
            FunctionalDataset([], [], []).validate()
        with pytest.raises(ValueError, match="at least two"):
            FunctionalDataset(["a"], [ok_t], [ok_y]).validate()
        with pytest.raises(ValueError, match="outside"):
            FunctionalDataset(["a", "b"], [np.array([1.5]), ok_t], [np.array([0.0]), ok_y]).validate()
        with pytest.raises(ValueError, match="no observations"):
            FunctionalDataset(["a", "b"], [np.array([]), ok_t], [np.array([]), ok_y]).validate()
        with pytest.raises(ValueError, match="duplicate"):
            FunctionalDataset(
                ["a", "a"], [np.array([0.1]), np.array([0.2])], [np.array([1.0]), np.array([2.0])]
            ).validate()

    def test_list_lengths_checked_before_pairing(self):
        # pairing times with values would silently drop the third time array
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="mismatched lengths"):
            FunctionalDataset(["a", "b"], [t, t, t], [t, t**2])

    @pytest.mark.parametrize("size", [5, 2], ids=["longer", "shorter"])
    def test_value_length_checked_on_construction(self, size):
        # pairing by the sorted times would drop extra values or index past short ones
        t = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="curve 'a' has mismatched time/value lengths"):
            FunctionalDataset(["a", "b"], [t, t], [np.arange(float(size)), np.arange(3.0)])

    @pytest.mark.parametrize("column", ["times", "values"])
    def test_non_finite_entry_rejected_on_construction(self, column):
        arrays = {"times": [np.array([0.2, 0.4]), np.array([0.5])], "values": [np.ones(2), np.ones(1)]}
        arrays[column][1] = np.array([np.nan])
        with pytest.raises(ValueError, match="curve 'b' contains non-finite entries"):
            FunctionalDataset(["a", "b"], arrays["times"], arrays["values"])

    def test_rescale(self):
        ds = FunctionalDataset(
            ["a", "b"], [np.array([2.0, 4.0]), np.array([3.0])], [np.array([1.0, 2.0]), np.array([5.0])]
        )
        rescaled, (offset, scale) = ds.rescale_times()
        assert offset == 2.0 and scale == 2.0
        assert np.allclose(rescaled.times[0], [0.0, 1.0])
        assert np.allclose(rescaled.times[1], [0.5])
        rescaled.validate()


CURVE_ARRAYS = st.lists(
    st.lists(st.floats(0.0, 1.0) | st.just(float("nan")), max_size=6), min_size=1, max_size=4
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(CURVE_ARRAYS, CURVE_ARRAYS)
def test_construction_keeps_lengths_or_raises_value_error(times, values):
    """Any per-curve arrays either build a dataset whose arrays keep their input
    lengths, or raise ValueError; never IndexError, never a truncated curve."""
    values = (values * len(times))[: len(times)]  # one value array per curve
    try:
        dataset = FunctionalDataset([str(i) for i in range(len(times))], times, values)
    except ValueError:
        return
    assert [t.size for t in dataset.times] == [len(t) for t in times]
    assert [y.size for y in dataset.values] == [len(y) for y in values]


class TestCsvRoundTrip:
    def test_write_then_read_identity(self, tmp_path):
        dataset, _ = generate(SimConfig(num_curves=9, seed=5))
        path = tmp_path / "data.csv"
        write_dataset_csv(dataset, path)
        back = read_dataset_csv(path)
        assert back.curve_ids == dataset.curve_ids
        for t1, t2 in zip(back.times, dataset.times):
            assert np.array_equal(t1, t2)
        for y1, y2 in zip(back.values, dataset.values):
            assert np.array_equal(y1, y2)

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
        assert np.array_equal(ds.times[0], [0.25, 0.5])
        assert np.array_equal(ds.values[0], [4.0, 2.0])
        assert np.array_equal(ds.times[1], [0.1, 0.9])

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

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("curve_id,t,y\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data rows"):
            read_dataset_csv(path)
