import numpy as np
import pytest

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

    def test_rescale(self):
        ds = FunctionalDataset(
            ["a", "b"], [np.array([2.0, 4.0]), np.array([3.0])], [np.array([1.0, 2.0]), np.array([5.0])]
        )
        rescaled, (offset, scale) = ds.rescale_times()
        assert offset == 2.0 and scale == 2.0
        assert np.allclose(rescaled.times[0], [0.0, 1.0])
        assert np.allclose(rescaled.times[1], [0.5])
        rescaled.validate()


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
