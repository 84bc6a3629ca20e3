import numpy as np
import pytest

from _synth import load_all_columns
from rssiloc.exceptions import (IoFailure, MalformedNumber, MissingColumn,
                                UnmappedLocation)
from rssiloc.ingest import (BEACON_COLUMNS, format_number, grid_zone,
                            load_ibeacon_csv, load_regression_csv, load_series_csv,
                            load_zone_mapping, sentinel_mask, write_csv)
from rssiloc.learners import ClassificationDataset, RegressionDataset


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestRegressionCsv:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual",
                           "-60,-61.5,-62,10,20"])
        ds = load_regression_csv(path)
        assert len(ds) == 1
        assert ds.features.shape == (1, 3)
        np.testing.assert_allclose(ds.features[0], [-60.0, -61.5, -62.0])
        np.testing.assert_allclose(ds.targets[0], [10.0, 20.0])

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["RSSI1,RSSI2,RSSI3,X_Actual", "-60,-61,-62,10"])
        with pytest.raises(MissingColumn):
            load_regression_csv(path)

    def test_too_few_rssi_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["RSSI1,RSSI2,X_Actual,Y_Actual", "-60,-61,1,2"])
        with pytest.raises(MissingColumn):
            load_regression_csv(path)

    def test_non_contiguous_rssi_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["RSSI1,RSSI2,RSSI4,X_Actual,Y_Actual",
                           "-60,-61,-62,1,2"])
        with pytest.raises(MissingColumn, match="RSSI3"):
            load_regression_csv(path)

    def test_malformed_number_locates_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual",
                           "-60,-61,-62,1,2",
                           "-60,oops,-62,1,2"])
        with pytest.raises(MalformedNumber, match="row 3.*RSSI2"):
            load_regression_csv(path)

    def test_full_size_testbed_file(self, tmp_path):
        # the reference testbed collected 4520 rows; a file of that size
        # loads intact
        rng = np.random.default_rng(0)
        path = tmp_path / "big.csv"
        ds = RegressionDataset(features=rng.uniform(-90, -30, (4520, 3)),
                               targets=rng.uniform(0, 300, (4520, 2)))
        write_csv(ds, path)
        assert len(load_regression_csv(path)) == 4520

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["note,RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual",
                           "hello,-60,-61,-62,1,2"])
        ds = load_regression_csv(path)
        assert ds.features.shape == (1, 3)

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\r\n"
                         b"-60,-61,-62,1,2\r\n")
        assert len(load_regression_csv(path)) == 1


class TestBeaconCsv:
    def header(self):
        return "location," + ",".join(BEACON_COLUMNS)

    def test_sentinel_row_with_mapping(self, tmp_path):
        path = tmp_path / "beacons.csv"
        write_lines(path, [self.header(),
                           "P01," + ",".join(["-200"] * 13)])
        ds = load_ibeacon_csv(path, {"P01": "C"})
        assert np.all(ds.features[0] == -200.0)
        np.testing.assert_array_equal(ds.one_hot[0], [0, 0, 1, 0])
        assert ds.labels[0] == 2

    def test_unmapped_location(self, tmp_path):
        path = tmp_path / "beacons.csv"
        write_lines(path, [self.header(),
                           "Q99," + ",".join(["-200"] * 13)])
        with pytest.raises(UnmappedLocation):
            load_ibeacon_csv(path, {"P01": "C"})

    def test_missing_beacon_column(self, tmp_path):
        path = tmp_path / "beacons.csv"
        write_lines(path, ["location," + ",".join(BEACON_COLUMNS[:-1]),
                           "P01," + ",".join(["-200"] * 12)])
        with pytest.raises(MissingColumn):
            load_ibeacon_csv(path, "grid")

    def test_labeled_set_size_loads_intact(self, tmp_path):
        # the public labeled set has 1420 instances; same-shape file loads
        rng = np.random.default_rng(1)
        path = tmp_path / "beacons.csv"
        rows = [self.header()]
        for i in range(1420):
            label = f"{chr(ord('A') + i % 20)}{(i % 18) + 1:02d}"
            values = rng.choice([-200, -75, -80, -68], size=13)
            rows.append(label + "," + ",".join(str(v) for v in values))
        write_lines(path, rows)
        ds = load_ibeacon_csv(path, "grid")
        assert len(ds) == 1420
        assert ds.one_hot.shape == (1420, 4)

    def test_sentinel_values_preserved(self, tmp_path):
        path = tmp_path / "beacons.csv"
        write_lines(path, [self.header(),
                           "K05,-200,-68," + ",".join(["-200"] * 11)])
        ds = load_ibeacon_csv(path, "grid")
        assert ds.features[0, 0] == -200.0
        assert ds.features[0, 1] == -68.0
        np.testing.assert_array_equal(sentinel_mask(ds.features[0]),
                                      [False, True] + [False] * 11)


class TestZoneMapping:
    def test_grid_quadrants(self):
        assert grid_zone("A01") == "A"
        assert grid_zone("A12") == "B"
        assert grid_zone("O02") == "C"
        assert grid_zone("P01") == "C"
        assert grid_zone("Z15") == "D"

    def test_grid_rejects_garbage(self):
        with pytest.raises(UnmappedLocation):
            grid_zone("not a label")

    def test_sidecar_file(self, tmp_path):
        path = tmp_path / "zones.txt"
        write_lines(path, ["# comment", "", "P01=C", "A01 = A"])
        mapping = load_zone_mapping(path)
        assert mapping == {"P01": "C", "A01": "A"}

    def test_sidecar_rejects_unknown_zone(self, tmp_path):
        path = tmp_path / "zones.txt"
        write_lines(path, ["P01=X"])
        with pytest.raises(UnmappedLocation):
            load_zone_mapping(path)


class TestWriteCsv:
    def test_regression_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = RegressionDataset(
            features=rng.uniform(-95.0, -30.0, (50, 4)),
            targets=rng.uniform(0.0, 400.0, (50, 2)),
            feature_names=("RSSI1", "RSSI2", "RSSI3", "RSSI4"))
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        back = load_regression_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.targets, ds.targets)
        assert back.feature_names == ds.feature_names

    def test_format_number_round_trip(self):
        rng = np.random.default_rng(3)
        for v in rng.uniform(-1e6, 1e6, 200):
            assert float(format_number(v)) == v
        for v in (0.1, -200.0, 1e-17, 12345.678901234567):
            assert float(format_number(v)) == v

    def test_classification_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 20
        labels = rng.integers(0, 4, n)
        from rssiloc.learners import one_hot_encode
        ds = ClassificationDataset(
            features=rng.uniform(-200, -60, (n, 13)),
            labels=labels,
            one_hot=one_hot_encode(labels, 4),
            locations=tuple(f"P{i:02d}" for i in range(n)))
        path = tmp_path / "cls.csv"
        write_csv(ds, path)
        mapping = {loc: "ABCD"[lab] for loc, lab in zip(ds.locations, labels)}
        back = load_ibeacon_csv(path, mapping)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_mapping_columns(self, tmp_path):
        path = tmp_path / "cols.csv"
        write_csv({"a": [1.5, 2.5], "b": ["x", "y"]}, path)
        cols = load_all_columns(path)
        assert cols == {"a": ["1.5", "2.5"], "b": ["x", "y"]}

    def test_unwritable_path_raises_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            write_csv({"a": [1.0]}, tmp_path / "no" / "such" / "dir.csv")

    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            write_csv({"a": [1.0], "b": [1.0, 2.0]}, target)
        assert not target.exists()

    def test_series_loader(self, tmp_path):
        path = tmp_path / "series.csv"
        write_lines(path, ["X_Pred,Y_Pred", "1,2", "3,4"])
        cols = load_series_csv(path, ["X_Pred", "Y_Pred"])
        np.testing.assert_array_equal(cols["X_Pred"], [1.0, 3.0])
        with pytest.raises(MissingColumn):
            load_series_csv(path, ["Z"])
