"""Regression tests for defects that once escaped their documented contract."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssiloc.cli import main
from rssiloc.exceptions import MalformedNumber
from rssiloc.filters import gaussian_filter
from rssiloc.ingest import load_all_columns, load_regression_csv


class TestGaussianFilterLength:
    def test_kernel_longer_than_signal(self):
        # sigma 2 gives a 13-tap kernel; "same" convolution used to return
        # max(13, 5) samples instead of 5
        out = gaussian_filter([-60.0, -61.0, -59.0, -62.0, -60.0], 2.0)
        assert out.shape == (5,)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 40), sigma=st.floats(0.05, 20.0),
           level=st.floats(-120.0, 0.0))
    def test_length_and_constants_preserved(self, n, sigma, level):
        out = gaussian_filter(np.full(n, level), sigma)
        assert out.shape == (n,)
        np.testing.assert_allclose(out, level, rtol=1e-12, atol=1e-12)

    def test_long_signal_unchanged_by_the_fix(self):
        # with the kernel shorter than the signal, the output is the
        # renormalized "same" convolution, bit for bit
        sig = np.random.default_rng(3).normal(-60.0, 3.0, 50)
        kernel = np.exp(-np.arange(-3.0, 4.0) ** 2 / 2.0)
        kernel /= kernel.sum()
        expected = (np.convolve(sig, kernel, mode="same")
                    / np.convolve(np.ones(50), kernel, mode="same"))
        np.testing.assert_array_equal(gaussian_filter(sig, 1.0), expected)


class TestRaggedCsvRow:
    def write(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n"
                        "-60,-61,-62,10,20\n"
                        "-60,-61\n")
        return path

    def test_loaders_name_the_line(self, tmp_path):
        path = self.write(tmp_path)
        for load in (load_all_columns, load_regression_csv):
            with pytest.raises(MalformedNumber, match="line 3"):
                load(path)

    def test_filter_exits_3_without_traceback(self, tmp_path, capsys):
        path = self.write(tmp_path)
        code = main(["filter", "--filter", "ma", "--window", "3", "-i",
                     str(path), "-o", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert "line 3" in err and "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()
