import numpy as np
import pytest

from bregbayes.grids import (Grid, Signal, format_positional, grid1d, grid2d,
                             load_signal_csv, save_signal_csv, save_signal_pgm)


def test_grid_basics():
    g = grid2d(4, 8)
    assert g.dim == 2
    assert g.size == 32
    assert g.cell_widths() == (0.25, 0.125)
    np.testing.assert_allclose(grid1d(4).cell_centers(), [0.125, 0.375, 0.625, 0.875])


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Grid((0,))
    with pytest.raises(ValueError):
        Grid((2, 2, 2))


def test_signal_validation():
    g = grid1d(3)
    with pytest.raises(ValueError):
        Signal(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        Signal(g, [1.0, np.nan, 3.0])
    s = Signal(g, [1, 2, 3])
    assert s.values.dtype == np.float64
    with pytest.raises(ValueError):
        s.values[0] = 5.0  # immutable


def test_csv_roundtrip_1d(tmp_path):
    s = Signal(grid1d(5), [0.1, -2.5, 1e-17, 3.0, 0.7000000000000001])
    path = tmp_path / "sig.csv"
    save_signal_csv(s, path)
    back = load_signal_csv(path)
    assert back.grid.shape == (5,)
    np.testing.assert_array_equal(back.values, s.values)


def test_csv_roundtrip_2d(tmp_path):
    rng = np.random.default_rng(7)
    s = Signal(grid2d(3, 4), rng.standard_normal(12))
    path = tmp_path / "sig.csv"
    save_signal_csv(s, path)
    back = load_signal_csv(path)
    assert back.grid.shape == (3, 4)
    np.testing.assert_array_equal(back.values, s.values)


def test_format_positional_writes_numpys_bytes():
    rng = np.random.default_rng(8)
    values = np.concatenate([
        rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-30, 30, 20000),
        rng.standard_normal(1000), rng.integers(-10**6, 10**6, 100),
        [0.0, -0.0, 5e-324, 1e16, 1e22, 2.5e-5, 1e-5, 1e-4, 1e15, 0.1, 10.0,
         1.2345678901234567e16, 2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308,
         np.inf, -np.inf, np.nan]])
    assert format_positional(values) == [
        np.format_float_positional(v, unique=True) for v in values]


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,header\n1,2\n")
    with pytest.raises(ValueError):
        load_signal_csv(path)


def test_pgm_output(tmp_path):
    s = Signal(grid2d(2, 2), [0.0, 1.0, 0.5, 0.25])
    path = tmp_path / "img.pgm"
    save_signal_pgm(s, path)
    text = path.read_text().splitlines()
    assert text[0] == "P2"
    assert text[2] == "2 2"
    assert text[3] == "255"
    pix = [int(v) for row in text[4:] for v in row.split()]
    assert min(pix) == 0 and max(pix) == 255
