"""Grids on the unit interval / unit square, signals, and signal
serialization (CSV / PGM)."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Regular grid on the unit interval / unit square.

    ``shape`` is ``(n,)`` for 1D or ``(rows, cols)`` for 2D; every axis has
    length 1 and pixel i sits at its cell center.
    """

    shape: tuple[int, ...]

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        if len(shape) not in (1, 2):
            raise ValueError(f"grid must be 1D or 2D, got shape {shape}")
        if any(s <= 0 for s in shape):
            raise ValueError(f"grid shape must be positive, got {shape}")
        object.__setattr__(self, "shape", shape)

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def cell_widths(self) -> tuple[float, ...]:
        return tuple(1.0 / s for s in self.shape)

    def cell_centers(self, axis: int = 0) -> np.ndarray:
        """Coordinates in [0, 1] of the cell centers along one axis."""
        n = self.shape[axis]
        return (np.arange(n) + 0.5) * (1.0 / n)


def grid1d(n: int) -> Grid:
    return Grid((n,))


def grid2d(rows: int, cols: int | None = None) -> Grid:
    return Grid((rows, rows if cols is None else cols))


@dataclass(frozen=True)
class Signal:
    """A real-valued function sampled on a grid, stored as a flat vector."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).reshape(-1).copy()
        if values.size != self.grid.size:
            raise ValueError(
                f"signal length {values.size} != grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("signal values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def as_image(self) -> np.ndarray:
        """Values reshaped to the grid shape (read-only view)."""
        return self.values.reshape(self.grid.shape)


def as_vector(u) -> np.ndarray:
    """A Signal's values, or an array-like as float64 whose trailing axis is
    the vector: 1-D is one vector, 2-D a block of vectors, one per row."""
    if isinstance(u, Signal):
        return u.values
    return np.atleast_1d(np.asarray(u, dtype=np.float64))


def row_dot(a: np.ndarray, b: np.ndarray):
    """Dot products over the trailing axis, row by row; for two vectors a
    float, bit for bit ``a @ b`` (each row takes the same vector dot)."""
    d = (a[..., None, :] @ b[..., :, None])[..., 0, 0]
    return float(d) if d.ndim == 0 else d


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_CSV_HEADER = "rows,cols"


def format_positional(values) -> list[str]:
    """The strings ``np.format_float_positional(v, unique=True)`` writes for
    float64 ``values``, at about half the cost: ``repr`` less a trailing 0
    where it is positional, numpy for repr's exponent forms (|v| < 1e-4 or
    |v| >= 1e16)."""
    strs = map(repr, np.asarray(values, dtype=np.float64).tolist())
    return [np.format_float_positional(float(t), unique=True) if "e" in t
            else t[:-1] if t.endswith(".0") else t for t in strs]


def save_signal_csv(sig: Signal, path) -> None:
    """Write a signal as CSV.

    Format: a literal ``rows,cols`` header line, a ``<rows>,<cols>``
    dimension line, then one value per line in row-major order with full
    float64 precision. 1D signals are written as a single row.
    """
    shape = sig.grid.shape
    rows, cols = (1, shape[0]) if len(shape) == 1 else shape
    lines = [_CSV_HEADER, f"{rows},{cols}"]
    lines.extend(format_positional(sig.values))
    Path(path).write_text("\n".join(lines) + "\n")


def load_signal_csv(path) -> Signal:
    """Read a signal written by :func:`save_signal_csv`."""
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0].strip() != _CSV_HEADER:
        raise ValueError(f"{path}: missing '{_CSV_HEADER}' header")
    try:
        rows, cols = (int(t) for t in text[1].split(","))
    except Exception as exc:
        raise ValueError(f"{path}: bad dimension line {text[1]!r}") from exc
    values = np.array([float(t) for t in text[2:]], dtype=np.float64)
    if values.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, got {values.size}")
    grid = grid1d(cols) if rows == 1 else grid2d(rows, cols)
    return Signal(grid, values)


def save_signal_pgm(sig: Signal, path) -> None:
    """Write a linearly rescaled P2 PGM image for visual inspection only."""
    img = np.atleast_2d(sig.as_image())
    lo, hi = float(img.min()), float(img.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pix = np.round((img - lo) * scale).astype(int)
    rows, cols = pix.shape
    lines = ["P2", f"# rescaled from [{lo:g}, {hi:g}]", f"{cols} {rows}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in pix)
    Path(path).write_text("\n".join(lines) + "\n")
