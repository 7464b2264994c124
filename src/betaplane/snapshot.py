"""Binary field snapshots.

Layout: 36-byte header = magic ``BPF1``, u32 nx, u32 ny, f64 lx, f64 ly,
f64 time, all little-endian, followed by nx*ny little-endian f64 values
in row-major order (x index fastest varying last, i.e. C order [i, j]).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import Grid, RealField

MAGIC = b"BPF1"
_HEADER = struct.Struct("<4sIIddd")

assert _HEADER.size == 36


class SnapshotFormatError(ValueError):
    """A file that does not hold a valid BPF1 field; names the file."""


def write_snapshot(path, f: RealField, time: float = 0.0) -> None:
    grid = f.grid
    header = _HEADER.pack(MAGIC, grid.nx, grid.ny, grid.lx, grid.ly, time)
    data = np.ascontiguousarray(f.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_snapshot(path) -> tuple[RealField, float]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated header")
    magic, nx, ny, lx, ly, time = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + 8 * nx * ny
    if len(raw) != expected:
        raise SnapshotFormatError(
            f"{path}: expected {expected} bytes for {nx}x{ny}, got {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(nx, ny)
    try:
        field = RealField(Grid(nx, ny, lx, ly), values.astype(np.float64))
    except ValueError as exc:  # a bad grid or non-finite values
        raise SnapshotFormatError(f"{path}: {exc}") from exc
    return field, time
