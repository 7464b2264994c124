"""Binary snapshot format round-trips and error handling."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from betaplane.grid import Grid, GridConfigError, RealField
from betaplane.snapshot import MAGIC, SnapshotFormatError, read_snapshot, write_snapshot


def test_roundtrip_bit_exact(tmp_path):
    grid = Grid(8, 6, 2.5, 1.5)
    rng = np.random.default_rng(0)
    f = RealField(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "f.bpf"
    write_snapshot(path, f, time=1.25)
    back, t = read_snapshot(path)
    assert t == 1.25
    assert back.grid == grid
    assert np.array_equal(back.values, f.values)


def test_header_layout(tmp_path):
    grid = Grid(4, 4, 1.0, 2.0)
    path = tmp_path / "f.bpf"
    write_snapshot(path, RealField(grid, np.zeros(grid.shape)), time=3.0)
    raw = path.read_bytes()
    assert len(raw) == 36 + 8 * 16
    magic, nx, ny, lx, ly, t = struct.unpack_from("<4sIIddd", raw)
    assert magic == MAGIC == b"BPF1"
    assert (nx, ny, lx, ly, t) == (4, 4, 1.0, 2.0, 3.0)


def test_row_major_order(tmp_path):
    grid = Grid(4, 4, 1.0, 1.0)
    values = np.arange(16.0).reshape(4, 4)
    path = tmp_path / "f.bpf"
    write_snapshot(path, RealField(grid, values))
    raw = path.read_bytes()
    flat = np.frombuffer(raw, dtype="<f8", offset=36)
    assert np.array_equal(flat, np.arange(16.0))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bpf"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_truncated_file(tmp_path):
    grid = Grid(4, 4, 1.0, 1.0)
    path = tmp_path / "f.bpf"
    write_snapshot(path, RealField(grid, np.zeros(grid.shape)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "tiny.bpf"
    path.write_bytes(b"BPF1\0\0")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


@pytest.mark.parametrize("nx, ny", [(3, 4), (2, 2)])
def test_bad_grid_header_names_file(tmp_path, nx, ny):
    path = tmp_path / "grid.bpf"
    path.write_bytes(struct.pack("<4sIIddd", MAGIC, nx, ny, 1.0, 1.0, 0.0)
                     + bytes(8 * nx * ny))
    with pytest.raises(SnapshotFormatError) as info:
        read_snapshot(path)
    assert str(path) in str(info.value)
    assert isinstance(info.value.__cause__, GridConfigError)


def test_non_finite_payload_names_file(tmp_path):
    grid = Grid(4, 4, 1.0, 1.0)
    path = tmp_path / "nan.bpf"
    write_snapshot(path, RealField(grid, np.zeros(grid.shape)))
    raw = bytearray(path.read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError) as info:
        read_snapshot(path)
    assert str(path) in str(info.value)
    assert type(info.value.__cause__) is ValueError
