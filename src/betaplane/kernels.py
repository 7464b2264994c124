"""The Arakawa bracket, the dominant per-step cost besides the FFTs.

The bracket reads its stencil neighbours as slices of wrap-padded
copies of its two fields, and it works through the grid in blocks of
whole rows. Each block forms the differences of ``b`` that the twelve
``b`` terms share once, into four block-sized arrays:

* ``dy = b(i, j+1) - b(i, j-1)`` on the block's rows and one row either
  side, read at rows i-1, i and i+1;
* ``dx = b(i+1, j) - b(i-1, j)`` on the block's columns and one column
  either side, read at columns j-1, j and j+1;
* ``e = b(i, j+1) - b(i+1, j)`` and ``f = b(i, j+1) - b(i-1, j)`` on
  the block grown by one row and one column; J3 reads ``e`` at (i, j)
  and (i-1, j-1), and ``f`` at (i, j) and (i+1, j-1).

The products are summed in place, in the order the formula is written,
into the block of the result, and the whole result is divided by
``12 dx dy`` once, in place. The four differences and two product
arrays are cut from one allocation per call, which every block reuses.

A block holds ``_BLOCK`` = 2**14 elements, so each of the six block
arrays is about 128 KiB of float64 and the block's working set stays in
a megabyte-sized L2 cache while each difference is read two or three
times. Larger blocks spill it, and smaller ones pay numpy's per-call
overhead more often.

The blocks and the shared differences change no bit: every element is
formed from the same operands in the same order as in the plain formula,
and tests/test_kernels.py checks the result bit for bit against an
``np.roll`` form and a plain-Python loop form of it.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 2**14


def _wrap_pad(f: np.ndarray) -> np.ndarray:
    """``np.pad(f, 1, mode="wrap")`` by slice copies."""
    nx, ny = f.shape
    p = np.empty((nx + 2, ny + 2), dtype=f.dtype)
    p[1:-1, 1:-1] = f
    p[0, 1:-1] = f[-1]
    p[-1, 1:-1] = f[0]
    p[:, 0] = p[:, -2]
    p[:, -1] = p[:, 1]
    return p


def arakawa(a: np.ndarray, b: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Nine-point Arakawa Jacobian J(a, b) = a_x b_y - a_y b_x.

    Average of the three second-order forms (J1 + J2 + J3) / 3, which
    makes sum J, sum a*J and sum b*J vanish to roundoff and gives exact
    antisymmetry under a <-> b.
    """
    nx, ny = a.shape
    ap = _wrap_pad(a)
    bp = _wrap_pad(b)
    dtype = np.result_type(a, b)
    out = np.empty((nx, ny), dtype=dtype)
    scale = 12.0 * dx * dy

    rows = min(nx, max(1, _BLOCK // ny))
    # One allocation serves every block: six contiguous arrays are cut
    # from its rows, sized to the block at hand.
    scratch = np.empty((6, (rows + 2) * (ny + 2)), dtype=dtype)

    for r0 in range(0, nx, rows):
        r1 = min(r0 + rows, nx)
        n = r1 - r0
        shapes = ((n + 2, ny), (n, ny + 2), (n + 1, ny + 1), (n + 1, ny + 1),
                  (n, ny), (n, ny))
        d_y, d_x, e, f, t, s = (
            buf[: h * w].reshape(h, w) for buf, (h, w) in zip(scratch, shapes)
        )

        def at(p, di, dj):
            """View of a padded field holding f[i + di, j + dj] at [i, j]."""
            return p[r0 + 1 + di : r1 + 1 + di, 1 + dj : 1 + dj + ny]

        # Padded row r0 + k is field row r0 - 1 + k; padded column c is
        # field column c - 1.
        np.subtract(bp[r0 : r1 + 2, 2:], bp[r0 : r1 + 2, :ny], out=d_y)
        np.subtract(bp[r0 + 2 : r1 + 2], bp[r0:r1], out=d_x)
        np.subtract(bp[r0 : r1 + 1, 1:], bp[r0 + 1 : r1 + 2, :-1], out=e)
        np.subtract(bp[r0 + 1 : r1 + 2, 1:], bp[r0 : r1 + 1, :-1], out=f)
        acc = out[r0:r1]

        # Keep the operands and operation order of the np.roll oracle in
        # tests/test_kernels.py: the result must equal it bit for bit.
        # j1
        np.subtract(at(ap, 1, 0), at(ap, -1, 0), out=acc)
        acc *= d_y[1:-1]
        np.subtract(at(ap, 0, 1), at(ap, 0, -1), out=s)
        s *= d_x[:, 1:-1]
        acc -= s

        # j2
        np.multiply(at(ap, 1, 0), d_y[2:], out=t)
        t -= np.multiply(at(ap, -1, 0), d_y[:-2], out=s)
        t -= np.multiply(at(ap, 0, 1), d_x[:, 2:], out=s)
        t += np.multiply(at(ap, 0, -1), d_x[:, :-2], out=s)
        acc += t

        # j3
        np.multiply(at(ap, 1, 1), e[1:, 1:], out=t)
        t -= np.multiply(at(ap, -1, -1), e[:-1, :-1], out=s)
        t -= np.multiply(at(ap, -1, 1), f[:-1, 1:], out=s)
        t += np.multiply(at(ap, 1, -1), f[1:, :-1], out=s)
        acc += t

    out /= scale
    return out
