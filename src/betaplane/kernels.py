"""Hot stencil kernels with numba and pure-numpy implementations.

The Arakawa bracket is the dominant per-step cost besides the FFTs, so
it gets an ``@njit`` loop kernel. The numpy fallback reads the stencil
neighbours as slices of wrap-padded copies and is selected via
BETAPLANE_NO_NUMBA=1 or when numba is missing (see betaplane._accel).
Bit-identity of the two paths is checked only where numba is installed;
without it, only the uncompiled loops are checked against numpy.
"""

from __future__ import annotations

import numpy as np

from ._accel import NUMBA_ENABLED, njit


def arakawa_numpy(a: np.ndarray, b: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Nine-point Arakawa Jacobian J(a, b) = a_x b_y - a_y b_x.

    Average of the three second-order forms (J1 + J2 + J3) / 3, which
    makes sum J, sum a*J and sum b*J vanish to roundoff and gives exact
    antisymmetry under a <-> b.
    """
    nx, ny = a.shape
    ap = np.pad(a, 1, mode="wrap")
    bp = np.pad(b, 1, mode="wrap")

    def at(p, di, dj):
        """View of a padded field holding f[i + di, j + dj] at [i, j]."""
        return p[1 + di : 1 + di + nx, 1 + dj : 1 + dj + ny]

    # Keep the operands and operation order of the np.roll oracle in
    # tests/test_kernels.py: the result must equal it bit for bit.
    j1 = (at(ap, 1, 0) - at(ap, -1, 0)) * (at(bp, 0, 1) - at(bp, 0, -1)) - (
        at(ap, 0, 1) - at(ap, 0, -1)
    ) * (at(bp, 1, 0) - at(bp, -1, 0))

    j2 = (
        at(ap, 1, 0) * (at(bp, 1, 1) - at(bp, 1, -1))
        - at(ap, -1, 0) * (at(bp, -1, 1) - at(bp, -1, -1))
        - at(ap, 0, 1) * (at(bp, 1, 1) - at(bp, -1, 1))
        + at(ap, 0, -1) * (at(bp, 1, -1) - at(bp, -1, -1))
    )

    j3 = (
        at(ap, 1, 1) * (at(bp, 0, 1) - at(bp, 1, 0))
        - at(ap, -1, -1) * (at(bp, -1, 0) - at(bp, 0, -1))
        - at(ap, -1, 1) * (at(bp, 0, 1) - at(bp, -1, 0))
        + at(ap, 1, -1) * (at(bp, 1, 0) - at(bp, 0, -1))
    )

    return (j1 + j2 + j3) / (12.0 * dx * dy)


def _arakawa_loops(a, b, dx, dy):  # pragma: no cover - numba-compiled twin below
    nx, ny = a.shape
    out = np.empty_like(a)
    for i in range(nx):
        ip = i + 1 if i + 1 < nx else 0
        im = i - 1 if i >= 1 else nx - 1
        for j in range(ny):
            jp = j + 1 if j + 1 < ny else 0
            jm = j - 1 if j >= 1 else ny - 1
            j1 = (a[ip, j] - a[im, j]) * (b[i, jp] - b[i, jm]) - (
                a[i, jp] - a[i, jm]
            ) * (b[ip, j] - b[im, j])
            j2 = (
                a[ip, j] * (b[ip, jp] - b[ip, jm])
                - a[im, j] * (b[im, jp] - b[im, jm])
                - a[i, jp] * (b[ip, jp] - b[im, jp])
                + a[i, jm] * (b[ip, jm] - b[im, jm])
            )
            j3 = (
                a[ip, jp] * (b[i, jp] - b[ip, j])
                - a[im, jm] * (b[im, j] - b[i, jm])
                - a[im, jp] * (b[i, jp] - b[im, j])
                + a[ip, jm] * (b[ip, j] - b[i, jm])
            )
            out[i, j] = (j1 + j2 + j3) / (12.0 * dx * dy)
    return out


if NUMBA_ENABLED:
    arakawa_numba = njit(cache=True)(_arakawa_loops)
    arakawa = arakawa_numba
else:
    arakawa_numba = None
    arakawa = arakawa_numpy
