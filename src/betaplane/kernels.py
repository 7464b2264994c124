"""The Arakawa bracket, the dominant per-step cost besides the FFTs.

It reads the stencil neighbours as slices of wrap-padded copies;
tests/test_kernels.py checks it bit for bit against an ``np.roll`` form
and a plain-Python loop form of the same formula.
"""

from __future__ import annotations

import numpy as np


def arakawa(a: np.ndarray, b: np.ndarray, dx: float, dy: float) -> np.ndarray:
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
