"""Time the Arakawa bracket at a few grid sizes.

Usage: python benchmarks/bench_arakawa.py [N ...]

Prints the minimum over 20 calls of ``kernels.arakawa`` on random N x N
fields. Runs from a plain checkout: the package is imported from src/.
"""

from __future__ import annotations

import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from betaplane.kernels import arakawa  # noqa: E402


def bench(n: int, repeats: int = 20) -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    dx = dy = 2.0 * np.pi / n

    t = min(timeit.repeat(lambda: arakawa(a, b, dx, dy), number=1,
                          repeat=repeats))
    print(f"N={n:5d}  arakawa {t * 1e3:8.3f} ms")


if __name__ == "__main__":
    sizes = [int(s) for s in sys.argv[1:]] or [64, 128, 256, 512]
    for n in sizes:
        bench(n)
