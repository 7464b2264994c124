"""Time the Arakawa bracket at a few grid sizes.

Usage: python benchmarks/bench_arakawa.py [N ...]

Prints the minimum over 20 calls of ``kernels.arakawa`` on random N x N
fields, the same for the ``np.roll`` oracle in tests/test_kernels.py,
and their ratio. The ratio is the number to compare between machines
and runs: a change in the machine's speed moves both times together.
Runs from a plain checkout: the package is imported from src/ and the
oracle from tests/ (which needs pytest and hypothesis importable).
"""

from __future__ import annotations

import sys
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from betaplane.kernels import arakawa  # noqa: E402
from test_kernels import arakawa_roll_oracle  # noqa: E402


def best(fn, repeats: int) -> float:
    return min(timeit.repeat(fn, number=1, repeat=repeats))


def bench(n: int, repeats: int = 20) -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    dx = dy = 2.0 * np.pi / n

    t = best(lambda: arakawa(a, b, dx, dy), repeats)
    t_roll = best(lambda: arakawa_roll_oracle(a, b, dx, dy), repeats)
    print(f"N={n:5d}  arakawa {t * 1e3:8.3f} ms  "
          f"np.roll oracle {t_roll * 1e3:8.3f} ms  ratio {t_roll / t:5.2f}")


if __name__ == "__main__":
    sizes = [int(s) for s in sys.argv[1:]] or [64, 128, 256, 512]
    for n in sizes:
        bench(n)
