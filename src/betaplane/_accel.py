"""Kept only for the env line of ``perfbench/run.py``, which reads
``NUMBA_ENABLED``; nothing in the package imports this module.

The Arakawa bracket has one implementation, ``kernels.arakawa``.
"""

NUMBA_ENABLED = False
