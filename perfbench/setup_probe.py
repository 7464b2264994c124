"""Time betaplane's set-up in a fresh process and print it in seconds.

Usage: python3 setup_probe.py SRC_DIR [--config INI]

Set-up is ``import betaplane`` and, for a solver workload, the start of
``betaplane run``: ``parse_config``, ``generate_initial_condition`` and
``auto_dt``. Interpreter start-up is not included.
"""

import sys
from time import perf_counter

t0 = perf_counter()


def main(argv: list[str]) -> None:
    sys.path.insert(0, argv[0])
    import betaplane

    if argv[1:2] == ["--config"]:
        from betaplane.config import generate_initial_condition
        from betaplane.dynamics import auto_dt

        with open(argv[2], encoding="utf-8") as fh:
            cfg = betaplane.parse_config(fh.read())
        auto_dt(generate_initial_condition(cfg))
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
