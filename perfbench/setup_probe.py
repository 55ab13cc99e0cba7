"""Times ``import agemon.cli`` in the interpreter that runs this file.

    python3 -I perfbench/setup_probe.py <src directory>

prints the CPU seconds of the import, the CPU seconds of a Python-level
calibration loop run just before and just after it, and the path agemon
was imported from. Importing this module only defines ``python_loop``.
"""

import sys
from time import process_time

# iterations of python_loop that calibrate one import
SETUP_LOOP = 500_000


def python_loop(iterations: int) -> float:
    """CPU seconds of a fixed loop of float arithmetic and dict stores,
    the interpreter-level kind of work."""
    start = process_time()
    table = {}
    total = 0.0
    for i in range(iterations):
        total += (i * 0.5) ** 0.5
        table[i & 1023] = total
    return process_time() - start


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    before = python_loop(SETUP_LOOP)
    start = process_time()
    import agemon.cli

    seconds = process_time() - start
    after = python_loop(SETUP_LOOP)
    print(seconds, before, after, agemon.cli.__file__)


if __name__ == "__main__":
    main()
