"""One set-up sample: a fresh interpreter imports zeckmix, builds one
workload's inputs and prints CLOCK_MONOTONIC at that moment, which the
parent compares with the moment it started this process.

Usage: python3 zbench/setup_child.py <workload> <seed> <workdir>
"""

import sys
import time
from pathlib import Path


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from harness import load_golden

    import workloads

    workloads.build(workload, seed, load_golden()["pools"], workdir)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
