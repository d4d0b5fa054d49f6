"""Time one set-up of a workload in a fresh interpreter and print it.

    python3 perfbench/setup_once.py WORKLOAD SEED WORKDIR

A set-up imports `asphere` from the checkout's src/, generates the seeded
inputs and writes them under WORKDIR; the line printed is the seconds it
took.  perfbench/run.py starts this between passes for its `setup_s`
samples: in a fresh interpreter every import the program needs is paid in
full, and the measuring process keeps none of the set-up's memory.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import setup  # noqa: E402

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    print(setup(workload, seed, workdir)[0])
