#!/usr/bin/env python3
"""Cold-start times of fresh `asphere` processes, for one or more source trees.

For each tree under `--src` it starts fresh interpreters that run two steps:
`import asphere, asphere.cli`, and `asphere check` on a small fixture (the
console script's `main`).  Each step runs without bytecode for the package
(its modules compiled from source, nothing written) and with cached
bytecode.  Runs alternate between the trees, so a drift of the host's speed
meets every tree alike.  Bytecode goes to temporary PYTHONPYCACHEPREFIX
directories, so nothing is written into a checkout: one per mode, both
warmed by an untimed run of each tree; the trees' part of the one for runs
without bytecode is then deleted, and those runs pass -B so it stays away.
The interpreter's own modules are cached in every run.

It prints the median wall time of each tree, step and mode, the median time
of the import itself measured inside the import runs, and the median of a
bare interpreter (`-c pass`) beside them.

Usage: python scripts/cold_start.py --src src [DIR ...] --runs 25
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FIXTURE = "gens: x y\nrel r1: x y x^-1 y^-2\nrel r2: y x y^-1 x^-2\n"
IMPORT = "import time; t = time.perf_counter(); import asphere, asphere.cli; print(time.perf_counter() - t)"
CHECK = "import sys; from asphere.cli import main; sys.exit(main(sys.argv[1:]))"
MODES = ("no bytecode", "cached")


def timed(argv: list[str], env: dict) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return wall, proc.stdout


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, nargs="+", required=True, help="directories holding the asphere package")
    parser.add_argument("--runs", type=int, default=25, help="timed runs per tree, step and mode (default 25)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be positive")
    trees = [src.resolve() for src in args.src]
    if len(set(trees)) < len(trees):
        parser.error("--src names one tree twice; time a copy of it instead")
    for src in trees:
        if not (src / "asphere" / "__init__.py").is_file():
            parser.error(f"no asphere package under {src}")

    with tempfile.TemporaryDirectory() as tmp:
        fixture = Path(tmp) / "p.txt"
        fixture.write_text(FIXTURE)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        envs = {
            (src, mode): {**env, "PYTHONPATH": str(src), "PYTHONPYCACHEPREFIX": str(Path(tmp) / mode)}
            for src in trees
            for mode in MODES
        }
        steps = {"import": [sys.executable, "-c", IMPORT], "check": [sys.executable, "-c", CHECK, "check", str(fixture)]}
        for (src, mode), run_env in envs.items():
            timed(steps["check"], run_env)
            if mode == "no bytecode":
                shutil.rmtree(Path(tmp) / mode / src.relative_to(src.anchor))
        bare_env = envs[trees[0], "cached"]
        timed([sys.executable, "-c", "pass"], bare_env)

        walls = {(src, step, mode): [] for src in trees for step in steps for mode in MODES}
        imports = {(src, mode): [] for src in trees for mode in MODES}
        bare = []
        for _ in range(args.runs):
            bare.append(timed([sys.executable, "-c", "pass"], bare_env)[0])
            for mode in MODES:
                flags = ["-B"] if mode == "no bytecode" else []
                for step, (exe, *rest) in steps.items():
                    for src in trees:
                        wall, out = timed([exe, *flags, *rest], envs[src, mode])
                        walls[src, step, mode].append(wall)
                        if step == "import":
                            imports[src, mode].append(float(out))

    def ms(xs: list[float]) -> str:
        return f"{statistics.median(xs) * 1000:8.1f} ms"

    print(f"median of {args.runs} alternated fresh processes; bare interpreter {ms(bare).strip()}")
    print(f"{'tree':40s} {'step':14s} " + " ".join(f"{mode:>11s}" for mode in MODES))
    for src in trees:
        for step in steps:
            print(f"{str(src):40s} {step + ' process':14s} " + " ".join(ms(walls[src, step, m]) for m in MODES))
        print(f"{str(src):40s} {'import alone':14s} " + " ".join(ms(imports[src, m]) for m in MODES))


if __name__ == "__main__":
    main()
