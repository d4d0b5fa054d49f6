#!/usr/bin/env python3
"""One sha256 over every CLI report of a benchmark workload.

Generates the jobs of a `perfbench` workload with `perfbench.inputs.make_jobs`
in a fresh temporary directory, runs every command in process through
`asphere.cli.main` imported from `--src`, and prints a sha256 over each
command's argv, exit code, stdout and stderr, and then over every file in the
work directory (inputs and the files the commands wrote).  The work-directory
path is masked, so two source trees give the same digest exactly when their
reports and written files are byte-identical on that workload and seed.
Given several seeds, it prints one `seed S: <digest>` line for each.

Usage: python scripts/report_digest.py --src src --workload pipeline --seed 1 [SEED ...]
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.inputs import WORKLOADS, make_jobs  # noqa: E402


def import_cli(src: Path):
    sys.path.insert(0, str(src))
    cli = importlib.import_module("asphere.cli")
    if Path(cli.__file__).resolve().parent != (src / "asphere").resolve():
        raise SystemExit(f"imported asphere from {cli.__file__}, not from {src}")
    return cli


def run(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def digest(cli, workload: str, seed: int) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def feed(text: str) -> None:
            data = text.replace(str(work), "<work>").encode()
            h.update(len(data).to_bytes(8, "big") + data)

        for job in make_jobs(workload, seed, work):
            for argv in job.commands:
                code, out, err = run(cli, argv)
                for part in (" ".join(argv), str(code), out, err):
                    feed(part)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            feed(str(path))
            feed(path.read_text())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="directory holding the asphere package")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, nargs="+", default=[1], help="one or more seeds (default 1)")
    args = parser.parse_args()
    cli = import_cli(args.src)
    for seed in args.seed:
        h = digest(cli, args.workload, seed)
        print(h if len(args.seed) == 1 else f"seed {seed}: {h}")


if __name__ == "__main__":
    main()
