#!/usr/bin/env python3
"""Span accounting of a traced benchmark run, read off its spans file.

`perfbench/run.py --trace 1` keeps the spans of its traced passes in
`.bench_work/spans-<workload>-s<seed>.jsonl` and prints `"correct": false`
when the traced jobs' wall time exceeds the sum of their layer self times
by more than `UNATTRIBUTED_TOTAL_SHARE`.  This prints that excess with the
same `perfbench.trace` functions: the traced jobs, the unattributed
seconds, their share of the jobs' wall time against the bound, the
headroom, the mean unattributed microseconds per job, and the number of
unaccounted jobs.  The headroom, 1 - share / bound, is how far the traced
jobs' wall time may fall, at the same unattributed seconds, before the
share crosses the bound; it is negative past the bound.  Given several
spans files, it prints that block for each, under the file's name, and
then the largest share with its headroom, which is the smallest.  It
exits 1 when any file's share exceeds `UNATTRIBUTED_TOTAL_SHARE`, and 0
otherwise.

Usage: python scripts/trace_share.py .bench_work/spans-probe-finite-s1.jsonl [MORE_SPANS_FILES ...]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.trace import UNATTRIBUTED_TOTAL_SHARE, analyze, unaccounted_jobs  # noqa: E402


def headroom(share: float) -> float:
    return 1 - share / UNATTRIBUTED_TOTAL_SHARE


def share_block(spans_file: Path) -> tuple[float, list[str]]:
    analysis = analyze(spans_file)
    jobs = analysis["jobs"].values()
    wall = sum(w for w, _, _ in jobs)
    unattributed = sum(w - layered for w, layered, _ in jobs)
    share = unattributed / wall if wall else 0.0
    return share, [
        f"traced jobs: {len(jobs)}",
        f"unattributed: {unattributed:.6f} s of {wall:.6f} s",
        f"share: {share:.4%} (bound {UNATTRIBUTED_TOTAL_SHARE:.0%})",
        f"headroom: {headroom(share):.2%}",
        f"mean per job: {unattributed / len(jobs) * 1e6 if jobs else 0.0:.1f} us",
        f"unaccounted jobs: {unaccounted_jobs(analysis)}",
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans_files", type=Path, nargs="+", metavar="spans_file")
    args = parser.parse_args()

    several = len(args.spans_files) > 1
    shares = []
    for path in args.spans_files:
        share, lines = share_block(path)
        shares.append((share, str(path)))
        if several:
            print(f"{path}:")
        print("\n".join(lines))
    share, path = max(shares)
    if several:
        print(f"largest share: {share:.4%}, headroom {headroom(share):.2%} ({path})")
    return 1 if share > UNATTRIBUTED_TOTAL_SHARE else 0


if __name__ == "__main__":
    sys.exit(main())
