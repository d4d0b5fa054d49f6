"""The scripts under scripts/ run end to end against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_fuzz_reduction_passes():
    result = run_script("fuzz_reduction.py", "--rounds", "30")
    assert result.returncode == 0, result.stdout + result.stderr
    assert any(line.startswith("OK:") for line in result.stdout.splitlines()), result.stdout


def test_pipeline_demo_runs():
    result = run_script("pipeline_demo.py")
    assert result.returncode == 0, result.stdout + result.stderr


# Digests of this tree's reports and written files at seed 1, the same on
# Python 3.10-3.13.  A change that alters a report on purpose updates its pin
# and says so.
REPORT_DIGESTS_AT_SEED_1 = {
    "pipeline": "509a7e25d8124fd779bf7ddca4c13181b3ada632a1612aabacd840042e9d92df",
    "probe-finite": "0679ef55efc5d607efd2be78b503655ef79b7302454d8a6561109d5f7b424145",
    "sublinks-walk": "641a000765bde75f7741b92ee7ddb9a0c81f22751f920fb02fc917d210758937",
}


@pytest.mark.parametrize("workload", sorted(REPORT_DIGESTS_AT_SEED_1))
def test_report_digest_is_pinned(workload):
    result = run_script("report_digest.py", "--src", "src", "--workload", workload, "--seed", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == REPORT_DIGESTS_AT_SEED_1[workload] + "\n"


REPORT_DIGESTS_AT_SEED_2 = {
    "pipeline": "276ed53980223a784cf1bffdd615acfc3eef1c334e131d00fa2eb79ca644c24f",
    "probe-finite": "3cecf1de6e83ae14a3d407774149b8e9d67cabbe488a104460203a2c08a3dadf",
    "sublinks-walk": "de1f3c1c7415d4ee945466146586399fdc6d9899b12e77ec77845881d7f2ee20",
}


@pytest.mark.parametrize("workload", sorted(REPORT_DIGESTS_AT_SEED_2))
def test_report_digest_takes_several_seeds(workload):
    # One line per seed, each the digest that seed gives on its own.
    result = run_script("report_digest.py", "--src", "src", "--workload", workload, "--seed", "1", "2")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        f"seed 1: {REPORT_DIGESTS_AT_SEED_1[workload]}",
        f"seed 2: {REPORT_DIGESTS_AT_SEED_2[workload]}",
    ]


def test_trace_share_reads_span_accounting(tmp_path):
    # Two traced jobs of 1 s wall time each; the second one's command spans
    # a layer call.  Job 2's command ends `end2` s into the job.
    def spans_file(end2: float) -> str:
        path = tmp_path / f"spans-{end2}.jsonl"
        path.write_text(
            '{"names": ["bench.job", "gc.collect", "cli.main", "probe.lifted_boundary"]}\n'
            "[0, 0.0, 1.0, -1, 1]\n"
            "[2, 0.0, 0.999, 0, 1]\n"
            "[0, 2.0, 3.0, -1, 2]\n"
            f"[2, 2.0, {2.0 + end2}, 2, 2]\n"
            "[3, 2.1, 2.5, 3, 2]\n"
        )
        return str(path)

    result = run_script("trace_share.py", spans_file(0.998))
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        "traced jobs: 2",
        "unattributed: 0.003000 s of 2.000000 s",
        "share: 0.1500% (bound 1%)",
        "mean per job: 1500.0 us",
        "unaccounted jobs: 0",
    ]
    # 31 ms unattributed of 2 s is past the 1% total share, so every job
    # counts as unaccounted.
    result = run_script("trace_share.py", spans_file(0.97))
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[1:] == [
        "unattributed: 0.031000 s of 2.000000 s",
        "share: 1.5500% (bound 1%)",
        "mean per job: 15500.0 us",
        "unaccounted jobs: 2",
    ]
    # Several files: each block under its file's name, then the largest share.
    low, high = spans_file(0.998), spans_file(0.97)
    result = run_script("trace_share.py", low, high)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 13
    assert lines[0] == f"{low}:" and lines[6] == f"{high}:"
    assert lines[3] == "share: 0.1500% (bound 1%)"
    assert lines[9] == "share: 1.5500% (bound 1%)"
    assert lines[12] == f"largest share: 1.5500% ({high})"
