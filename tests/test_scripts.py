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


def test_cold_start_times_each_tree():
    src = str(ROOT / "src")
    bytecode = set((ROOT / "src").rglob("*.pyc"))
    result = run_script("cold_start.py", "--src", src, "--runs", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("median of 1 alternated fresh processes; bare interpreter ")
    assert lines[1].split() == ["tree", "step", "no", "bytecode", "cached"]
    assert [line.split()[:3] for line in lines[2:]] == [
        [src, "import", "process"],
        [src, "check", "process"],
        [src, "import", "alone"],
    ]
    assert all(line.endswith(" ms") and line.count(" ms") == 2 for line in lines[2:])
    assert set((ROOT / "src").rglob("*.pyc")) == bytecode  # nothing written into the checkout


# Digests of this tree's reports and written files at seed 1, checked on
# Python 3.11.  A change that alters a report on purpose updates its pin and
# says so.
REPORT_DIGESTS_AT_SEED_1 = {
    "pipeline": "dff62d5b456ab8359856f83704b6f543400321f921d63cbd5ef24b7a116be5e4",
    "probe-finite": "26f28811e28eb1af0ac8554585712b2a03a260f5dc9ba7cdaebebf531165463f",
    "sublinks-walk": "c70a08c424aa8e9b1b033fb843ada0f6f0b62939dc8969ac7750cab952fad2c3",
}


@pytest.mark.parametrize("workload", sorted(REPORT_DIGESTS_AT_SEED_1))
def test_report_digest_is_pinned(workload):
    result = run_script("report_digest.py", "--src", "src", "--workload", workload, "--seed", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == REPORT_DIGESTS_AT_SEED_1[workload] + "\n"


REPORT_DIGESTS_AT_SEED_2 = {
    "pipeline": "a3079579f892bb7805afa8bd6d357679e96f1be2b1bd4ccff757fcc2a92d926d",
    "probe-finite": "c86a6abc8224fd8b754aacc5ae5e174011692da5f84375b43ba7e5606699e216",
    "sublinks-walk": "0596db35fb6c7612c65a170d14f55789d24f85d6a62e4d27b102132f84c3ac2b",
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
        "headroom: 85.00%",
        "mean per job: 1500.0 us",
        "unaccounted jobs: 0",
    ]
    # 31 ms unattributed of 2 s is past the 1% total share, so the headroom
    # is negative, every job counts as unaccounted and the script exits 1.
    result = run_script("trace_share.py", spans_file(0.97))
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.splitlines()[1:] == [
        "unattributed: 0.031000 s of 2.000000 s",
        "share: 1.5500% (bound 1%)",
        "headroom: -55.00%",
        "mean per job: 15500.0 us",
        "unaccounted jobs: 2",
    ]
    # Several files: each block under its file's name, then the largest
    # share with its headroom; one file past the bound is enough to exit 1.
    low, high = spans_file(0.998), spans_file(0.97)
    result = run_script("trace_share.py", low, high)
    assert result.returncode == 1, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 15
    assert lines[0] == f"{low}:" and lines[7] == f"{high}:"
    assert lines[3:5] == ["share: 0.1500% (bound 1%)", "headroom: 85.00%"]
    assert lines[10:12] == ["share: 1.5500% (bound 1%)", "headroom: -55.00%"]
    assert lines[14] == f"largest share: 1.5500%, headroom -55.00% ({high})"
    # Every file within the bound: exit 0.
    result = run_script("trace_share.py", low, low)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == f"largest share: 0.1500%, headroom 85.00% ({low})"
