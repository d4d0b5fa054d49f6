"""The scripts under scripts/ run end to end against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_report_digest_is_repeatable():
    args = ("--src", "src", "--workload", "sublinks-walk", "--seed", "1")
    first, second = run_script("report_digest.py", *args), run_script("report_digest.py", *args)
    for result in (first, second):
        assert result.returncode == 0, result.stdout + result.stderr
        assert re.fullmatch(r"[0-9a-f]{64}\n", result.stdout), result.stdout
    assert first.stdout == second.stdout
