"""Benchmark of the asphere CLI: seeded workloads, checked outputs, metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 40 --trace 0

Workloads are `pipeline`, `probe-finite` and `sublinks-walk` (see
perfbench/NOTES.md).  One client runs a fixed, seeded job set in a closed
loop, in this process and thread: a job starts only after the previous one
returns.  A job is one or more `asphere` commands on one generated input,
run through `asphere.cli.main(argv)` with stdout captured, so interpreter
start-up stays out of job times.  The job set is repeated until
`--seconds` is used up; every output is checked after its job.  Times are
reported at a fixed reference speed of the host (perfbench/speed.py).

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` untraced and traced passes alternate and the last line reports
the per-layer metrics, computed from the spans file written under
`.bench_work/`.  Exit status is 0 when a result was printed; 2 when `asphere`
cannot be set up from this checkout or the interpreter runs with `-O` or
without garbage collection; nonzero on any other error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs, speed  # noqa: E402
from perfbench.trace import Tracer, analyze, layer_metrics, unaccounted_jobs  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SHARE = 0.1  # of each untraced pass's time, spent on repeated set-ups
JOB_COST = 1.3  # a job's last own time -> its time with references and check


class SetupError(Exception):
    pass


def import_program():
    """Import `asphere` afresh from this checkout's src/, never elsewhere."""
    if not (SRC / "asphere" / "__init__.py").is_file():
        raise SetupError(f"no asphere package under {SRC}")
    for name in [k for k in sys.modules if k == "asphere" or k.startswith("asphere.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    asphere = importlib.import_module("asphere")
    importlib.import_module("asphere.cli")
    if Path(asphere.__file__).resolve().parent != (SRC / "asphere").resolve():
        raise SetupError(f"imported asphere from {asphere.__file__}, not from {SRC}")
    return asphere


def setup(workload: str, seed: int, workdir: Path):
    """Import, input generation and input files written, timed together."""
    start = time.perf_counter()
    asphere = import_program()
    jobs = inputs.make_jobs(workload, seed, workdir)
    return time.perf_counter() - start, asphere, jobs


def setup_in_child(workload: str, seed: int, workdir: Path) -> float:
    """One more set-up, timed like the first but in a fresh interpreter
    (perfbench/setup_once.py), for the `setup_s` median.  The jobs keep
    running on the modules and inputs of the first set-up."""
    try:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_once.py")), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=60)
        if child.returncode != 0:
            raise SetupError(f"set-up in a child process failed: {child.stderr.strip()[-300:]}")
        return float(child.stdout.split()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def checker_for(workload: str, asphere):
    if workload == "pipeline":
        return checks.check_pipeline
    if workload == "sublinks-walk":
        return checks.check_sublinks

    def boundary(n, relators, limit):
        """Lifted boundary entries rebuilt through the public probe API."""
        p = asphere.Presentation(
            n, tuple(asphere.Word.from_pairs((abs(x), 1 if x > 0 else -1) for x in r) for r in relators)
        )
        table = asphere.probe.coset_enumerate(p, limit)
        return asphere.probe.lifted_boundary(p, table).entries if table.is_complete else None

    return lambda job, outputs: checks.check_probe_finite(job, outputs, boundary)


def run_job(cli, job) -> tuple[list[tuple[int, str]], float]:
    """Run the job's commands back to back; returns outputs and wall time."""
    outputs = []
    start = time.perf_counter()
    for argv in job.commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        outputs.append((code, out.getvalue()))
    return outputs, time.perf_counter() - start


def safe_check(checker, job, outputs) -> list[str]:
    try:
        return checker(job, outputs)
    except Exception as exc:  # a malformed report is a failed job
        return [f"checker raised {exc!r}"]


class Runner:
    def __init__(self, workload, jobs, asphere):
        self.workload = workload
        self.jobs = jobs
        self.cli = asphere.cli
        self.checker = checker_for(workload, asphere)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report_bytes = 0
        self.passing: tuple | None = None  # (job, outputs) for the self-check
        self.expected = [0.0] * len(jobs)  # each job's last own time
        self.reference = speed.Reference()  # totals over every job's reference runs

    def run_pass(self, tracer: Tracer | None = None, deadline: float = math.inf) -> tuple[list[float], list[float]]:
        """Run and check every job once, or the jobs before the first one
        whose last time would run past `deadline`; returns the jobs' own
        times at the reference speed (perfbench/speed.py) and as measured.
        Traced passes take no bursts inside jobs, which would land in the
        layer spans."""
        times, raw = [], []
        for k, job in enumerate(self.jobs):
            if time.perf_counter() + JOB_COST * self.expected[k] > deadline:
                break
            ref = speed.Reference()
            ref.run(speed.SHARE * self.expected[k])
            if tracer is not None:
                tracer.begin_job(self.attempted)
                outputs, elapsed = run_job(self.cli, job)
                tracer.end_job()
            else:
                with ref.sampling():
                    outputs, elapsed = run_job(self.cli, job)
            ref.run(speed.SHARE * elapsed)
            self.reference.seconds += ref.seconds
            self.reference.tasks += ref.tasks
            self.expected[k] = ref.own(elapsed)
            times.append(ref.scale(elapsed))
            raw.append(ref.own(elapsed))
            self.attempted += 1
            self.report_bytes += sum(len(text) for _, text in outputs)
            problems = safe_check(self.checker, job, outputs)
            if problems:
                self.failed += 1
                self.problems.append(f"{job.name}: {problems[0]}")
            elif self.passing is None and (self.workload != "probe-finite" or job.expect["order"] > 1):
                self.passing = (job, outputs)
        return times, raw

    def selfcheck(self) -> dict[str, bool]:
        """Corrupted copies of a passing job's outputs must fail the check;
        maps each corruption to whether the check counted it as failed."""
        if self.passing is None:
            return {"no passing job to corrupt": False}
        job, outputs = self.passing
        return {label: bool(safe_check(self.checker, job, bad))
                for label, bad in checks.corruptions(self.workload, job, outputs)}


def measure(runner: Runner, seconds: float, tracer: Tracer | None, resetup):
    """Without a tracer, repeat passes over the job set until `seconds`
    are used up; the first pass is whole, the last may stop part-way.
    With a tracer, untraced and traced passes alternate, starting
    untraced, all whole, while the next one, as long as the last, still
    fits in `seconds`, and each kind runs at least once.  After each whole
    untraced pass, `resetup()` runs until the set-up times it returns add
    up to SETUP_SHARE of that pass's time, so set-up is sampled across the
    run, at the same machine speeds as the jobs.  Job times come as
    pairs of lists: (at the reference speed, raw)."""
    plain: list[tuple[list[float], list[float]]] = []
    traced: list[tuple[list[float], list[float]]] = []
    setups: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(runner.run_pass(deadline=deadline if plain and tracer is None else math.inf))
            if len(plain[-1][0]) < len(runner.jobs):
                return plain, traced, setups
            spent = 0.0
            while spent < SETUP_SHARE * sum(plain[-1][1]):
                setups.append(resetup())
                spent += setups[-1]
        now = time.perf_counter()
        if tracer is None and now > deadline or traced and now - start + (now - t0) > seconds:
            return plain, traced, setups


def per_job_medians(passes: list[list[float]]) -> list[float]:
    """Each job's median time over the passes that ran it (all but maybe
    the last run every job).  A burst of machine noise then has to hit
    most passes of a job to move its time."""
    return [statistics.median(p[k] for p in passes if k < len(p)) for k in range(len(passes[0]))]


def e2e_metrics(plain, setup_s: float) -> tuple[dict, int]:
    """Metric name -> (value, unit), and the number of jobs beyond p90."""
    job_times = per_job_medians(plain)
    p90 = statistics.quantiles(job_times, n=10)[8]
    metrics = {
        "batch_s": (sum(job_times), "s"),
        "job_s.p50": (statistics.median(job_times), "s"),
        "job_s.p90": (p90, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, sum(1 for t in job_times if t > p90)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize or not gc.isenabled():
        print("run with the interpreter's defaults: no -O, garbage collection on", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-s{args.seed}"
    try:
        first_setup, asphere, jobs = setup(args.workload, args.seed, run_dir / "inputs")
        runner = Runner(args.workload, jobs, asphere)
        tracer = Tracer() if args.trace else None
        plain, traced, setups = measure(
            runner, args.seconds, tracer, lambda: setup_in_child(args.workload, args.seed, run_dir / "again"))
        caught = runner.selfcheck()
        # A set-up is taken to the reference speed that the jobs' reference
        # runs found over the whole run: its own samples, in a fresh
        # interpreter of a tenth of a second, followed that speed worse.
        setup_raw = statistics.median([first_setup] + setups)
        setup_s = runner.reference.scale(setup_raw)
        metrics, beyond_p90 = e2e_metrics([times for times, _ in plain], setup_s)
        raw_metrics, _ = e2e_metrics([raw for _, raw in plain], setup_raw)
        correct = runner.failed == 0 and all(caught.values())
        whole = sum(len(times) == len(jobs) for times, _ in plain)
        print(f"workload {args.workload} seed {args.seed}: {whole} whole untraced passes and "
              f"{len(plain) - whole} part-pass over n = {len(jobs)} jobs (per-job medians), "
              f"{beyond_p90} beyond p90; {1 + len(setups)} set-ups")
        print("  " + "  ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items())
              + f"  fail_rate {runner.failed}/{runner.attempted}")
        print("  raw wall times: " + "  ".join(
            f"{name} {value:.6g} {unit}" for name, (value, unit) in raw_metrics.items() if unit == "s"))
        print(f"  self-check: {sum(caught.values())}/{len(caught)} corrupted reports counted as failed: "
              + ", ".join(f"{label} ({'caught' if ok else 'NOT caught'})" for label, ok in caught.items()))
        for problem in runner.problems[:5]:
            print(f"  FAILED {problem}")

        if tracer is not None:
            batch_s = raw_metrics["batch_s"][0]
            spans_file = WORK / f"spans-{args.workload}-s{args.seed}.jsonl"
            tracer.write(spans_file)
            analysis = analyze(spans_file)
            metrics = layer_metrics(analysis, tracer.counters, len(traced))
            metrics["cli.report_bytes"] = (runner.report_bytes * len(jobs) / runner.attempted, "bytes")
            metrics["trace.overhead_s"] = (sum(per_job_medians([raw for _, raw in traced])) - batch_s, "s")
            unaccounted = unaccounted_jobs(analysis)
            correct = correct and unaccounted == 0 and not analysis["negative_self"]
            print(f"  traced: {len(traced)} passes, {analysis['spans']} spans; layer self times account for "
                  f"the wall time of {len(analysis['jobs']) - unaccounted}/{len(analysis['jobs'])} jobs; "
                  f"trace.overhead_s {metrics['trace.overhead_s'][0]:.6g} s beside untraced raw batch_s {batch_s:.6g} s")
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
