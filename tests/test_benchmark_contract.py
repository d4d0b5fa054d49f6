"""The benchmark's traced run looks up layer functions by name; every name it
wraps must stay a public attribute of its `asphere` module.  The benchmark's
output checkers pass this tree's reports and flag every corrupted copy."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACE = PERFBENCH / "trace.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    missing = [
        f"asphere.{module}.{func}"
        for module, func, _, _ in trace.WRAPPED
        if not callable(getattr(importlib.import_module(f"asphere.{module}"), func, None))
    ]
    assert trace.WRAPPED and not missing, missing


def test_traced_commands_run_and_count(tmp_path):
    """Every command runs under the tracer, and the hooks can read the
    return values of the functions they wrap."""
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    cli = importlib.import_module("asphere.cli")
    intmat = importlib.import_module("asphere.intmat")

    src = tmp_path / "p.txt"
    src.write_text("gens: 2\nrel r1: g1 g2\nrel r2: g2 g1 g2^-1 g1^-1 g2\n")
    out = tmp_path / "p.norm.txt"
    stages = tmp_path / "stages.json"
    stages.write_text('[{"gens": [1, 2], "rels": [1]}, {"gens": [1, 2], "rels": [1, 2]}]')
    s3 = tmp_path / "s3.txt"
    s3.write_text("gens: 2\nrel a: g1^2\nrel b: g2^3\nrel c: g1 g2 g1 g2\n")
    commands = [
        (["normalize", str(src), "--out", str(out)], 0),
        (["ribbon", str(out)], 0),
        (["check", str(out)], 0),
        (["telescope", str(out), "--stages", str(stages)], 0),
        (["sublinks", str(out), "--enumerate", "--probe-limit", "64"], 0),
        (["pi2probe", str(s3)], 1),
    ]

    tracer = trace.Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        try:
            codes = []
            for argv, _ in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(cli.main(argv))
            # No command densifies a kernel basis; call the public function
            # so that its hook reads a real return value.
            intmat.kernel_basis(intmat.SparseIntMatrix.from_rows([[1, 1], [1, 1]]))
        finally:
            tracer.end_job()
    finally:
        tracer.uninstall()

    assert codes == [code for _, code in commands]
    c = tracer.counters
    for name in (
        "intmat.snf.calls",
        "intmat.kernel.vectors",
        "presentations.normalize.moves",
        "complexes.telescope.cells",
        "links.exterior.calls",
        "probe.enum.calls",
        "probe.kernel_rank",
    ):
        assert c[name] > 0, name
    assert c["probe.euler_gap"] == 0


# A few cheap seed-1 jobs per workload.  On probe-finite: cyclic, then
# non-abelian, each with a witness, and a trivial group; the self-check
# corrupts the last job that passes with a witness, as perfbench/run.py does.
CHECKED_JOBS = {
    "pipeline": ["pipeline-0", "pipeline-1"],
    "probe-finite": ["probe-trivial.0", "probe-Z2.0", "probe-Q8.0"],
    "sublinks-walk": ["sublinks-ring-m6-L64-0", "sublinks-triangular-m6-L64-1"],
}


@pytest.mark.parametrize("workload", sorted(CHECKED_JOBS))
def test_benchmark_checkers_pass_reports_and_flag_corruptions(workload, tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    asphere = importlib.import_module("asphere")
    cli = importlib.import_module("asphere.cli")
    checker = run.checker_for(workload, asphere)
    jobs = {job.name: job for job in run.inputs.make_jobs(workload, 1, tmp_path)}
    for name in CHECKED_JOBS[workload]:
        job = jobs[name]
        outputs, _ = run.run_job(cli, job)
        assert run.safe_check(checker, job, outputs) == [], name
    corrupted = run.checks.corruptions(workload, job, outputs)
    assert corrupted
    for label, bad in corrupted:
        assert run.safe_check(checker, job, bad), label
