"""The benchmark's traced run looks up layer functions by name; every name it
wraps must stay a public attribute of its `asphere` module."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


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
