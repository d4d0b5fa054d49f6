"""Span tracing from outside the program.

`Tracer.install()` replaces the public functions of each layer module by
wrappers that record a span (name, start, end, parent span, job id) and
add counters taken from arguments and return values.  A module that bound
a function with `from .x import y` holds its own reference, so every
attribute of every `asphere` module that is the original function object
is rebound, e.g. `asphere.cli.normalize` and `asphere.probe.kernel_basis`.
`uninstall()` puts the originals back.  Nothing under `src/` changes.

Spans are kept in memory, written to a file at the end of the run, and
the per-layer self times are computed from that file.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("words", "intmat", "presentations", "complexes", "links", "probe", "cli")


def _letters(words) -> int:
    return sum(len(w) for w in words)


def _on_apply_base_change(c, args, result):
    c["words.moves_applied"] += len(args[0])
    c["words.letters_out"] += len(result)
    c["words.letters_out.max"] = max(c["words.letters_out.max"], len(result))


def _on_reduce_to_identity(c, args, result):
    c["intmat.reduce.ops"] += len(result)


def _on_snf(c, args, result):
    m = args[0]
    c["intmat.snf.calls"] += 1
    c["intmat.snf.ops"] += len(result[1]) + len(result[2])
    c["intmat.snf.cells"] += m.rows * m.cols
    c["intmat.snf.nnz_in"] += len(m.entries)


def _on_kernel_basis(c, args, result):
    c["intmat.kernel.vectors"] += len(result)


def _on_normalize(c, args, result):
    c["presentations.normalize.moves"] += len(result.base_change)
    c["presentations.normalize.letters_in"] += _letters(args[0].relators)
    c["presentations.normalize.letters_out"] += _letters(result.new_relators)


def _on_homology(c, args, result):
    c["complexes.homology.calls"] += 1


def _on_telescope(c, args, result):
    c["complexes.telescope.cells"] += result.n_vertices + len(result.edges) + len(result.faces)


def _on_exterior(c, args, result):
    c["links.exterior.calls"] += 1


def _on_enumerate(c, args, result):
    c["probe.enum.calls"] += 1
    c["probe.enum.complete"] += result.is_complete
    c["probe.enum.cosets"] += result.n_cosets


def _on_lifted_boundary(c, args, result):
    c["probe.boundary.nnz"] += len(result.entries)


def _on_verdict(c, args, result):
    p = args[0]
    if result.kernel_rank is not None:
        c["probe.kernel_rank"] += result.kernel_rank
    if result.cosets is not None:
        # For finite pi_1 = G, rank pi_2 = |G| chi(X) - 1 (Euler identity).
        chi = 1 - p.n_generators + len(p.relators)
        c["probe.euler_gap"] += abs(result.cosets * chi - 1 - result.kernel_rank)


# (module, function, span name, counter hook).  Span names are
# "<layer>.<function>"; the layer is the module.  Functions one layer calls
# from another are wrapped even without a metric of their own, so that
# their time counts to their own layer's self_s and not to the caller's.
WRAPPED = [
    ("words", "apply_base_change", None, _on_apply_base_change),
    ("words", "parse_word", None, None),
    ("words", "word_to_text", None, None),
    ("intmat", "reduce_to_identity", None, _on_reduce_to_identity),
    ("intmat", "smith_normal_form", None, _on_snf),
    ("intmat", "rank", None, None),
    ("intmat", "kernel_basis", None, _on_kernel_basis),
    ("intmat", "apply_col_ops", None, None),
    ("intmat", "mat_vec", None, None),
    ("presentations", "normalize", None, _on_normalize),
    ("presentations", "parse_presentation_text", "presentations.parse", None),
    ("presentations", "presentation_to_text", None, None),
    ("presentations", "exponent_matrix", None, None),
    ("presentations", "is_homology_trivial_unit", None, None),
    ("presentations", "is_locally_finite", None, None),
    ("presentations", "subpresentation", None, None),
    ("presentations", "lift_row_ops", None, None),
    ("complexes", "homology", None, _on_homology),
    ("complexes", "is_homologically_contractible", None, None),
    ("complexes", "telescope", None, _on_telescope),
    ("complexes", "chain_complex", None, None),
    ("complexes", "from_presentation", None, None),
    ("complexes", "subcomplex_complex", None, None),
    ("links", "build_surgery_code", None, None),
    ("links", "exterior", None, _on_exterior),
    ("probe", "asphericity_verdict", "probe.verdict", _on_verdict),
    ("probe", "coset_enumerate", None, _on_enumerate),
    ("probe", "lifted_boundary", None, _on_lifted_boundary),
    ("probe", "fox_derivative", None, None),
    ("cli", "main", None, None),
]

JOB = "bench.job"
COMMAND = "cli.main"
GC = "gc.collect"


class Tracer:
    """Records spans only while a job is open, so checks run untraced."""

    def __init__(self):
        self.names: list[str] = [JOB, GC]
        self.spans: list[tuple] = []  # (name id, start, end, parent index, job id)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._job: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- instrumentation -------------------------------------------------

    def _wrap(self, fn, name: str, hook):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self._job)
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "asphere" or k.startswith("asphere.")]
        for module_name, func, span_name, hook in WRAPPED:
            owner = sys.modules[f"asphere.{module_name}"]
            original = getattr(owner, func)
            wrapper = self._wrap(original, span_name or f"{module_name}.{func}", hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        """A collection that runs outside every layer span, in the
        benchmark's own code between commands, becomes a span of its own,
        so the accounting does not hold the layers to it.  Inside a layer
        span a collection stays part of that span."""
        if self._job is None or len(self._stack) != 1:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.spans.append((1, self._gc_start, time.perf_counter(), self._stack[-1], self._job))

    # -- jobs ------------------------------------------------------------

    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._job_start = time.perf_counter()

    def end_job(self) -> None:
        end = time.perf_counter()
        index = self._stack.pop()
        self.spans[index] = (0, self._job_start, end, -1, self._job)
        self._job = None

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            f.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def analyze(path: Path) -> dict:
    """Per-layer times and per-job accounting from a spans file.

    Self time of a span is its duration minus the durations of its direct
    children; call spans nest, so children never overlap.  Returns the
    summed span time per name, summed self time per layer, and for each
    job its wall time, the sum of its layer self times and its number of
    CLI commands.
    """
    with path.open() as f:
        names = json.loads(f.readline())["names"]
        spans = [json.loads(line) for line in f]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent, job in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: defaultdict[str, float] = defaultdict(float)
    self_by_layer: defaultdict[str, float] = defaultdict(float)
    jobs: dict[int, list[float]] = {}  # job id -> [wall, layer self times, commands]
    worst_negative = 0.0
    for k, (name_id, start, end, parent, job) in enumerate(spans):
        name = names[name_id]
        duration = end - start
        self_time = duration - child_time[k]
        worst_negative = min(worst_negative, self_time)
        entry = jobs.setdefault(job, [0.0, 0.0, 0])
        if name == JOB:
            entry[0] += duration
            continue
        by_name[name] += duration
        self_by_layer[layer_of(name)] += self_time
        entry[1] += self_time
        entry[2] += name == COMMAND
    return {
        "by_name": by_name,
        "self_by_layer": self_by_layer,
        "jobs": jobs,
        "spans": len(spans),
        "negative_self": worst_negative < -1e-6,
    }


# A traced job's wall time may exceed the sum of its layer self times by at
# most this share plus this slack per CLI command: stdout capture around
# each command, and now and then a descheduled moment between commands.  Over all traced jobs together the excess may be at
# most the total share.
UNATTRIBUTED_SHARE = 0.02
UNATTRIBUTED_SLACK_PER_COMMAND_S = 0.001
UNATTRIBUTED_TOTAL_SHARE = 0.01


def unaccounted_jobs(analysis: dict) -> int:
    """Jobs whose layer self times do not add up to their wall time; all of
    them when the traced jobs together do not add up."""
    jobs = analysis["jobs"].values()
    if sum(wall - layered for wall, layered, _ in jobs) > UNATTRIBUTED_TOTAL_SHARE * sum(wall for wall, _, _ in jobs):
        return len(jobs)
    return sum(
        1
        for wall, layered, commands in jobs
        if wall - layered > UNATTRIBUTED_SHARE * wall + UNATTRIBUTED_SLACK_PER_COMMAND_S * commands
    )


# Per-layer metrics: "<span name>.s" is the summed duration of those spans;
# counts come from the hooks above.  Both are per traced pass.
TIMED = (
    "words.apply_base_change", "words.parse_word", "words.word_to_text",
    "intmat.reduce_to_identity", "intmat.smith_normal_form", "intmat.kernel_basis",
    "presentations.normalize", "presentations.parse",
    "complexes.homology", "complexes.telescope",
    "links.build_surgery_code", "links.exterior",
    "probe.coset_enumerate", "probe.lifted_boundary", "probe.verdict",
    "cli.main",
)
COUNTED = (
    "words.moves_applied", "words.letters_out",
    "intmat.reduce.ops", "intmat.snf.calls", "intmat.snf.ops", "intmat.snf.cells",
    "intmat.snf.nnz_in", "intmat.kernel.vectors",
    "presentations.normalize.moves",
    "complexes.homology.calls", "complexes.telescope.cells",
    "links.exterior.calls",
    "probe.enum.calls", "probe.enum.cosets", "probe.boundary.nnz", "probe.kernel_rank",
    "probe.euler_gap",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(analysis: dict, counters: dict, passes: int) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for the spans and counters of `passes`
    traced passes."""
    c = counters
    metrics = {f"{name}.s": (analysis["by_name"][name] / passes, "s") for name in TIMED}
    metrics.update({name: (c[name] / passes, "count") for name in COUNTED})
    metrics.update({f"{layer}.self_s": (analysis["self_by_layer"][layer] / passes, "s") for layer in LAYERS})
    metrics["words.letters_out.max"] = (c["words.letters_out.max"], "count")
    metrics["presentations.normalize.growth"] = (
        _ratio(c["presentations.normalize.letters_out"], c["presentations.normalize.letters_in"]), "ratio")
    metrics["probe.enum.complete_ratio"] = (_ratio(c["probe.enum.complete"], c["probe.enum.calls"]), "ratio")
    unattributed = sum(wall - layered for wall, layered, _ in analysis["jobs"].values())
    metrics["trace.unattributed_s"] = (unattributed / passes, "s")
    return metrics
