"""Seeded inputs for the three workloads.

Every job is a plain description (argv lists plus what its checker needs);
the program under test only ever sees the files written here.  The same
seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from . import words as W

A, B = 1, 2


def _trivial_by_construction(rng: random.Random, n: int) -> list[list[int]]:
    """r_j = g_j times up to two commutators of words in g_1..g_{j-1}.

    The exponent matrix is the identity and, inductively, every g_j = 1,
    so the presented group is trivial.
    """
    relators = []
    for j in range(1, n + 1):
        r = [j]
        pool = list(range(1, j))
        if pool:
            for _ in range(rng.randint(0, 2)):
                r = W.reduce(r + W.commutator(W.random_word(rng, pool, 3), W.random_word(rng, pool, 3)))
        relators.append(r)
    return relators


@dataclass
class Job:
    """One closed-loop job: CLI commands run back to back on one input."""

    name: str
    commands: list[list[str]]
    expect: dict  # what the workload's checker needs to know


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# pipeline: normalize -> ribbon -> check -> telescope.

PIPELINE_JOBS = 110
PIPELINE_GENS = range(10, 21)  # n cycles through 10..20 over the job slots
PIPELINE_MOVES = 30


def pipeline_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for k in range(PIPELINE_JOBS):
        n = PIPELINE_GENS[k % len(PIPELINE_GENS)]
        relators = _trivial_by_construction(rng, n)
        moves = W.random_moves(rng, n, PIPELINE_MOVES)
        scrambled = [W.apply_moves(moves, r) for r in relators]
        n_stages = 3 + k % 2
        order = list(range(1, n + 1))
        rng.shuffle(order)
        # Stages are 1-full (every generator) so that they stay closed
        # subcomplexes of the normalized presentation, whose relator
        # supports are only known after `normalize` has run.
        stages = [
            {"gens": list(range(1, n + 1)), "rels": sorted(order[: round(n * (s + 1) / n_stages)])}
            for s in range(n_stages)
        ]
        src = _write(workdir / f"p{k}.txt", W.presentation_text(n, scrambled))
        stages_file = _write(workdir / f"p{k}.stages.json", json.dumps(stages))
        out = str(workdir / f"p{k}.norm.txt")
        jobs.append(
            Job(
                f"pipeline-{k}",
                [
                    ["normalize", src, "--out", out],
                    ["ribbon", out],
                    ["check", out],
                    ["telescope", out, "--stages", stages_file],
                ],
                {"n": n, "relators": scrambled, "out": out, "moves_out": out + ".bc.json",
                 "stages": n_stages},
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# probe-finite: pi2probe on finite groups of known order.


def _rels(*parts: list[int]) -> list[int]:
    return W.reduce([x for part in parts for x in part])


def _finite_groups() -> list[tuple[str, int, list[list[int]], int, int]]:
    """(name, generator count, relators, |G|, copies per job set)."""
    a, b, ab = [A], [B], [A, B]
    groups = [(f"Z{n}", 1, [W.power(a, n)], n, 1) for n in range(2, 14)]
    groups += [(f"D{n}", 2, [W.power(a, n), W.power(b, 2), W.power(ab, 2)], 2 * n, 1)
               for n in range(3, 13)]
    groups += [
        ("Q8", 2, [_rels(a, b, a, W.inverse(b)), _rels(b, a, b, W.inverse(a))], 8, 6),
        ("A4", 2, [W.power(a, 2), W.power(b, 3), W.power(ab, 3)], 12, 6),
        ("S4", 2, [W.power(a, 2), W.power(b, 3), W.power(ab, 4)], 24, 20),
        ("A5", 2, [W.power(a, 2), W.power(b, 3), W.power(ab, 5)], 60, 4),
        # Binary icosahedral group: (ab)^2 = a^3 = b^5; balanced.
        ("SL2_5", 2, [_rels(W.power(a, 3), W.power(b, -5)), _rels(W.power(a, 3), W.power(ab, -2))], 120, 1),
        ("S5", 2, [W.power(a, 5), W.power(b, 2), W.power(ab, 4),
                   W.power(_rels(W.inverse(a), b, a, b), 3)], 120, 1),
        ("PSL2_7", 2, [W.power(a, 2), W.power(b, 3), W.power(ab, 7),
                       W.power(W.commutator(a, b), 4)], 168, 1),
    ]
    return groups


# High enough that every table completes: HLT needs 669 cosets for PSL(2,7)
# in its standard presentation.
PROBE_LIMIT = 4096
PROBE_TRIVIAL_JOBS = 40


def _disguise(rng: random.Random, n: int, relators: list[list[int]]) -> list[list[int]]:
    """Same group: rename generators, rotate and maybe invert each relator,
    and shuffle the relator order."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = []
    for r in relators:
        r = [perm[abs(x) - 1] * (1 if x > 0 else -1) for x in r]
        k = rng.randrange(len(r))
        r = W.reduce(r[k:] + r[:k])
        out.append(W.inverse(r) if rng.random() < 0.5 else r)
    rng.shuffle(out)
    return out


def probe_finite_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    specs = []
    for name, n, relators, order, copies in _finite_groups():
        for c in range(copies):
            # The three groups of order >= 120 take most of batch_s.  A
            # disguise moves their kernel cost by about 10%, so they keep one
            # presentation and batch_s measures the same work at every seed.
            disguised = relators if order >= 120 else _disguise(rng, n, relators)
            specs.append((f"{name}.{c}", n, disguised, order))
    for k in range(PROBE_TRIVIAL_JOBS):
        n = 2 + k % 3
        relators = _trivial_by_construction(rng, n)
        moves = W.random_moves(rng, n, 9)
        specs.append((f"trivial.{k}", n, [W.apply_moves(moves, r) for r in relators], 1))
    jobs = []
    for k, (name, n, relators, order) in enumerate(specs):
        src = _write(workdir / f"g{k}.txt", W.presentation_text(n, relators))
        jobs.append(
            Job(
                f"probe-{name}",
                [["pi2probe", src, "--limit", str(PROBE_LIMIT)]],
                {"n": n, "relators": relators, "order": order, "limit": PROBE_LIMIT},
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# sublinks-walk: every sublink exterior of a surgery code, each probed.

# Copies per (components m, probe limit L).  Cheap cells get more copies so
# that one job set has about 100 jobs and ten or more lie beyond its p90.
SUBLINK_GRID = {
    6: {64: 30, 128: 10, 256: 8, 512: 5, 1024: 4},
    7: {64: 10, 128: 6, 256: 3, 512: 2, 1024: 1},
    8: {64: 6, 128: 3, 256: 2, 512: 1, 1024: 1},
    9: {64: 5, 128: 2, 256: 1},
}
SUBLINK_SHAPES = ("ring", "triangular")


def _surgery_code(rng: random.Random, shape: str, m: int) -> tuple[list[list[int]], bool]:
    """(components, whether the full fill's group is finite).

    ring: g_j [g_j, g_{j+1}] around a cycle, a Higman-type group, which is
    infinite for m >= 4, so no coset table of the full fill can complete.
    triangular: g_1, g_2 and g_j [g_a^±1, g_b^±1] with a != b < j, trivial
    by construction.  Both have identity exponents, and every component
    has 1 or 5 letters, so a job's cost depends on m and L, not on the seed.
    """
    if shape == "ring":
        comps = [W.reduce([j] + W.commutator([j], [j % m + 1])) for j in range(1, m + 1)]
        finite = False
    else:
        comps = [[1], [2]]
        for j in range(3, m + 1):
            a, b = (g * rng.choice((1, -1)) for g in rng.sample(range(1, j), 2))
            comps.append([j] + W.commutator([a], [b]))
        finite = True
    # Relabel generators and components by one permutation: exponents stay
    # the identity.
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    relabelled = [None] * m
    for j, w in enumerate(comps, 1):
        relabelled[perm[j - 1] - 1] = [perm[abs(x) - 1] * (1 if x > 0 else -1) for x in w]
    return relabelled, finite


def sublinks_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for m, copies in SUBLINK_GRID.items():
        for limit, count in copies.items():
            for c in range(count):
                k = len(jobs)
                shape = SUBLINK_SHAPES[c % len(SUBLINK_SHAPES)]
                comps, finite = _surgery_code(rng, shape, m)
                src = _write(workdir / f"s{k}.txt", W.presentation_text(m, comps))
                jobs.append(
                    Job(
                        f"sublinks-{shape}-m{m}-L{limit}-{k}",
                        [["sublinks", src, "--enumerate", "--probe-limit", str(limit)]],
                        {"m": m, "components": comps, "full_fill_finite": finite},
                    )
                )
    return jobs


WORKLOADS = {
    "pipeline": pipeline_jobs,
    "probe-finite": probe_finite_jobs,
    "sublinks-walk": sublinks_jobs,
}


def make_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)
