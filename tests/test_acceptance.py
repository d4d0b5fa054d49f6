"""Acceptance gate.

One test per shipped acceptance criterion; each prints a single PASS/FAIL
line (bypassing capture) so the gate reads as a checklist under plain
`pytest`.
"""

import contextlib
import io
import json
import random
import sys
import time

from asphere import (
    NotUnimodular,
    Presentation,
    SublinkSelection,
    Word,
    apply_base_change,
    apply_move,
    apply_row_ops,
    asphericity_verdict,
    build_surgery_code,
    coset_enumerate,
    exponent_matrix,
    exterior,
    from_presentation,
    homology,
    is_homologically_contractible,
    is_homology_trivial_unit,
    kernel_basis,
    lifted_boundary,
    normalize,
    reduce_to_identity,
    subcomplex_to_sublink,
    sublink_to_subcomplex,
    telescope,
    verify_meridian_correspondence,
)
from asphere.cli import main as cli_main
from asphere.complexes import subcomplex_complex, subcomplex_presentation
from asphere.intmat import RowOpLog, mat_vec
from asphere.presentations import exponent_vector, lift_row_op
from asphere.words import Invert, RightMultiply, Swap, parse_word

from support import (
    commutator,
    random_filtration,
    random_non_unimodular,
    random_presentation,
    random_trivialish_presentation,
    random_unimodular,
    random_word,
)


@contextlib.contextmanager
def criterion(name: str, capfd):
    def announce(result: str) -> None:
        with capfd.disabled():
            print(f"ACCEPTANCE {result}: {name}", file=sys.stderr, flush=True)

    try:
        yield
    except BaseException:
        announce("FAIL")
        raise
    announce("PASS")


def P(n, *relator_texts):
    return Presentation(n, tuple(parse_word(t) for t in relator_texts))


SCRAMBLED = P(2, "g1 g2 g1^-1 g2^-2", "g2 g1 g2^-1 g1^-2")
UNIT = P(2, "g1 g2 g1^-1 g2^-1 g1", "g2 g1 g2 g1^-1 g2^-1")
DISK = P(1, "g1")


def unit_fixtures():
    """Presentations with identity exponent matrix."""
    fixtures = [DISK, UNIT]
    cert = normalize(SCRAMBLED)
    fixtures.append(Presentation(2, cert.new_relators))
    rng = random.Random(424242)
    for _ in range(10):
        p = random_trivialish_presentation(rng, rng.randint(1, 3))
        fixtures.append(Presentation(p.n_generators, normalize(p).new_relators))
    return [p for p in fixtures if is_homology_trivial_unit(p)]


def test_unimodular_reduction_and_rejection(capfd):
    """>= 500 random unimodular windows reduce to the identity with an exact
    replay; >= 500 non-unimodular windows are rejected; under 10 seconds."""
    with criterion("unimodular reduction: 500 replays + 500 rejections < 10 s", capfd):
        rng = random.Random(1001)
        start = time.monotonic()
        for _ in range(500):
            n = rng.randint(1, 10)
            m = random_unimodular(rng, n, 50)
            log = reduce_to_identity(m)
            assert apply_row_ops(log, m).is_identity()
        for _ in range(500):
            m = random_non_unimodular(rng, 10)
            try:
                reduce_to_identity(m)
            except NotUnimodular:
                pass
            else:
                raise AssertionError(f"accepted non-unimodular window {m.to_rows()}")
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_normalization_certificates(capfd):
    """Fixture + >= 100 fuzz balanced unimodular presentations: exponent
    check holds, the base change round-trips relators, and each lifted row
    op acts on exponent vectors exactly like the integer op."""
    with criterion("normalization: certificates, round trips, equivariance", capfd):
        rng = random.Random(2002)
        cases = [SCRAMBLED] + [
            random_trivialish_presentation(rng, rng.randint(1, 4)) for _ in range(100)
        ]
        for p in cases:
            cert = normalize(p)
            assert cert.exponent_check
            assert exponent_matrix(
                Presentation(p.n_generators, cert.new_relators)
            ).is_identity()
            inv = cert.base_change.inverse()
            for old, new in zip(p.relators, cert.new_relators):
                assert apply_base_change(inv, new) == old
            # entry-by-entry equivariance, one integer op at a time
            log = reduce_to_identity(exponent_matrix(p))
            words = list(p.relators)
            matrix = exponent_matrix(p)
            for op in log:
                matrix = apply_row_ops(RowOpLog((op,)), matrix)
                for move in lift_row_op(op):
                    words = [apply_move(move, w) for w in words]
                for j, w in enumerate(words, start=1):
                    vec = exponent_vector(w, p.n_generators)
                    for i in range(1, p.n_generators + 1):
                        assert vec[i - 1] == matrix.get(i, j)
            assert tuple(words) == cert.new_relators


def test_surgery_code_round_trip(capfd):
    """Presentation -> surgery code -> full fill is the identity; meridians
    match; the empty fill is relator-free."""
    with criterion("surgery codes: full-fill identity, meridians, empty fill", capfd):
        for p in unit_fixtures():
            sc = build_surgery_code(p)
            assert verify_meridian_correspondence(sc, p)
            everything = SublinkSelection(frozenset(range(1, len(p.relators) + 1)))
            assert exterior(sc, everything) == p
            assert exterior(sc, SublinkSelection(frozenset())).relators == ()


def test_sublink_subcomplex_bijection(capfd):
    """All 2^m sublink selections biject with the 1-full subcomplex lattice
    at m = 10, with word-for-word equal presentations, under 30 seconds."""
    with criterion("sublinks: exhaustive 2^10 bijection < 30 s", capfd):
        n = 10
        relators = []
        for j in range(1, n + 1):
            g = Word.from_pairs([(j, 1)])
            h = Word.from_pairs([(j % n + 1, 1)])
            relators.append(g * commutator(g, h))
        p = Presentation(n, tuple(relators))
        assert is_homology_trivial_unit(p)
        sc = build_surgery_code(p)

        start = time.monotonic()
        seen = set()
        for mask in range(1 << n):
            fill = frozenset(j + 1 for j in range(n) if mask >> j & 1)
            sel = SublinkSelection(fill)
            spec = sublink_to_subcomplex(sel, n, n)
            assert spec.is_1_full
            assert subcomplex_to_sublink(spec) == sel
            assert exterior(sc, sel) == subcomplex_presentation(p, spec)
            seen.add(spec)
        assert len(seen) == 1 << n  # every 1-full subcomplex is hit once
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_telescope_homology(capfd):
    """>= 50 random 2-4 stage filtrations (<= 6 generators and relators):
    the telescope has the homology of the final stage, torsion included,
    and stage 0 sits inside it cell-for-cell."""
    with criterion("telescope: homology of final stage on 50 random filtrations", capfd):
        rng = random.Random(5005)
        for _ in range(50):
            p = random_presentation(rng, rng.randint(1, 6), rng.randint(1, 6), max_len=6)
            f = random_filtration(rng, p, rng.randint(2, 4))
            tower = telescope(f)
            final = subcomplex_complex(p, f.stages[-1])
            th, fh = homology(tower), homology(final)
            assert (th.h0, th.h1_rank, th.h1_torsion, th.h2) == (
                fh.h0,
                fh.h1_rank,
                fh.h1_torsion,
                fh.h2,
            )
            lead = subcomplex_complex(p, f.stages[0])
            assert tower.edges[: len(lead.edges)] == lead.edges
            assert tower.faces[: len(lead.faces)] == lead.faces


def test_pi2_probe_calibration(capfd):
    """Known verdicts: the order-two relator is a rank-1 counterexample with
    a verified witness; single-relator and relator-free windows are
    aspherical; unit fixtures that enumerate to one coset are aspherical and
    their full-fill exteriors are homologically contractible."""
    with criterion("pi2 probe: calibration verdicts and witness check", capfd):
        v = asphericity_verdict(P(1, "g1^2"), 64)
        assert v.status == "not_aspherical"
        assert v.kernel_rank == 1
        t = coset_enumerate(P(1, "g1^2"), 64)
        boundary = lifted_boundary(P(1, "g1^2"), t)
        assert len(kernel_basis(boundary)) == 1
        assert any(v.witness)
        assert all(x == 0 for x in mat_vec(boundary, v.witness))

        assert asphericity_verdict(P(1, "g1"), 64).status == "aspherical"
        for rank_free in range(4):
            assert asphericity_verdict(Presentation(rank_free), 64).status == "aspherical"

        checked = 0
        for p in unit_fixtures():
            table = coset_enumerate(p, 512)
            if not (table.is_complete and table.n_cosets == 1):
                continue
            checked += 1
            assert asphericity_verdict(p, 512).status == "aspherical"
            sc = build_surgery_code(p)
            full = SublinkSelection(frozenset(range(1, len(p.relators) + 1)))
            c = from_presentation(exterior(sc, full))
            assert is_homologically_contractible(c)
        assert checked > 0


def test_free_group_laws(capfd):
    """10,000 randomized algebra checks: reduction idempotence,
    associativity, inverse involution, and Nielsen-move equivariance on
    abelianizations."""
    with criterion("free-group laws: 10,000 randomized checks", capfd):
        rng = random.Random(7007)
        n = 4
        for _ in range(10_000):
            u = random_word(rng, n, 8)
            v = random_word(rng, n, 8)
            w = random_word(rng, n, 8)
            assert Word(u.letters) == u
            assert (u * v) * w == u * (v * w)
            assert (u * v).inverse() == v.inverse() * u.inverse()
            assert u.inverse().inverse() == u

            kind = rng.randrange(3)
            if kind == 0:
                i, j = rng.sample(range(1, n + 1), 2)
                move = Swap(i, j)
            elif kind == 1:
                move = Invert(rng.randint(1, n))
            else:
                i, j = rng.sample(range(1, n + 1), 2)
                move = RightMultiply(i, j)
            before = list(exponent_vector(w, n))
            after = exponent_vector(apply_move(move, w), n)
            if isinstance(move, Swap):
                before[move.i - 1], before[move.j - 1] = (
                    before[move.j - 1],
                    before[move.i - 1],
                )
            elif isinstance(move, Invert):
                before[move.i - 1] = -before[move.i - 1]
            else:
                before[move.j - 1] += before[move.i - 1]
            assert after == tuple(before)


def test_cli_determinism(tmp_path, capfd):
    """Every CLI command, run twice on the same input, emits byte-identical
    reports."""
    with criterion("cli: byte-identical reports on repeated runs", capfd):
        pres = tmp_path / "p.txt"
        pres.write_text(
            "gens: 2\n"
            "rel r1: g1 g2 g1^-1 g2^-1 g1\n"
            "rel r2: g2 g1 g2 g1^-1 g2^-1\n"
        )
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([{"gens": [1, 2], "rels": [1, 2]}]))
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1, 1, 2], [2, 2, 3]]}))

        commands = [
            ["check", str(pres)],
            ["normalize", str(pres), "--out", str(tmp_path / "n.txt")],
            ["ribbon", str(pres)],
            ["sublinks", str(pres), "--enumerate", "--probe-limit", "32"],
            ["homology", str(pres)],
            ["homology", str(matrix)],
            ["telescope", str(pres), "--stages", str(stages)],
            ["pi2probe", str(pres), "--limit", "32"],
        ]
        for argv in commands:
            outputs = []
            codes = []
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    codes.append(cli_main(argv))
                outputs.append(buf.getvalue())
            assert outputs[0] == outputs[1], argv
            assert codes[0] == codes[1], argv
            assert outputs[0], argv  # every command emits a report
