"""Command-line reports: exit codes, JSON shape, and determinism."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from asphere import Presentation, __version__, probe
from asphere.cli import _dumps, _load_presentation, build_parser, main
from asphere.complexes import HomologyReport
from asphere.links import SublinkSelection, exterior, exterior_homology
from asphere.presentations import exponent_matrix, normalize, parse_presentation_text, presentation_to_text
from asphere.probe import Verdict, asphericity_verdict
from asphere.words import parse_word, word_to_text

from support import random_surgery_code

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


SCRAMBLED = "gens: a b\nrel r1: a b a^-1 b^-2\nrel r2: b a b^-1 a^-2\n"
UNIT = "gens: 2\nrel r1: g1 g2 g1^-1 g2^-1 g1\nrel r2: g2 g1 g2 g1^-1 g2^-1\n"
DISK = "gens: 1\nrel r: g1\n"
# Identity exponent matrix on three generators.
UNIT3 = "gens: 3\nrel r1: g1 g2 g3 g2^-1 g3^-1\nrel r2: g2\nrel r3: g3 g1 g2 g1^-1 g2^-1\n"


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def compact(text):
    """The compact sorted encoding of a JSON document's parsed content."""
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


class TestCheck:
    def test_passing_presentation(self, run, tmp_path):
        f = write(tmp_path, "p.txt", UNIT)
        code, out, _ = run("check", f)
        report = json.loads(out)
        assert code == 0
        assert report["command"] == "check"
        assert report["findings"]["balanced"] is True
        assert report["findings"]["unimodular"] is True
        assert report["findings"]["homology_trivial_unit"] is True
        assert report["findings"]["exponent_snf"] == [1, 1]
        assert report["warnings"]  # triviality is assumed, never verified

    def test_scrambled_presentation_still_passes(self, run, tmp_path):
        f = write(tmp_path, "p.txt", SCRAMBLED)
        code, out, _ = run("check", f)
        report = json.loads(out)
        assert code == 0
        assert report["findings"]["homology_trivial_unit"] is False
        assert report["findings"]["homologically_contractible"] is True

    def test_failing_presentation(self, run, tmp_path):
        f = write(tmp_path, "p.txt", "gens: 1\nrel r: g1^2\n")
        code, out, _ = run("check", f)
        report = json.loads(out)
        assert code == 1
        assert report["findings"]["unimodular"] is False

    def test_parse_error_exit_2(self, run, tmp_path):
        f = write(tmp_path, "p.txt", "gens: 1\nrel r: g1^\n")
        code, out, err = run("check", f)
        assert code == 2
        assert not out
        assert "parse error" in err

    def test_unrecognized_line_exit_2(self, run, tmp_path):
        f = write(tmp_path, "p.txt", "gens: 1\nfoo\n")
        assert run("check", f) == (2, "", "parse error: line 2, col 1: unrecognized line 'foo'\n")

    @pytest.mark.parametrize(
        "text, snf, h2",
        [
            ("gens: 1\nrel r: g1^2\n", [2], 0),
            ("gens: 2\nrel r: g1 g2 g1^-1 g2^-1\n", [0], 1),
            ("gens: 2\nrel a: g1^2\nrel b: g2^2\nrel c: g1 g2 g1^-1 g2^-1\n", [2, 2], 1),
        ],
        ids=["torsion", "torus", "torsion-and-h2"],
    )
    def test_exponent_snf_is_the_smith_form_of_the_exponent_matrix(self, run, tmp_path, text, snf, h2):
        # `check` reads the Smith diagonal off the homology; `homology` on
        # matrix JSON computes it from the exponent matrix itself.
        code, out, _ = run("check", write(tmp_path, "p.txt", text))
        findings = json.loads(out)["findings"]
        assert (code, findings["exponent_snf"], findings["homology"]["H2"]) == (1, snf, h2)
        matrix = exponent_matrix(parse_presentation_text(text).presentation).to_json()
        code, out, _ = run("homology", write(tmp_path, "m.json", json.dumps(matrix)))
        assert code == 0
        assert json.loads(out)["findings"]["snf"] == snf

    @pytest.mark.parametrize(
        "text, unit",
        [(UNIT, True), (SCRAMBLED, False), ("gens: 2\nrel r: g1\n", None), ("gens: 1\nrel a: g1\nrel b: g1\n", None)],
        ids=["unit", "scrambled", "too-few-relators", "too-many-relators"],
    )
    def test_homology_trivial_unit_is_null_exactly_when_unbalanced(self, run, tmp_path, text, unit):
        _, out, _ = run("check", write(tmp_path, "p.txt", text))
        findings = json.loads(out)["findings"]
        assert (findings["balanced"], findings["homology_trivial_unit"]) == (unit is not None, unit)

    def test_missing_file_exit_2(self, run, tmp_path):
        code, _, err = run("check", str(tmp_path / "absent.txt"))
        assert code == 2
        assert "error" in err

    def test_window_truncation(self, run, tmp_path):
        f = write(tmp_path, "p.txt", SCRAMBLED)
        code, out, _ = run("--window", "1", "check", f)
        report = json.loads(out)
        # both relators touch generator 2, so the window keeps none of them
        assert report["findings"]["generators"] == 1
        assert report["findings"]["relators"] == 0
        assert code == 1

    def test_window_keeps_relator_names_with_their_relators(self, tmp_path):
        f = write(tmp_path, "p.txt", "gens: 3\nrel a: g1 g3\nrel b: g2\nrel c: g3\n")
        parsed = _load_presentation(Path(f), 2, {})
        assert parsed.presentation.relators == (parse_word("g2"),)
        assert parsed.rel_names == ("b",)

    @pytest.mark.parametrize(
        "text",
        [UNIT, SCRAMBLED, DISK, UNIT3, "gens: 1\nrel r: g1^2\n", "gens: 2\nrel r: g1\n",
         "gens: 1\nrel r1: g1\nrel r2: g1\n"],
        ids=["unit", "scrambled", "disk", "unit3", "torsion", "too-few-relators", "too-many-relators"],
    )
    def test_exit_0_exactly_when_homologically_contractible(self, run, tmp_path, text):
        code, out, _ = run("check", write(tmp_path, "p.txt", text))
        findings = json.loads(out)["findings"]
        assert code == (0 if findings["homologically_contractible"] else 1)
        if code == 0:
            assert findings["balanced"] and findings["unimodular"]

    def test_input_digest_recorded(self, run, tmp_path):
        f = write(tmp_path, "p.txt", DISK)
        _, out, _ = run("check", f)
        report = json.loads(out)
        assert list(report["inputs"]) == [f]
        assert len(report["inputs"][f]) == 64


class TestNormalize:
    def test_writes_normalized_file_and_log(self, run, tmp_path):
        f = write(tmp_path, "p.txt", SCRAMBLED)
        out_file = tmp_path / "norm.txt"
        code, out, _ = run("normalize", f, "--out", str(out_file))
        report = json.loads(out)
        assert code == 0
        assert report["findings"]["exponent_check"] is True
        assert out_file.exists()
        log_file = tmp_path / "norm.txt.bc.json"
        moves = json.loads(log_file.read_text())["moves"]
        assert moves and all(m[0] in {"swap", "invert", "rightmult"} for m in moves)

    def test_normalized_output_passes_check(self, run, tmp_path):
        f = write(tmp_path, "p.txt", SCRAMBLED)
        out_file = tmp_path / "norm.txt"
        run("normalize", f, "--out", str(out_file))
        code, out, _ = run("check", str(out_file))
        assert code == 0
        assert json.loads(out)["findings"]["homology_trivial_unit"] is True

    def test_in_place_reports_the_digest_of_the_input_read(self, run, tmp_path):
        f = write(tmp_path, "p.txt", SCRAMBLED)
        read = hashlib.sha256(SCRAMBLED.encode()).hexdigest()
        code, out, _ = run("normalize", f, "--out", f)
        assert code == 0
        assert Path(f).read_text() != SCRAMBLED
        assert json.loads(out)["inputs"] == {f: read}

    def test_moves_log_over_the_output_exit_2(self, run, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t").mkdir()
        write(tmp_path, "p.txt", SCRAMBLED)
        code, out, err = run("normalize", "p.txt", "--out", "t/n.txt", "--moves-out", "./t/n.txt")
        assert (code, out) == (2, "")
        assert err == "error: --moves-out names the --out file\n"
        assert not any((tmp_path / "t").iterdir())

    def test_non_unimodular_fails_with_snf(self, run, tmp_path):
        f = write(tmp_path, "p.txt", "gens: 1\nrel r: g1^2\n")
        code, out, _ = run("normalize", f, "--out", str(tmp_path / "n.txt"))
        report = json.loads(out)
        assert code == 1
        assert report["findings"]["exponent_snf"] == [2]


class TestRibbon:
    def test_emits_surgery_code(self, run, tmp_path):
        f = write(tmp_path, "p.txt", UNIT)
        code, out, _ = run("ribbon", f)
        report = json.loads(out)
        assert code == 0
        assert report["findings"]["handles"] == 2
        # A numbered input keeps the default names.
        assert report["findings"]["components"] == ["g1 g2 g1^-1 g2^-1 g1", "g2 g1 g2 g1^-1 g2^-1"]

    def test_rejects_non_unit_presentation(self, run, tmp_path):
        f = write(tmp_path, "p.txt", SCRAMBLED)
        code, out, _ = run("ribbon", f)
        assert code == 1
        assert "error" in json.loads(out)["findings"]


class TestSublinks:
    def test_explicit_fill(self, run, tmp_path):
        f = write(tmp_path, "p.txt", UNIT)
        code, out, _ = run("sublinks", f, "--fill", "2")
        report = json.loads(out)
        assert code == 0
        selections = report["findings"]["selections"]
        assert len(selections) == 1
        assert selections[0]["fill"] == [2]
        assert selections[0]["exterior"]["generators"] == 2

    def test_enumerate_all_selections(self, run, tmp_path):
        f = write(tmp_path, "p.txt", UNIT)
        code, out, _ = run("sublinks", f, "--enumerate")
        report = json.loads(out)
        assert code == 0
        selections = report["findings"]["selections"]
        assert len(selections) == 4
        assert [s["fill"] for s in selections] == [[], [1], [2], [1, 2]]

    def test_cap_blocks_large_enumerations(self, run, tmp_path):
        f = write(tmp_path, "p.txt", UNIT)
        code, out, _ = run("sublinks", f, "--enumerate", "--cap", "1")
        report = json.loads(out)
        assert code == 1
        assert report["findings"]["error"] == "enumeration cap exceeded"

    def test_cap_hint_names_a_cap_that_passes(self, run, tmp_path):
        f = write(tmp_path, "p.txt", UNIT)
        code, out, _ = run("sublinks", f, "--enumerate", "--cap", "1")
        assert code == 1
        hint = json.loads(out)["findings"]["hint"]
        assert hint == "re-run with --cap 2 to walk all 2^2 subsets"
        code, out, _ = run("sublinks", f, "--enumerate", *hint.split()[2:4])
        assert code == 0
        assert [s["fill"] for s in json.loads(out)["findings"]["selections"]] == [[], [1], [2], [1, 2]]

    def test_probe_limit_adds_verdicts(self, run, tmp_path):
        f = write(tmp_path, "p.txt", DISK)
        code, out, _ = run("sublinks", f, "--enumerate", "--probe-limit", "64")
        report = json.loads(out)
        assert code == 0
        for sel in report["findings"]["selections"]:
            assert sel["probe"]["verdict"] == "aspherical"

    def test_partial_fill_of_three_components(self, run, tmp_path):
        f = write(tmp_path, "p.txt", UNIT3)
        code, out, _ = run("sublinks", f, "--fill", "1,3")
        assert code == 0
        (sel,) = json.loads(out)["findings"]["selections"]
        assert sel["fill"] == [1, 3]
        assert sel["exterior"] == {
            "generators": 3,
            "relators": ["g1 g2 g3 g2^-1 g3^-1", "g3 g1 g2 g1^-1 g2^-1"],
        }
        assert sel["homology"] == {"H0": 1, "H1": {"rank": 1, "torsion": []}, "H2": 0, "chi": 0}

    def test_fill_report_bytes_pinned(self, run, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "p.txt", UNIT)
        code, out, _ = run("sublinks", "p.txt", "--fill", "2")
        assert code == 0
        assert out == compact(FILL_2_REPORT) + "\n"

    def test_enumerated_probed_report_bytes_pinned(self, run, tmp_path, monkeypatch):
        # Three components: the empty fill is a graph (aspherical), the six
        # proper fills have H1 of positive rank (inconclusive), and the full
        # fill presents the trivial group (aspherical).  Equal homology and
        # verdicts recur across selections.
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "p.txt", UNIT3)
        code, out, _ = run("sublinks", "p.txt", "--enumerate", "--probe-limit", "64")
        assert code == 0
        assert out == compact((DATA / "sublinks_unit3_enumerate_probe64.json").read_text()) + "\n"
        selections = json.loads(out)["findings"]["selections"]
        assert [(len(s["fill"]), s["homology"]["H1"]["rank"], s["probe"]["verdict"]) for s in selections] == [
            (0, 3, "aspherical"),
            (1, 2, "inconclusive"),
            (1, 2, "inconclusive"),
            (2, 1, "inconclusive"),
            (1, 2, "inconclusive"),
            (2, 1, "inconclusive"),
            (2, 1, "inconclusive"),
            (3, 0, "aspherical"),
        ]

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("shape", ["ring", "triangular"])
    def test_every_selection_matches_the_per_selection_route(self, run, tmp_path, shape, m):
        # Fills, homology and the probe's fixed answers are built once per
        # code; each selection must still read as if built on its own.
        sc = random_surgery_code(random.Random(f"{shape}:{m}"), shape, m)
        f = write(tmp_path, "p.txt", presentation_to_text(Presentation(m, sc.components)))
        code, out, _ = run("sublinks", f, "--enumerate", "--probe-limit", "64")
        assert code == 0
        selections = json.loads(out)["findings"]["selections"]
        assert len(selections) == 1 << m
        for mask, entry in enumerate(selections):
            sel = SublinkSelection(frozenset(j + 1 for j in range(m) if mask >> j & 1))
            assert entry["fill"] == sorted(sel.fill)
            assert entry["exterior"]["relators"] == [word_to_text(sc.components[j - 1]) for j in entry["fill"]]
            assert entry["homology"] == exterior_homology(sc, sel).to_json()
            assert entry["probe"] == asphericity_verdict(exterior(sc, sel), 64).to_json()

    @pytest.mark.parametrize("argv", [["--enumerate"], ["--fill", "1,3"], ["--enumerate", "--probe-limit", "64"]])
    def test_asphericity_note_is_written_once_per_report(self, run, tmp_path, argv):
        f = write(tmp_path, "p.txt", UNIT3)
        code, out, _ = run("sublinks", f, *argv)
        assert code == 0
        assert out.count('"exterior_asphericity"') == 1
        findings = json.loads(out)["findings"]
        assert findings["exterior_asphericity"] == "aspherical by construction (ribbon disk-link exterior)"
        assert not any("exterior_asphericity" in sel for sel in findings["selections"])

    def test_enumerated_fills_follow_their_masks(self, run, tmp_path):
        # The walk builds its fills by doubling; each must still be its
        # mask's components, in mask order.
        for m in range(11):
            sc = random_surgery_code(random.Random(m), "ring", m)
            f = write(tmp_path, "p.txt", presentation_to_text(Presentation(m, sc.components)))
            code, out, _ = run("sublinks", f, "--enumerate")
            assert code == 0
            fills = [sel["fill"] for sel in json.loads(out)["findings"]["selections"]]
            assert fills == [[j + 1 for j in range(m) if mask >> j & 1] for mask in range(1 << m)]

    def test_probe_limit_is_checked_before_the_shared_answers(self, run, tmp_path):
        f = write(tmp_path, "p.txt", UNIT)
        for argv in (["--enumerate"], ["--fill", "1"]):  # a proper fill has H1 of positive rank
            code, out, err = run("sublinks", f, *argv, "--probe-limit", "0")
            assert (code, out) == (2, "")
            assert "limit must be positive" in err
        # the empty fill is relator-free: a graph whatever the limit
        code, out, _ = run("sublinks", f, "--probe-limit", "0")
        assert code == 0
        (sel,) = json.loads(out)["findings"]["selections"]
        assert sel["probe"]["verdict"] == "aspherical"

    @pytest.mark.parametrize("text", [UNIT, "gens: 0\n"])
    def test_negative_cap_is_a_usage_error(self, run, tmp_path, text):
        f = write(tmp_path, "p.txt", text)
        code, out, err = run("sublinks", f, "--enumerate", "--cap", "-1")
        assert (code, out) == (2, "")
        assert "--cap must be nonnegative" in err
        code, out, _ = run("sublinks", f, "--enumerate", "--cap", "0")
        report = json.loads(out)
        assert report["config"]["cap"] == 0
        if text == UNIT:  # two components exceed a cap of 0
            assert code == 1
            assert report["findings"] == {
                "error": "enumeration cap exceeded",
                "components": 2,
                "cap": 0,
                "hint": "re-run with --cap 2 to walk all 2^2 subsets",
            }
        else:
            assert code == 0

    def test_fill_with_enumerate_is_a_usage_error(self, run, tmp_path):
        f = write(tmp_path, "p.txt", UNIT)
        with pytest.raises(SystemExit) as exc:
            run("sublinks", f, "--fill", "1", "--enumerate")
        assert exc.value.code == 2

    def test_cap_without_enumerate_is_a_usage_error(self, run, tmp_path):
        f = write(tmp_path, "p.txt", UNIT)
        code, out, err = run("sublinks", f, "--fill", "2", "--cap", "1")
        assert (code, out) == (2, "")
        assert "--cap applies only with --enumerate" in err

    @pytest.mark.parametrize("fill", ["9", "0", "1,3"])
    def test_missing_component_exit_2(self, run, tmp_path, fill):
        f = write(tmp_path, "p.txt", UNIT)
        code, out, err = run("sublinks", f, "--fill", fill)
        assert code == 2
        assert not out
        assert "outside 1..2" in err


FILL_2_REPORT = """\
{
  "command": "sublinks",
  "config": {
    "cap": 12,
    "enumerate": false,
    "fill": "2",
    "probe_limit": null,
    "window": null
  },
  "findings": {
    "components": 2,
    "exterior_asphericity": "aspherical by construction (ribbon disk-link exterior)",
    "selections": [
      {
        "exterior": {
          "generators": 2,
          "relators": [
            "g2 g1 g2 g1^-1 g2^-1"
          ]
        },
        "fill": [
          2
        ],
        "homology": {
          "H0": 1,
          "H1": {
            "rank": 1,
            "torsion": []
          },
          "H2": 0,
          "chi": 0
        }
      }
    ]
  },
  "inputs": {
    "p.txt": "4561587dd7209daf1ac53b684145b248830522f5c6898c6ed95e0439d96d46c9"
  },
  "tool": "asphere",
  "version": "0.1.0",
  "warnings": [
    "group triviality assumed, not verified (contractibility hypothesis)"
  ]
}
"""


class TestHomology:
    def test_presentation_homology(self, run, tmp_path):
        f = write(tmp_path, "p.txt", "gens: 2\nrel r: g1 g2 g1^-1 g2^-1\n")
        code, out, _ = run("homology", f)
        findings = json.loads(out)["findings"]
        assert code == 0
        assert findings == {
            "H0": 1,
            "H1": {"rank": 2, "torsion": []},
            "H2": 1,
            "chi": 0,
        }

    def test_matrix_snf(self, run, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1, 1, 2], [2, 2, 3]]}))
        code, out, _ = run("homology", str(f))
        findings = json.loads(out)["findings"]
        assert code == 0
        assert findings["snf"] == [1, 6]

    def test_window_with_matrix_exit_2(self, run, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[1, 1, 2]]}))
        code, out, err = run("--window", "1", "homology", str(f))
        assert (code, out) == (2, "")
        assert "--window" in err

    def test_bad_matrix_json_exit_2(self, run, tmp_path):
        f = tmp_path / "m.json"
        f.write_text("{not json")
        code, _, err = run("homology", str(f))
        assert code == 2

    def test_input_kind_is_read_off_the_first_nonblank_character(self, run, tmp_path):
        matrix = write(tmp_path, "m.txt", '\n  \n\t{"rows": 2, "cols": 2, "entries": [[1, 1, 2], [2, 2, 3]]}')
        code, out, _ = run("homology", matrix)
        assert (code, json.loads(out)["findings"]) == (0, {"rows": 2, "cols": 2, "snf": [1, 6]})
        presentation = write(tmp_path, "p.json", '# {"rows": 1} [1]\n\ngens: 2\nrel r: g1 g2 g1^-1 g2^-1\n')
        code, out, _ = run("homology", presentation)
        assert (code, json.loads(out)["findings"]["H2"]) == (0, 1)
        code, out, err = run("homology", write(tmp_path, "l.json", "[1, 2]"))
        assert (code, out) == (2, "")
        assert err == 'error: matrix JSON must be an object with "rows", "cols" and "entries"\n'

    def test_one_read_of_each_input(self, run, tmp_path, monkeypatch):
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(str(path)) or read_bytes(path))
        for name, text in [("m.json", '{"rows": 1, "cols": 1, "entries": [[1, 1, 4]]}'), ("p.txt", DISK)]:
            f = write(tmp_path, name, text)
            code, out, _ = run("homology", f)
            report = json.loads(out)
            assert (code, report["config"]) == (0, {"window": None})
            assert report["inputs"] == {f: hashlib.sha256(text.encode()).hexdigest()}
            assert reads.pop() == f and not reads

    @pytest.mark.parametrize(
        "matrix",
        [
            {"rows": 2},
            [1, 2],
            {"rows": 2, "cols": 2, "entries": [5]},
            {"rows": "2", "cols": 2, "entries": []},
            {"rows": 1, "cols": 1, "entries": [[1, 1, 0.5]]},
            {"rows": 1, "cols": 1, "entries": [[1, 1, True]]},
            {"rows": 1, "cols": 1, "entries": [[2, 1, 3]]},
        ],
        ids=["missing-key", "not-object", "not-triple", "string-size", "float-value", "bool-value", "outside-window"],
    )
    def test_malformed_matrix_exit_2(self, run, tmp_path, matrix):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(matrix))
        code, out, err = run("homology", str(f))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestIntakeBounds:
    # Inputs one past each bound, small enough to run were the bound gone.
    # The ten-digit sizes that once ran out of memory (exit 3) are parsed by
    # the unit tests of words, presentations and intmat, which allocate
    # nothing for them.
    @pytest.mark.parametrize(
        "argv, name, text, error",
        [
            (["check"], "p.txt", "gens: 10001\n", "parse error: line 1, col 1: more than 10000 generators"),
            (
                ["check"],
                "p.txt",
                "gens: 1\nrel r: g1^1000001\n",
                "parse error: line 2, col 8: more than 1000000 letters after expanding powers",
            ),
            (
                ["homology"],
                "m.json",
                '{"rows": 10001, "cols": 1, "entries": [[1,1,1]]}',
                "error: matrix rows and cols must be at most 10000",
            ),
            (["--window", "-1", "check"], "p.txt", UNIT, "error: --window must be nonnegative"),
            (["--window", "-1", "homology"], "p.txt", UNIT, "error: --window must be nonnegative"),
            # 2,000 involutions: H1 is all torsion, so the probe would build
            # a coset table of 4,000 columns and up to 1,000,000 rows.
            (
                ["pi2probe", "--limit", "1000000"],
                "p.txt",
                "gens: 2000\n" + "".join(f"rel r{i}: g{i}^2\n" for i in range(1, 2001)),
                "error: limit 1000000 x 4000 table columns is more than 10000000 cells",
            ),
        ],
        ids=["generators", "letters", "matrix-side", "negative-window", "negative-window-homology", "table-cells"],
    )
    def test_oversized_or_negative_input_exits_2_naming_its_bound(self, run, tmp_path, argv, name, text, error):
        assert run(*argv, write(tmp_path, name, text)) == (2, "", error + "\n")


class TestNamedFlow:
    # AK(3) = <x, y | x^3 y^-4, x y x y^-1 x^-1 y^-1>, with exponent matrix
    # [[3, 1], [-4, -1]] of determinant 1.
    AK3 = "gens: x y\nrel r1: x^3 y^-4\nrel r2: x y x y^-1 x^-1 y^-1\n"

    def test_components_keep_the_input_names(self, run, tmp_path):
        code, out, _ = run("check", write(tmp_path, "ak3.txt", self.AK3))
        findings = json.loads(out)["findings"]
        assert (code, findings["unimodular"], findings["homology_trivial_unit"]) == (0, True, False)
        norm = str(tmp_path / "ak3.norm.txt")
        code, _, _ = run("normalize", str(tmp_path / "ak3.txt"), "--out", norm)
        assert code == 0
        text = Path(norm).read_text()
        assert text.startswith("gens: x y\n")
        relators = [line.split(": ", 1)[1] for line in text.splitlines()[1:]]
        cert = normalize(parse_presentation_text(self.AK3).presentation)
        assert [parse_word(r, {"x": 1, "y": 2}) for r in relators] == list(cert.new_relators)
        code, out, _ = run("ribbon", norm)
        assert (code, json.loads(out)["findings"]) == (0, {"handles": 2, "components": relators})
        code, out, _ = run("sublinks", norm, "--enumerate")
        assert code == 0
        for sel in json.loads(out)["findings"]["selections"]:
            assert sel["exterior"]["relators"] == [relators[j - 1] for j in sel["fill"]]


class TestTelescope:
    def test_matches_final_stage(self, run, tmp_path):
        f = write(tmp_path, "p.txt", "gens: 2\nrel r: g1 g2 g1^-1 g2^-1\n")
        stages = tmp_path / "stages.json"
        stages.write_text(
            json.dumps(
                [
                    {"gens": [1], "rels": []},
                    {"gens": [1, 2], "rels": [1]},
                ]
            )
        )
        code, out, _ = run("telescope", f, "--stages", str(stages))
        report = json.loads(out)
        assert code == 0
        assert report["findings"]["homology_match"] is True
        assert report["findings"]["telescope"]["vertices"] == 2

    def test_bad_filtration_exit_2(self, run, tmp_path):
        f = write(tmp_path, "p.txt", "gens: 2\nrel r: g1 g2 g1^-1 g2^-1\n")
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([{"gens": [1], "rels": []}]))
        code, _, err = run("telescope", f, "--stages", str(stages))
        assert code == 2  # final stage is not the whole complex

    @pytest.mark.parametrize(
        "spec",
        [
            [{"gens": [1], "rels": [1]}, {"gens": [1, 2], "rels": [1]}],
            [{"gens": [1, 2], "rels": [1]}, {"gens": [2], "rels": [1]}],
        ],
        ids=["dangling", "decreasing"],
    )
    def test_dangling_stage_exit_2(self, run, tmp_path, spec):
        f = write(tmp_path, "p.txt", "gens: 2\nrel r: g1 g2 g1^-1 g2^-1\n")
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps(spec))
        code, out, err = run("telescope", f, "--stages", str(stages))
        assert (code, out) == (2, "")
        assert err.startswith("error: relator 1 uses unselected generator")

    def test_final_stage_homology_is_the_homology_report(self, run, tmp_path):
        f = write(tmp_path, "p.txt", "gens: 2\nrel r1: g1^2\nrel r2: g2^3 g1\n")
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([{"gens": [1], "rels": [1]}, {"gens": [1, 2], "rels": [1, 2]}]))
        code, out, _ = run("telescope", f, "--stages", str(stages))
        assert code == 0
        final = json.loads(out)["findings"]["final_stage_homology"]
        code, out, _ = run("homology", f)
        assert code == 0
        assert final == json.loads(out)["findings"]
        assert final["H1"]["torsion"] == [6]

    @pytest.mark.parametrize(
        "spec",
        [
            [{"gens": [1, 2]}],
            {"gens": [1, 2], "rels": [1, 2]},
            [{"gens": 3, "rels": [1]}],
        ],
        ids=["missing-rels", "not-list", "gens-not-list"],
    )
    def test_malformed_stages_exit_2(self, run, tmp_path, spec):
        f = write(tmp_path, "p.txt", "gens: 2\nrel r: g1 g2 g1^-1 g2^-1\n")
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps(spec))
        code, out, err = run("telescope", f, "--stages", str(stages))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestPi2Probe:
    def test_aspherical_fixture(self, run, tmp_path):
        f = write(tmp_path, "p.txt", DISK)
        code, out, _ = run("pi2probe", f)
        report = json.loads(out)
        assert code == 0
        assert report["findings"]["verdict"] == "aspherical"

    def test_counterexample_exit_1(self, run, tmp_path):
        f = write(tmp_path, "p.txt", "gens: 1\nrel r: g1^2\n")
        code, out, _ = run("pi2probe", f, "--limit", "32")
        report = json.loads(out)
        assert code == 1
        assert report["findings"]["verdict"] == "not_aspherical"
        assert report["findings"]["kernel_rank"] == 1

    def test_overflow_inconclusive(self, run, tmp_path):
        f = write(tmp_path, "p.txt", "gens: 2\nrel a: g1^2\nrel b: g2^3\n")
        code, out, _ = run("pi2probe", f, "--limit", "16")
        report = json.loads(out)
        assert code == 0
        assert report["findings"]["verdict"] == "inconclusive"
        assert report["findings"]["reason"] == "coset enumeration exceeded limit 16"

    def test_positive_free_rank_inconclusive(self, run, tmp_path):
        f = write(tmp_path, "p.txt", "gens: 2\nrel r: g1 g2 g1^-1 g2^-1\n")
        code, out, _ = run("pi2probe", f, "--limit", "16")
        report = json.loads(out)
        assert code == 0
        assert report["findings"]["verdict"] == "inconclusive"
        assert report["findings"]["reason"] == "infinite: H1 has positive free rank"

    def test_table_of_another_group_exit_3(self, run, tmp_path, monkeypatch):
        # The table of Z3 is complete, but g1^2 does not close on it.
        enumerate_ = probe.coset_enumerate
        z3 = Presentation(1, (parse_word("g1^3"),))
        monkeypatch.setattr(probe, "coset_enumerate", lambda p, limit: enumerate_(z3, limit))
        f = write(tmp_path, "p.txt", "gens: 1\nrel r: g1^2\n")
        code, out, err = run("pi2probe", f, "--limit", "32")
        assert (code, out) == (3, "")
        assert "relator 1 does not close at coset 1" in err

    def test_nonpositive_limit_exit_2(self, run, tmp_path):
        f = write(tmp_path, "p.txt", "gens: 2\nrel r: g1 g2 g1^-1 g2^-1\n")
        code, out, err = run("pi2probe", f, "--limit", "0")
        assert code == 2
        assert not out
        assert "limit must be positive" in err
        # a relator-free complex is a graph whatever the limit
        f = write(tmp_path, "free.txt", "gens: 2\n")
        code, out, _ = run("pi2probe", f, "--limit", "0")
        assert code == 0
        assert json.loads(out)["findings"]["verdict"] == "aspherical"


class TestParserReuse:
    def test_no_state_carries_between_calls(self, run, tmp_path):
        f = write(tmp_path, "p.txt", UNIT)
        run("--window", "1", "check", f)
        _, out, _ = run("check", f)
        assert json.loads(out)["config"]["window"] is None

    def test_usage_error_then_valid_call(self, run, tmp_path):
        f = write(tmp_path, "p.txt", UNIT)
        with pytest.raises(SystemExit) as exc:
            run("check", f, "--no-such-flag")
        assert exc.value.code == 2
        code, out, _ = run("check", f)
        assert code == 0
        assert json.loads(out)["findings"]["generators"] == 2


def option_defaults(parser):
    return {
        s: a.default for a in parser._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings
    }


class TestUsage:
    def test_option_census(self, run, tmp_path):
        # Every option of every command and its default, so that a new knob
        # or a changed default shows up here.
        parser = build_parser()
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        census = {"": option_defaults(parser)}
        census.update((name, option_defaults(p)) for name, p in commands.choices.items())
        assert census == {
            "": {"--window": None},
            "check": {},
            "normalize": {"--moves-out": None, "--out": None},
            "ribbon": {},
            "sublinks": {"--cap": None, "--enumerate": False, "--fill": None, "--probe-limit": None},
            "homology": {},
            "telescope": {"--stages": None},
            "pi2probe": {"--limit": 256},
        }
        assert sum(map(len, census.values())) == 9
        code, out, _ = run("pi2probe", write(tmp_path, "p.txt", DISK))
        assert code == 0
        assert json.loads(out)["config"] == {"window": None, "limit": 256}

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--seed=1", "check", "{f}"], "unrecognized arguments: --seed=1"),
            # the value then stands where the command belongs
            (["--seed", "1", "check", "{f}"], "argument command: invalid choice: '1'"),
            (["sublinks", "{f}", "--enumerate", "--force"], "unrecognized arguments: --force"),
            (["homology", "{f}", "--matrix"], "unrecognized arguments: --matrix"),
        ],
        ids=["seed=1", "seed_1", "force", "matrix"],
    )
    def test_removed_options_are_usage_errors(self, run, tmp_path, capsys, argv, error):
        f = write(tmp_path, "p.txt", UNIT)
        with pytest.raises(SystemExit) as exc:
            run(*(a.format(f=f) for a in argv))
        assert exc.value.code == 2
        assert error in capsys.readouterr().err


def every_command(tmp_path):
    """One argv per command on the fixtures: `normalize` rewrites SCRAMBLED,
    and `ribbon` on SCRAMBLED fails its check and still reports."""
    f = write(tmp_path, "p.txt", UNIT)
    scrambled = write(tmp_path, "scrambled.txt", SCRAMBLED)
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps([{"gens": [1, 2], "rels": [1, 2]}]))
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[1, 1, 4]]}))
    return [
        ("check", f),
        ("normalize", scrambled, "--out", str(tmp_path / "n.txt")),
        ("ribbon", f),
        ("ribbon", scrambled),
        ("sublinks", f, "--enumerate", "--probe-limit", "32"),
        ("homology", f),
        ("homology", str(matrix)),
        ("telescope", f, "--stages", str(stages)),
        ("pi2probe", f, "--limit", "32"),
    ]


class TestDeterminism:
    def test_reports_are_byte_identical_across_runs(self, run, tmp_path):
        for argv in every_command(tmp_path):
            first = run(*argv)
            second = run(*argv)
            assert first == second, argv

    def test_every_report_is_one_compact_sorted_line(self, run, tmp_path):
        codes = []
        for argv in every_command(tmp_path):
            code, out, _ = run(*argv)
            codes.append(code)
            assert out == compact(out) + "\n", argv
        assert codes == [0, 0, 0, 1, 0, 0, 0, 0, 0]
        log = (tmp_path / "n.txt.bc.json").read_text()
        assert json.loads(log)["moves"] and log == compact(log)


class TestEnvelope:
    def test_every_report_has_the_seven_keys_and_its_resolved_config(self, run, tmp_path):
        # The three check-failed reports (`ribbon` on SCRAMBLED is one of
        # every_command's) carry the config resolved before the check failed.
        n, t = str(tmp_path / "n.txt"), str(tmp_path / "t.txt")
        stages = str(tmp_path / "stages.json")
        configs = [
            {},
            {"out": n, "moves_out": n + ".bc.json"},
            {},
            {},
            {"fill": None, "enumerate": True, "cap": 12, "probe_limit": 32},
            {},
            {},
            {"stages": stages},
            {"limit": 32},
        ]
        cases = list(zip(every_command(tmp_path), configs, [0, 0, 0, 1, 0, 0, 0, 0, 0], strict=True))
        unit, torsion = write(tmp_path, "p.txt", UNIT), write(tmp_path, "torsion.txt", "gens: 1\nrel r: g1^2\n")
        cases += [
            (("normalize", torsion, "--out", t), {"out": t, "moves_out": t + ".bc.json"}, 1),
            (
                ("sublinks", unit, "--enumerate", "--cap", "1"),
                {"fill": None, "enumerate": True, "cap": 1, "probe_limit": None},
                1,
            ),
        ]
        for argv, config, exit_code in cases:
            code, out, _ = run(*argv)
            report = json.loads(out)
            assert code == exit_code, argv
            assert set(report) == {"tool", "version", "command", "inputs", "config", "findings", "warnings"}
            assert (report["tool"], report["version"], report["command"]) == ("asphere", __version__, argv[0])
            assert report["config"] == {"window": None, **config}, argv
            read = [argv[1]] + [stages] * (argv[0] == "telescope")
            assert report["inputs"] == {f: hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in read}, argv
            assert ("error" in report["findings"]) == (code == 1), argv


class TestFootprint:
    @pytest.mark.parametrize(
        "hide, loaded",
        [("", "[]"), ("sys.modules['_sha256'] = sys.modules['_sha2'] = None\n", "['_hashlib', 'hashlib']")],
        ids=["builtin", "fallback"],
    )
    def test_input_digest_without_openssl(self, tmp_path, hide, loaded):
        """In a fresh interpreter the built-in SHA-256 keeps `hashlib`, and
        OpenSSL under it, out of the process; without that module the
        digest comes from `hashlib`, byte for byte the same."""
        f = write(tmp_path, "p.txt", UNIT)
        code = (
            f"import sys\n{hide}"
            "from asphere.cli import main\n"
            "main(sys.argv[1:])\n"
            "print(sorted({'hashlib', '_hashlib'} & sys.modules.keys()))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code, "check", f], env=env, capture_output=True, text=True, check=True
        )
        report, modules = proc.stdout.splitlines()
        assert modules == loaded
        assert json.loads(report)["inputs"] == {f: hashlib.sha256(UNIT.encode()).hexdigest()}

    def test_cold_start_loads_no_code_generator(self):
        """A fresh `import asphere.cli` loads neither `dataclasses` nor the
        `inspect` under it: the value classes are `Record`s, built without
        generated code."""
        code = "import sys\nimport asphere.cli\nprint(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"

    def test_commands_leave_no_cyclic_garbage(self, tmp_path):
        """Garbage in a reference cycle lives until a collection and inflates
        the resident peak; no command should leave any once the parser is
        built."""
        build_parser()
        for argv in every_command(tmp_path):
            gc.collect()
            gc.disable()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    main(list(argv))
                assert gc.collect() == 0, argv
            finally:
                gc.enable()


json_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001d11e')))
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1]),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80),
    json_text,
)
json_values = st.recursive(
    json_scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(json_text, kids, max_size=4),
    ),
    max_leaves=30,
)


small = st.integers(min_value=-3, max_value=3)
maybe_small = st.none() | st.integers(min_value=0, max_value=3)
report_objects = st.one_of(
    st.builds(HomologyReport, small, small, st.lists(st.integers(2, 4), max_size=2).map(tuple), small, small),
    st.builds(
        Verdict,
        st.sampled_from(["aspherical", "not_aspherical", "inconclusive"]),
        maybe_small,
        maybe_small,
        st.none() | st.lists(small, max_size=3).map(tuple),
        st.sampled_from(["r", "s\u00e9"]),
    ),
)
# Small fields, so equal but distinct report objects recur in one document.
values_with_reports = st.recursive(
    json_scalars | report_objects,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(json_text, kids, max_size=4),
    ),
    max_leaves=30,
)


def expand(v):
    """`v` with each report object replaced by its `to_json()`."""
    if isinstance(v, (HomologyReport, Verdict)):
        return expand(v.to_json())
    if isinstance(v, (list, tuple)):
        return [expand(x) for x in v]
    if isinstance(v, dict):
        return {k: expand(x) for k, x in v.items()}
    return v


class TestWriter:
    @given(json_values)
    def test_dumps_is_json_dumps_byte_for_byte(self, v):
        assert _dumps(v) == json.dumps(v, sort_keys=True, separators=(",", ":"))

    @given(values_with_reports)
    def test_report_objects_are_written_as_their_to_json(self, v):
        assert _dumps(v) == json.dumps(expand(v), sort_keys=True, separators=(",", ":"))

    def test_equal_but_distinct_report_objects(self):
        v1 = Verdict("inconclusive", None, None, None, "infinite: H1 has positive free rank")
        v2 = Verdict("inconclusive", None, None, None, "infinite: H1 has positive free rank")
        w = Verdict("not_aspherical", 2, 1, (1, -1), "witness")
        h1, h2 = HomologyReport(1, 0, (), 0, 1), HomologyReport(1, 0, (), 0, 1)
        assert v1 == v2 and v1 is not v2 and h1 == h2 and h1 is not h2
        v = [{"probe": v1, "homology": h1}, {"probe": v2, "homology": h2}, [w, v2, [h2, v1]], w]
        assert _dumps(v) == json.dumps(expand(v), sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("v", [[object()], {"k": [HomologyReport(1, 0, (), 0, 1), object()]}],
                             ids=["no-to-json", "nested-no-to-json"])
    def test_non_report_values_are_rejected(self, v):
        with pytest.raises(TypeError, match="not a report value: object"):
            _dumps(v)

    def test_non_report_value_in_a_report_exits_3(self, run, tmp_path, monkeypatch):
        f = write(tmp_path, "p.txt", UNIT)
        monkeypatch.setattr("asphere.cli.is_homology_trivial_unit", lambda p: object())
        code, out, err = run("check", f)
        assert (code, out) == (3, "")
        assert err.startswith("internal error: TypeError")
