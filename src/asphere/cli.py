"""Command-line front end.

Subcommands: check, normalize, ribbon, sublinks, homology, telescope,
pi2probe.  Each command returns its findings and warnings, and `main`
writes the report: one JSON object on stdout with the keys `tool`,
`version`, `command`, `inputs`, `config`, `findings` and `warnings`, a
check-failed report included.  It is one compact line with sorted keys, as
`json.dumps(report, sort_keys=True, separators=(",", ":"))` writes it;
`normalize` writes its base-change log the same way.  Identical inputs and
flags produce byte-identical findings.  `homology` reads matrix JSON when
the file's first non-blank character is `{` or `[`, and a presentation
otherwise; `ribbon` and `sublinks` write components under the input's
generator names.  Exit codes: 0 ok, 1 check failed, 2 parse/usage error
(oversized input included), 3 internal invariant violation.  Input digests
come from the interpreter's built-in SHA-256, so no command loads OpenSSL.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

try:  # hashlib's digest without hashlib, which loads OpenSSL (about 3.5 MiB)
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .complexes import (
    Filtration,
    SubcomplexSpec,
    from_presentation,
    homology,
    telescope,
)
from .intmat import NotUnimodular, SparseIntMatrix, smith_normal_form
from .links import (
    NotHomologyTrivialUnit,
    SublinkSelection,
    _check_fill,
    build_surgery_code,
    exterior,
    exterior_homology,
)
from .presentations import (
    ParseError,
    ParsedPresentation,
    Presentation,
    exponent_matrix,
    is_homology_trivial_unit,
    normalize,
    parse_presentation_text,
    presentation_to_text,
)
from .probe import asphericity_verdict
from .words import Invert, RightMultiply, Swap, word_to_text


class CheckFailed(Exception):
    """A command-level check failed; carries the findings and warnings to
    report, which `main` writes with exit code 1."""

    def __init__(self, findings: dict, warnings: list[str]):
        super().__init__("check failed")
        self.findings = findings
        self.warnings = warnings


TRIVIALITY_WARNING = (
    "group triviality assumed, not verified (contractibility hypothesis)"
)
ASPHERICITY_NOTE = "aspherical by construction (ribbon disk-link exterior)"


def _read(path: Path, inputs: dict[str, str]) -> str:
    """An input file's text, read once; `inputs` records the sha256 of the
    bytes parsed, even if the command then overwrites the file."""
    data = path.read_bytes()
    inputs[str(path)] = sha256(data).hexdigest()
    return data.decode()


def _to_json(v):
    """A report object's JSON form; any other value is not a report value."""
    if hasattr(v, "to_json"):
        return v.to_json()
    raise TypeError(f"not a report value: {type(v).__name__}")


# One shared encoder: `json.dumps` would build a new one for every report.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_to_json).encode


def _load_presentation(path: Path, window: int | None, inputs: dict[str, str]) -> ParsedPresentation:
    return _windowed(parse_presentation_text(_read(path, inputs)), window)


def _windowed(parsed: ParsedPresentation, window: int | None) -> ParsedPresentation:
    """`parsed` cut to its first `window` generators and the relators on them."""
    if window is not None:
        if window < 0:
            raise ValueError("--window must be nonnegative")
        p = parsed.presentation
        n = min(window, p.n_generators)
        keep = [
            (r, name)
            for r, name in zip(p.relators[:window], parsed.rel_names)
            if r.max_index() <= n
        ]
        parsed = ParsedPresentation(
            Presentation(n, tuple(r for r, _ in keep)),
            parsed.gen_names[: window] if parsed.gen_names else None,
            tuple(name for _, name in keep),
        )
    return parsed


# A move's JSON form is its name, then its generator indices: its fields, in order.
_MOVE_NAMES = {Swap: "swap", Invert: "invert", RightMultiply: "rightmult"}


# ---------------------------------------------------------------------------
# Commands.  Each records its input digests in `inputs` through `_read`,
# adds its own options to `config` with defaults resolved, and returns its
# exit code, findings and warnings.


def cmd_check(args: argparse.Namespace, inputs: dict[str, str], config: dict) -> tuple[int, object, list[str]]:
    p = _load_presentation(Path(args.file), args.window, inputs).presentation
    h = homology(from_presentation(p))
    # d2 of the one-vertex complex is the exponent matrix, so its Smith
    # diagonal is read off the homology: r2 nonzero entries, torsion last.
    n, m = p.n_generators, len(p.relators)
    r2 = m - h.h2
    diag = (1,) * (r2 - len(h.h1_torsion)) + h.h1_torsion + (0,) * (min(n, m) - r2)
    unimodular = p.balanced and all(d == 1 for d in diag)
    contractible = h.homologically_contractible
    findings = {
        "generators": p.n_generators,
        "relators": len(p.relators),
        "balanced": p.balanced,
        "exponent_snf": list(diag),
        "unimodular": unimodular,
        "homology": h,
        "homologically_contractible": contractible,
        "homology_trivial_unit": is_homology_trivial_unit(p) if p.balanced else None,
    }
    # Over one vertex, H1 = H2 = 0 forces n = m = r2 and a diagonal of ones,
    # so a contractible complex is also balanced and unimodular.
    return (0 if contractible else 1), findings, [TRIVIALITY_WARNING]


def cmd_normalize(args: argparse.Namespace, inputs: dict[str, str], config: dict) -> tuple[int, object, list[str]]:
    parsed = _load_presentation(Path(args.file), args.window, inputs)
    p = parsed.presentation
    out = Path(args.out)
    moves_out = Path(args.moves_out) if args.moves_out else out.with_suffix(out.suffix + ".bc.json")
    if moves_out.resolve() == out.resolve():
        raise ValueError("--moves-out names the --out file")
    config.update(out=str(out), moves_out=str(moves_out))
    try:
        cert = normalize(p)
    except NotUnimodular as exc:
        diag, _, _ = smith_normal_form(exponent_matrix(p))
        raise CheckFailed({"error": "not unimodular", "detail": str(exc), "exponent_snf": list(diag)}, []) from exc
    normalized = Presentation(p.n_generators, cert.new_relators)
    out.write_text(presentation_to_text(normalized, parsed.gen_names, parsed.rel_names))
    moves = [[_MOVE_NAMES[type(m)], *vars(m).values()] for m in cert.base_change.moves]
    moves_out.write_text(_dumps({"moves": moves}))
    findings = {"exponent_check": cert.exponent_check, "moves": len(cert.base_change)}
    return (0 if cert.exponent_check else 3), findings, [TRIVIALITY_WARNING]


def _surgery_code_or_fail(parsed: ParsedPresentation):
    """The surgery code and its components' texts, under the input's names."""
    try:
        sc = build_surgery_code(parsed.presentation)
    except NotHomologyTrivialUnit as exc:
        findings = {"error": "not a homology-trivial unit-group presentation", "detail": str(exc)}
        raise CheckFailed(findings, [TRIVIALITY_WARNING]) from exc
    return sc, [word_to_text(k, parsed.gen_names) for k in sc.components]


def cmd_ribbon(args: argparse.Namespace, inputs: dict[str, str], config: dict) -> tuple[int, object, list[str]]:
    sc, texts = _surgery_code_or_fail(_load_presentation(Path(args.file), args.window, inputs))
    return 0, {"handles": sc.n_handles, "components": texts}, [TRIVIALITY_WARNING]


def _selection_report(sc, texts: list[str], homology: list, fill: tuple[int, ...], probe_limit: int | None) -> dict:
    """One selection's entry for a sorted, checked fill; `texts` holds each
    component's text and `homology[k]` the JSON form of the exterior
    homology of every fill of size k, both built once per code."""
    entry = {
        "fill": fill,
        "exterior": {
            "generators": sc.n_handles,
            "relators": [texts[j - 1] for j in fill],
        },
        "homology": homology[len(fill)],
    }
    if probe_limit is not None:
        entry["probe"] = asphericity_verdict(exterior(sc, SublinkSelection(fill)), probe_limit).to_json()
    return entry


def cmd_sublinks(args: argparse.Namespace, inputs: dict[str, str], config: dict) -> tuple[int, object, list[str]]:
    if not args.enumerate and args.cap is not None:
        raise ValueError("--cap applies only with --enumerate")
    cap = 12 if args.cap is None else args.cap
    if cap < 0:
        raise ValueError("--cap must be nonnegative")
    config.update(fill=args.fill, enumerate=args.enumerate, cap=cap, probe_limit=args.probe_limit)
    sc, texts = _surgery_code_or_fail(_load_presentation(Path(args.file), args.window, inputs))
    m = len(sc.components)
    if args.enumerate:
        if m > cap:
            hint = f"re-run with --cap {m} to walk all 2^{m} subsets"
            raise CheckFailed({"error": "enumeration cap exceeded", "components": m, "cap": cap, "hint": hint}, [])
        # Doubling keeps mask order: the fills of mask + 2^(j-1) are those of mask, plus j.
        fills = [()]
        for j in range(1, m + 1):
            fills += [f + (j,) for f in fills]
    else:
        fill = frozenset(int(tok) for tok in args.fill.split(",") if tok) if args.fill else frozenset()
        _check_fill(fill, m)
        fills = [tuple(sorted(fill))]
    # H1 = Z^(n - |F|): one report per fill size serves every fill of that size.
    homology = [exterior_homology(sc, SublinkSelection(frozenset(range(1, k + 1)))).to_json() for k in range(m + 1)]
    reports = [_selection_report(sc, texts, homology, fill, args.probe_limit) for fill in fills]
    findings = {"components": m, "exterior_asphericity": ASPHERICITY_NOTE, "selections": reports}
    return 0, findings, [TRIVIALITY_WARNING]


def cmd_homology(args: argparse.Namespace, inputs: dict[str, str], config: dict) -> tuple[int, object, list[str]]:
    text = _read(Path(args.file), inputs)
    # No presentation line starts with `{` or `[`, so such a file is matrix JSON.
    if text.lstrip()[:1] in ("{", "["):
        if args.window is not None:
            raise ValueError("--window applies to presentations, not to matrix input")
        m = SparseIntMatrix.from_json(json.loads(text))
        diag, _, _ = smith_normal_form(m)
        return 0, {"rows": m.rows, "cols": m.cols, "snf": list(diag)}, []
    p = _windowed(parse_presentation_text(text), args.window).presentation
    return 0, homology(from_presentation(p)), []


def cmd_telescope(args: argparse.Namespace, inputs: dict[str, str], config: dict) -> tuple[int, object, list[str]]:
    stages_path = Path(args.stages)
    config["stages"] = str(stages_path)
    p = _load_presentation(Path(args.file), args.window, inputs).presentation
    stage_specs = json.loads(_read(stages_path, inputs))
    if not isinstance(stage_specs, list) or not all(
        isinstance(s, dict)
        and all(isinstance(s.get(k), list) and all(type(x) is int for x in s[k]) for k in ("gens", "rels"))
        for s in stage_specs
    ):
        raise ValueError('stages JSON must be a list of {"gens": [...], "rels": [...]} integer lists')
    stages = tuple(
        SubcomplexSpec(
            frozenset(s["gens"]), frozenset(s["rels"]), p.n_generators, len(p.relators)
        )
        for s in stage_specs
    )
    filtration = Filtration(p, stages)
    tower = telescope(filtration)
    # Filtration accepts only a final stage that is the whole complex.
    final = from_presentation(p)
    tele_h = homology(tower)
    final_h = homology(final)
    findings = {
        "stages": len(stages),
        "telescope": {
            "vertices": tower.n_vertices,
            "edges": len(tower.edges),
            "faces": len(tower.faces),
            "chi": tower.chi,
        },
        "telescope_homology": tele_h,
        "final_stage_homology": final_h,
        "homology_match": tele_h == final_h,
    }
    return (0 if tele_h == final_h else 3), findings, []


def cmd_pi2probe(args: argparse.Namespace, inputs: dict[str, str], config: dict) -> tuple[int, object, list[str]]:
    config["limit"] = args.limit
    p = _load_presentation(Path(args.file), args.window, inputs).presentation
    verdict = asphericity_verdict(p, args.limit)
    return (1 if verdict.status == "not_aspherical" else 0), verdict, []


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and shared: parsing keeps no state in the parser."""
    parser = argparse.ArgumentParser(
        prog="asphere",
        description="Presentation, 2-complex, and ribbon-link workbench.",
    )
    parser.add_argument("--window", type=int, default=None, help="truncation window for streamed presentations")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        s = sub.add_parser(name, help=summary)
        s.add_argument("file")
        s.set_defaults(func=func)
        return s

    command("check", cmd_check, "hypothesis checks for a presentation file")

    s = command("normalize", cmd_normalize, "rewrite to identity exponent matrix")
    s.add_argument("--out", required=True, help="normalized presentation file")
    s.add_argument("--moves-out", default=None, help="base-change log file (JSON)")

    command("ribbon", cmd_ribbon, "emit the surgery code of a presentation")

    s = command("sublinks", cmd_sublinks, "fill sublinks and report exteriors")
    g = s.add_mutually_exclusive_group()
    g.add_argument("--fill", default=None, help="comma-separated component indices")
    g.add_argument("--enumerate", action="store_true", help="walk all 2^m selections")
    s.add_argument("--cap", type=int, default=None, help="enumeration cap on components (default 12)")
    s.add_argument("--probe-limit", type=int, default=None, help="also probe each exterior")

    command("homology", cmd_homology, "homology of a presentation complex, or the SNF of matrix JSON")

    s = command("telescope", cmd_telescope, "collar telescope over a filtration")
    s.add_argument("--stages", required=True, help="JSON list of {gens, rels} stages")

    s = command("pi2probe", cmd_pi2probe, "asphericity falsification probe")
    s.add_argument("--limit", type=int, default=256, help="coset limit")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    inputs: dict[str, str] = {}
    config = {"window": args.window}
    try:
        try:
            code, findings, warnings = args.func(args, inputs, config)
        except CheckFailed as exc:
            code, findings, warnings = 1, exc.findings, exc.warnings
        report = {
            "tool": "asphere",
            "version": __version__,
            "command": args.command,
            "inputs": inputs,
            "config": config,
            "findings": findings,
            "warnings": warnings,
        }
        print(_dumps(report))
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violation
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
