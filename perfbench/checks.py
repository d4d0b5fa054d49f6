"""Output checks, one per workload.

A checker takes a job and the outputs of its commands, a list of
(exit code, stdout text), and returns a list of problems; an empty list
means the job passed.  Files the commands wrote are read back from disk.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import words as W


def _report(output) -> dict:
    return json.loads(output[1])


def check_pipeline(job, outputs) -> list[str]:
    problems = []
    codes = [code for code, _ in outputs]
    if codes != [0, 0, 0, 0]:
        return [f"exit codes {codes}, want [0, 0, 0, 0]"]
    e = job.expect
    n = e["n"]
    norm = _report(outputs[0])["findings"]
    if norm["exponent_check"] is not True:
        problems.append("normalize: exponent_check is not true")

    n_out, relators = W.parse_presentation(Path(e["out"]).read_text())
    if n_out != n or len(relators) != n:
        problems.append(f"normalized file has {n_out} generators, {len(relators)} relators; want {n}")
        return problems
    for j, r in enumerate(relators, 1):
        if any(W.exponent_sum(r, i) != (1 if i == j else 0) for i in set(map(abs, r)) | {j}):
            problems.append(f"normalized relator {j}: exponent row is not e_{j}")
            break

    moves = json.loads(Path(e["moves_out"]).read_text())["moves"]
    if norm["moves"] != len(moves):
        problems.append(f"normalize reports {norm['moves']} moves, log has {len(moves)}")
    undo = W.inverse_moves(moves)
    for j, (r, original) in enumerate(zip(relators, e["relators"]), 1):
        if W.apply_moves(undo, r) != original:
            problems.append(f"inverse base change does not map relator {j} back to the input")
            break

    ribbon = _report(outputs[1])["findings"]
    components = [W.parse(c) for c in ribbon["components"]]
    if ribbon["handles"] != n or components != relators:
        problems.append("ribbon components differ from the normalized relators")

    check = _report(outputs[2])["findings"]
    if check["homologically_contractible"] is not True:
        problems.append("check: not homologically contractible")

    tele = _report(outputs[3])["findings"]
    contractible = {"H0": 1, "H1": {"rank": 0, "torsion": []}, "H2": 0, "chi": 1}
    if tele["homology_match"] is not True or tele["stages"] != e["stages"]:
        problems.append("telescope: homology_match false or wrong stage count")
    if tele["final_stage_homology"] != contractible:
        problems.append("telescope: final stage is not homologically contractible")
    return problems


def check_probe_finite(job, outputs, boundary) -> list[str]:
    """`boundary(n, relators, limit)` rebuilds the lifted boundary entries
    from the input through the program's public functions, or returns None
    when the rebuilt coset table is incomplete."""
    e = job.expect
    order = e["order"]
    (code, _), = outputs
    findings = _report(outputs[0])["findings"]
    want_status = "aspherical" if order == 1 else "not_aspherical"
    want_code = 0 if order == 1 else 1
    if findings["verdict"] != want_status or code != want_code:
        return [f"verdict {findings['verdict']} (exit {code}), want {want_status} (exit {want_code})"]
    if findings["cosets"] != order:
        return [f"cosets {findings['cosets']}, want |G| = {order}"]
    witness = findings["witness"]
    if order == 1:
        if findings["kernel_rank"] != 0 or witness is not None:
            return ["trivial group reported a nonzero kernel"]
        return []
    rows = len(e["relators"]) * order
    if not findings["kernel_rank"] or witness is None or len(witness) != rows or not any(witness):
        return ["missing, empty or mis-sized kernel witness"]
    entries = boundary(e["n"], e["relators"], e["limit"])
    if entries is None:
        return ["rebuilt coset table is incomplete"]
    image = {}
    for (i, j), v in entries.items():
        image[i] = image.get(i, 0) + v * witness[j - 1]
    if any(image.values()):
        return ["witness does not re-multiply to zero through the rebuilt boundary"]
    return []


def check_sublinks(job, outputs) -> list[str]:
    e = job.expect
    m, comps = e["m"], e["components"]
    (code, _), = outputs
    if code != 0:
        return [f"exit code {code}, want 0"]
    findings = _report(outputs[0])["findings"]
    selections = findings["selections"]
    if findings["components"] != m or len(selections) != 1 << m:
        return [f"{len(selections)} selections for {findings['components']} components, want 2^{m}"]
    parsed: dict[str, list[int]] = {}  # each component text recurs in 2^(m-1) selections
    for mask, sel in enumerate(selections):
        fill = [j + 1 for j in range(m) if mask >> j & 1]
        if sel["fill"] != fill:
            return [f"selection {mask}: fill {sel['fill']} does not match its mask"]
        ext = sel["exterior"]
        relators = [parsed[r] if r in parsed else parsed.setdefault(r, W.parse(r)) for r in ext["relators"]]
        if ext["generators"] != m or relators != [comps[j - 1] for j in fill]:
            return [f"selection {mask}: exterior relators are not the filled components"]
        h = sel["homology"]
        if h["H0"] != 1 or h["H1"] != {"rank": m - len(fill), "torsion": []} or h["H2"] != 0:
            return [f"selection {mask}: homology {h}"]
        # A proper nonempty fill has H1 of positive rank, so pi_1 is infinite
        # and no coset table can complete.  The full fill of a triangular code
        # presents the trivial group; its enumeration may still overflow at L.
        probe = sel["probe"]
        allowed = [("inconclusive", None)]
        if not fill:
            allowed = [("aspherical", None)]
        elif len(fill) == m and e["full_fill_finite"]:
            allowed.append(("aspherical", 1))
        if (probe["verdict"], probe["cosets"]) not in allowed:
            return [f"selection {mask}: probe {probe['verdict']} with {probe['cosets']} cosets, want one of {allowed}"]
    return []


# ---------------------------------------------------------------------------
# Self-check: corrupted copies of real outputs must be counted as failed.


def _with_findings(output, edit) -> tuple[int, str]:
    report = json.loads(output[1])
    edit(report["findings"])
    return output[0], json.dumps(report)


def corruptions(workload: str, job, outputs) -> list[tuple[str, list]]:
    """(label, corrupted outputs) pairs for one passing job of `workload`."""
    if workload == "pipeline":
        def extra_letter(f):
            f["components"][0] += " g1"
        return [("ribbon component changed", [outputs[0], _with_findings(outputs[1], extra_letter), *outputs[2:]])]
    if workload == "probe-finite":
        def flip_witness(f):
            k = next(i for i, v in enumerate(f["witness"]) if v)
            f["witness"][k] = -f["witness"][k]

        def wrong_cosets(f):
            f["cosets"] += 1
        return [
            ("witness entry flipped", [_with_findings(outputs[0], flip_witness)]),
            ("coset count wrong", [_with_findings(outputs[0], wrong_cosets)]),
        ]

    def drop_selection(f):
        f["selections"].pop()
    return [("selection dropped", [_with_findings(outputs[0], drop_selection)])]
