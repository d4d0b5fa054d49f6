#!/usr/bin/env python3
"""End-to-end walkthrough of the reduction pipeline on one presentation.

Starts from a balanced presentation with unimodular exponent matrix,
normalizes it to identity exponents, realizes it as a surgery code, walks
every sublink exterior, builds a two-stage telescope, and runs the
asphericity probe on each exterior.

Usage: python scripts/pipeline_demo.py [--limit N]
"""

import argparse
import json

from asphere import (
    Presentation,
    SublinkSelection,
    asphericity_verdict,
    build_surgery_code,
    exponent_matrix,
    exterior,
    from_presentation,
    homology,
    normalize,
    parse_presentation_text,
    telescope,
    word_to_text,
)
from asphere.complexes import Filtration, SubcomplexSpec, full_spec


SOURCE = """\
gens: a b
rel r1: a b a^-1 b^-2
rel r2: b a b^-1 a^-2
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=int, default=256, help="coset limit for the probe")
    args = parser.parse_args()

    parsed = parse_presentation_text(SOURCE)
    p = parsed.presentation
    print("input presentation:")
    print(SOURCE)
    print("exponent matrix:", exponent_matrix(p).to_rows())

    cert = normalize(p)
    q = Presentation(p.n_generators, cert.new_relators)
    print(f"\nnormalized with {len(cert.base_change)} Nielsen moves "
          f"(exponent_check={cert.exponent_check}):")
    for j, r in enumerate(q.relators, start=1):
        print(f"  r{j} -> {word_to_text(r, parsed.gen_names)}")

    sc = build_surgery_code(q)
    components = [word_to_text(k, parsed.gen_names) for k in sc.components]
    print("\nsurgery code:", json.dumps({"handles": sc.n_handles, "components": components}))

    m = len(sc.components)
    print(f"\nall {2 ** m} sublink exteriors:")
    for mask in range(2 ** m):
        fill = frozenset(j + 1 for j in range(m) if mask >> j & 1)
        ext = exterior(sc, SublinkSelection(fill))
        h = homology(from_presentation(ext))
        verdict = asphericity_verdict(ext, args.limit)
        print(f"  fill={sorted(fill)!s:10} homology={h.to_json()}  "
              f"probe={verdict.status}")

    stage0 = SubcomplexSpec(frozenset(range(1, q.n_generators + 1)), frozenset(), m, m)
    tower = telescope(Filtration(q, (stage0, full_spec(q))))
    print(f"\ntwo-stage telescope: {tower.n_vertices} vertices, "
          f"{len(tower.edges)} edges, {len(tower.faces)} faces, chi={tower.chi}")
    print("telescope homology:", homology(tower).to_json())


if __name__ == "__main__":
    main()
