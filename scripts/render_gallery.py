#!/usr/bin/env python3
"""Render SVG illustrations: colored corpus maps, a contracted hub, and
the overlapping-squares region fixture."""

import argparse
from fractions import Fraction
from pathlib import Path

from tetracolor.coloring import find_tait_coloring, from_bits
from tetracolor.curves import CurveSet, PolyCurve, as_point, classify_regions
from tetracolor.harness import GenConfig, generate
from tetracolor.kempe import run_procedure
from tetracolor.planar_map import parse_map
from tetracolor.svg import render_curves_svg, render_map_svg

DODECAHEDRON = Path(__file__).resolve().parents[1] / "tests" / "data" / "dodecahedron.map"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/gallery")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for i, m in enumerate(generate(GenConfig(10))):
        ec = find_tait_coloring(m)
        (out / f"map10_{i}.svg").write_text(render_map_svg(m, ec))

    dodeca = parse_map(DODECAHEDRON.read_text())
    tr = run_procedure(dodeca, 0)
    (out / "dodecahedron_contracted.svg").write_text(
        render_map_svg(tr.contracted_map, from_bits(tr.contracted_map, tr.final_coloring),
                       hub=tr.hub))

    blue = CurveSet((PolyCurve.of([(0, 0), (4, 0), (4, 4), (0, 4)]),), "blue")
    yellow = CurveSet((PolyCurve.of([(2, 2), (6, 2), (6, 6), (2, 6)]),), "yellow")
    samples = [("out", as_point(-1, -1)), ("b", as_point(1, 1)),
               ("by", as_point(3, 3)), ("y", as_point(5, 5)),
               ("mid", as_point(Fraction(5, 2), 3))]
    colors = classify_regions(blue, yellow, samples)
    (out / "two_squares.svg").write_text(
        render_curves_svg(blue, yellow, samples, colors))
    print(f"wrote gallery to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
