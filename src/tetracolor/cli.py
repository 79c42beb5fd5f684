"""Command-line interface.

Exit codes: 0 when the requested check found no violations, 1 when
violations were found, 2 on input errors, 141 (128 + SIGPIPE) when the
reader of the output went away before it was all written.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import coloring as col
from . import curves as cur
from . import dscc as ds
from . import harness as har
from . import kempe as kp
from . import planar_map as pm
from . import svg as svgmod


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise pm.MalformedInput(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise pm.MapError(f"cannot write {path}: {exc}") from None


def _read_planar(path: str) -> pm.RotationMap:
    """The map in a file, refused unless it is connected and planar."""
    m = pm.parse_map(_read(path))
    if not pm.validate(m).planar:
        raise pm.MapError(f"{path}: not a connected planar map")
    return m


def cmd_validate(args) -> int:
    m = pm.parse_map(_read(args.map), allow_parallel=args.allow_parallel)
    report = pm.validate(m)
    print(f"vertices: {m.vertex_count}  edges: {m.edge_count}  faces: {m.face_count}")
    for name in ("connected", "simple", "planar", "cubic", "bridgeless"):
        print(f"{name}: {getattr(report, name)}")
    print(f"min_degree: {report.min_degree}")
    return 0 if report.all_ok else 1


def cmd_color(args) -> int:
    m = _read_planar(args.map)
    if args.edges:
        ec = col.find_tait_coloring(m)
        if ec is None:
            print("no proper 3-edge-coloring exists", file=sys.stderr)
            return 1
        sys.stdout.write(col.serialize_coloring(m, ec))
        return 0
    fc = col.find_face_4coloring(m)
    if fc is None:
        print("no proper 4-face-coloring exists", file=sys.stderr)
        return 1
    sys.stdout.write(col.serialize_coloring(m, fc))
    return 0


def cmd_dscc(args) -> int:
    m = _read_planar(args.map)
    c = col.parse_coloring(m, _read(args.coloring))
    if isinstance(c, col.FaceColoring):
        c = col.face4_to_edge3(m, c)
    dec = ds.decompose(m, c)
    sys.stdout.write(ds.serialize_decomposition(m, dec))
    if dec.shared_vertices:
        shared = " ".join(str(v + 1) for v in sorted(dec.shared_vertices))
        print(f"# same-color trails share vertices: {shared}")
    return 0


def cmd_curves_classify(args) -> int:
    blue, yellow = cur.parse_curve_file(_read(args.curvefile))
    samples = cur.parse_sample_file(_read(args.samples))
    colors = cur.classify_regions(blue, yellow, samples)
    for label, c in colors.items():
        print(f"{label} {c}")
    if args.svg:
        _write(args.svg, svgmod.render_curves_svg(blue, yellow, samples, colors))
    return 0


def cmd_reduce(args) -> int:
    if args.step_budget < 0:
        raise pm.MalformedInput(f"step budget must be >= 0, got {args.step_budget}")
    m = pm.parse_map(_read(args.map))
    pentagon = args.pentagon
    if pentagon is None:
        pentagons = [f.id for f in m.faces if len(f) == 5]
        if not pentagons:
            print("map has no pentagonal face", file=sys.stderr)
            return 2
        pentagon = pentagons[0]
    elif not 0 <= pentagon < m.face_count:
        raise pm.UnknownFace(f"face {pentagon} out of range")
    if args.edge_policy == "all":
        edges = sorted({m.edge_id(d) for d in m.faces[pentagon].darts})
    else:
        edges = [None]
    prepared = kp.PreparedMap(m)
    traces = [kp.run_procedure(prepared, pentagon, deleted_edge=e,
                               step_budget=args.step_budget) for e in edges]
    ok = True
    jsonl = []
    for tr in traces:
        jsonl.append(tr.to_jsonl())
        outcome = "expand-success" if tr.succeeded else f"anomaly: {tr.anomaly}"
        print(f"pentagon {tr.pentagon} minus edge {tr.deleted_edge}: {outcome}; "
              f"topologies {list(tr.topology_sequence)}")
        ok = ok and tr.succeeded
    if args.trace:
        _write(args.trace, "".join(jsonl))
    if args.svg:
        tr = traces[0]
        ec = tr.final_coloring and col.from_bits(tr.contracted_map, tr.final_coloring)
        _write(args.svg, svgmod.render_map_svg(tr.contracted_map, ec, hub=tr.hub))
    return 0 if ok else 1


def cmd_gen(args) -> int:
    if args.random is not None:
        cfg = har.GenConfig(args.n, mode="random", count=args.random, seed=args.seed)
    else:
        cfg = har.GenConfig(args.n)
    for i, m in enumerate(har.generate(cfg)):
        print(f"# map {i}")
        sys.stdout.write(pm.serialize_map(m))
        print()
    return 0


def cmd_claim(args) -> int:
    if args.maps:
        maps = [pm.parse_map(_read(path)) for path in args.maps]
        for path, m in zip(args.maps, maps):
            if not pm.validate(m).all_ok:
                raise har.HarnessError(
                    f"{path}: not a connected simple cubic bridgeless planar map")
    elif args.n_max < 4:
        raise har.OddOrder(f"--n-max {args.n_max}: no cubic map has fewer than 4 vertices")
    else:
        maps = har.corpus(args.n_max)
    ok = True
    for claim in args.claims:
        report = har.check_claim(claim, maps)
        sys.stdout.write(har.emit_report(report, args.format))
        ok = ok and report.ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tetracolor",
                                description="planar-map coloring laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="structural report for a map file")
    sp.add_argument("map")
    sp.add_argument("--allow-parallel", action="store_true")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("color", help="find a proper coloring")
    sp.add_argument("map")
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--faces", action="store_true", default=True)
    g.add_argument("--edges", action="store_true")
    sp.set_defaults(fn=cmd_color)

    sp = sub.add_parser("dscc", help="split a colored map into closed trails")
    sp.add_argument("map")
    sp.add_argument("coloring")
    sp.set_defaults(fn=cmd_dscc)

    sp = sub.add_parser("curves", help="geometric region classification")
    sub2 = sp.add_subparsers(dest="curves_command", required=True)
    sp2 = sub2.add_parser("classify", help="classify sample points")
    sp2.add_argument("curvefile")
    sp2.add_argument("samples")
    sp2.add_argument("--svg")
    sp2.set_defaults(fn=cmd_curves_classify)

    sp = sub.add_parser("reduce", help="run the pentagon reduction")
    sp.add_argument("map")
    sp.add_argument("--pentagon", type=int, default=None)
    sp.add_argument("--edge-policy", choices=("first", "all"), default="first")
    sp.add_argument("--step-budget", type=int, default=64)
    sp.add_argument("--trace", help="write JSON-lines trace here")
    sp.add_argument("--svg", help="write contracted-map SVG here")
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("gen", help="generate corpus maps")
    sp.add_argument("--n", type=int, required=True)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--exhaustive", action="store_true", default=True)
    g.add_argument("--random", type=int, default=None, metavar="COUNT")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("claim", help="run claim checkers over one corpus")
    sp.add_argument("claims", nargs="+", choices=har.CLAIM_IDS, metavar="claim",
                    help="one or more of " + " ".join(har.CLAIM_IDS))
    sp.add_argument("--n-max", type=int, default=12)
    sp.add_argument("--format", choices=("jsonl", "csv", "text"), default="text")
    sp.add_argument("--maps", action="append", metavar="MAPFILE",
                    help="check this externally generated map instead of the "
                         "exhaustive corpus; repeat the flag for more maps")
    sp.set_defaults(fn=cmd_claim)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except pm.MapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:   # the reader left: keep the last flush quiet
        sys.stdout = open(os.devnull, "w")
        return 141


if __name__ == "__main__":
    sys.exit(main())
