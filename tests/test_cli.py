import io
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetracolor import kempe as kp
from tetracolor.cli import main
from tetracolor.coloring import (FaceColoring, face4_to_edge3,
                                 find_tait_coloring, parse_coloring,
                                 serialize_coloring, verify_coloring)
from tetracolor.harness import GenConfig, generate
from tetracolor.planar_map import from_neighbor_lists, parse_map, serialize_map

DATA = Path(__file__).parent / "data"
DODECA = str(DATA / "dodecahedron.map")
K4_TEXT = "4\n1: 2 4 3\n2: 3 4 1\n3: 1 4 2\n4: 1 2 3\n"
# K3,3 with a rotation system of genus 1: three faces, not four
K33_TEXT = "6\n1: 4 5 6\n2: 4 5 6\n3: 4 5 6\n4: 1 2 3\n5: 1 2 3\n6: 1 2 3\n"


def test_validate_ok(capsys):
    assert main(["validate", DODECA]) == 0
    out = capsys.readouterr().out
    assert "bridgeless: True" in out


def test_validate_parses_a_mirrored_multigraph_as_planar(tmp_path, capsys):
    # the mirror of an order-4 level map: rows 2 and 4 start inside a
    # bundle of parallel edges
    m = tmp_path / "mirror.map"
    m.write_text("4\n1: 3 2 2\n2: 1 4 1\n3: 1 4 4\n4: 3 2 3\n")
    assert main(["validate", "--allow-parallel", str(m)]) == 1
    out = capsys.readouterr().out
    assert "faces: 4" in out and "planar: True" in out and "simple: False" in out


def test_validate_flags_failure(tmp_path, capsys):
    bad = tmp_path / "edge.map"
    bad.write_text("2\n1: 2\n2: 1\n")
    assert main(["validate", str(bad)]) == 1


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("2\n1: 2\n2:\n")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_color_faces_and_edges(capsys):
    assert main(["color", DODECA]) == 0
    faces = capsys.readouterr().out
    assert faces.startswith("face 0: 00")
    assert main(["color", DODECA, "--edges"]) == 0
    edges = capsys.readouterr().out
    assert edges.splitlines()[0].startswith("edge ")


@pytest.mark.parametrize("flags", [[], ["--edges"]])
def test_color_prism_deeper_than_the_recursion_limit(tmp_path, capsys, flags):
    # 2,000 vertices, 3,000 edges and 1,002 faces: either search goes
    # deeper than Python's default recursion limit
    k = 1000
    lists = ([[(i + 1) % k, (i - 1) % k, k + i] for i in range(k)]
             + [[k + (i - 1) % k, k + (i + 1) % k, i] for i in range(k)])
    m = from_neighbor_lists(lists)
    path = tmp_path / "prism.map"
    path.write_text(serialize_map(m))
    assert main(["color", str(path)] + flags) == 0
    c = parse_coloring(m, capsys.readouterr().out)
    assert len(c.assignment) == (m.edge_count if flags else m.face_count)
    assert verify_coloring(m, c) == []


def test_color_order_200_random_map(tmp_path, capsys):
    # a map the chronological face search does not colour within 10 s
    m = list(generate(GenConfig(200, mode="random", count=6, seed=200)))[1]
    path = tmp_path / "r200.map"
    path.write_text(serialize_map(m))
    assert main(["color", str(path)]) == 0
    fc = parse_coloring(m, capsys.readouterr().out)
    assert isinstance(fc, FaceColoring) and len(fc.assignment) == m.face_count
    assert verify_coloring(m, fc) == []


@pytest.mark.parametrize("argv", [["color", "{map}"],
                                  ["color", "{map}", "--edges"],
                                  ["dscc", "{map}", "{coloring}"]])
def test_nonplanar_map_refused(tmp_path, capsys, argv):
    m = parse_map(K33_TEXT)
    path = tmp_path / "k33.map"
    path.write_text(K33_TEXT)
    coloring = tmp_path / "k33.col"
    coloring.write_text(serialize_coloring(m, find_tait_coloring(m)))
    args = [a.format(map=path, coloring=coloring) for a in argv]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "not a connected planar map" in err


def test_dscc_pipeline(tmp_path, capsys):
    assert main(["color", DODECA, "--edges"]) == 0
    coloring = tmp_path / "d.ecol"
    coloring.write_text(capsys.readouterr().out)
    assert main(["dscc", DODECA, str(coloring)]) == 0
    out = capsys.readouterr().out
    assert "blue trail:" in out and "yellow trail:" in out


def test_curves_classify(tmp_path, capsys):
    curves = tmp_path / "c.curves"
    curves.write_text("[blue]\ncurve\n0 0\n4 0\n4 4\n0 4\n\n"
                      "[yellow]\ncurve\n2 2\n6 2\n6 6\n2 6\n")
    samples = tmp_path / "c.samples"
    samples.write_text("outside -1 -1\noverlap 3 3\n")
    svg = tmp_path / "c.svg"
    assert main(["curves", "classify", str(curves), str(samples),
                 "--svg", str(svg)]) == 0
    out = capsys.readouterr().out
    assert "outside 00" in out and "overlap 11" in out
    assert svg.read_text().startswith("<svg")


def test_curves_classify_svg_escapes_labels(tmp_path):
    curves = tmp_path / "c.curves"
    curves.write_text("[blue]\ncurve\n0 0\n4 0\n4 4\n0 4\n\n"
                      "[yellow]\ncurve\n2 2\n6 2\n6 6\n2 6\n")
    samples = tmp_path / "c.samples"
    samples.write_text("a&b -1 -1\n<x> 3 3\n")
    svg = tmp_path / "c.svg"
    assert main(["curves", "classify", str(curves), str(samples),
                 "--svg", str(svg)]) == 0
    root = ET.parse(svg).getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ["a&b", "<x>"]


def test_reduce_with_trace_and_svg(tmp_path, capsys, monkeypatch):
    calls = Counter()
    for name in ("validate", "contract_face"):
        def counted(*args, _name=name, _original=getattr(kp, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(kp, name, counted)
    trace = tmp_path / "t.jsonl"
    svg = tmp_path / "m.svg"
    assert main(["reduce", DODECA, "--pentagon", "0", "--edge-policy", "all",
                 "--trace", str(trace), "--svg", str(svg)]) == 0
    # the five reductions share one prepared map
    assert calls == {"validate": 1, "contract_face": 1}
    out = capsys.readouterr().out
    assert out.count("expand-success") == 5
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert sum(1 for r in records if r["kind"] == "header") == 5
    assert svg.read_text().startswith("<svg")
    # byte for byte the traces of the plain map, each reduced on its own
    m = parse_map(Path(DODECA).read_text())
    edges = sorted({m.edge_id(d) for d in m.faces[0].darts})
    assert trace.read_text() == "".join(
        kp.run_procedure(m, 0, deleted_edge=e).to_jsonl() for e in edges)


def test_reduce_recurrence_exit_code(capsys):
    assert main(["reduce", str(DATA / "recurrence14.map"),
                 "--pentagon", "0", "--edge-policy", "all"]) == 1
    assert "topology-one-recurrence" in capsys.readouterr().out


def test_gen_stream_parses_back(capsys):
    assert main(["gen", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert out.count("# map") == 3


def test_gen_random_seeded(capsys):
    assert main(["gen", "--n", "10", "--random", "3", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--n", "10", "--random", "3", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_claim_text(capsys):
    assert main(["claim", "C1", "--n-max", "8"]) == 0
    assert "no counterexample" in capsys.readouterr().out


@pytest.mark.parametrize("n_max", ["3", "-2"])
def test_claim_refuses_a_corpus_with_no_order(capsys, n_max):
    # no cubic map has fewer than four vertices, so the sweep would be vacuous
    assert main(["claim", "C1", "--n-max", n_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "--n-max" in captured.err


def test_claim_csv(capsys):
    assert main(["claim", "C2", "--n-max", "8", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "claim,map_key,ok,detail"


def test_claim_several_ids_concatenate_their_reports(capsys):
    def masked(out):
        rows = [json.loads(line) for line in out.splitlines()]
        for rec in rows:
            rec.pop("runtime_s", None)
        return rows

    args = ["--maps", str(DATA / "recurrence14.map"), "--format", "jsonl"]
    single = []
    for claim in ("C2", "C5"):
        main(["claim", claim, *args])
        single += masked(capsys.readouterr().out)
    assert main(["claim", "C2", "C5", *args]) == 1
    assert masked(capsys.readouterr().out) == single


def test_claim_maps_flag_leaves_the_claim_ids(capsys):
    # one path per --maps flag: the claim ids after it stay claim ids
    witness = str(DATA / "recurrence14.map")
    assert main(["claim", "--maps", witness, "C2"]) == 0
    assert "instances checked: 30" in capsys.readouterr().out
    assert main(["claim", "--maps", witness, "--maps", witness, "C2"]) == 0
    assert "instances checked: 60" in capsys.readouterr().out


def test_reduce_svg_highlights_hub_and_tints_edges(tmp_path):
    svg = tmp_path / "hub.svg"
    main(["reduce", DODECA, "--pentagon", "0", "--svg", str(svg)])
    content = svg.read_text()
    assert "#c0392b" in content          # hub highlight
    assert "#1f5fbf" in content          # blue-tinted strokes
    assert "#d4a017" in content and "#2e8b57" in content


@pytest.mark.parametrize("line", ["face x: 00", "edge a-2: B", "edge 1: B"])
def test_dscc_malformed_coloring_exit_code(tmp_path, capsys, line):
    coloring = tmp_path / "bad.col"
    coloring.write_text(line + "\n")
    assert main(["dscc", DODECA, str(coloring)]) == 2
    assert "error:" in capsys.readouterr().err


def test_dscc_repeated_face_line_exit_code(tmp_path, capsys):
    coloring = tmp_path / "twice.col"
    coloring.write_text("face 0: 00\nface 3: 01\nface 3: 10\n")
    assert main(["dscc", DODECA, str(coloring)]) == 2
    assert capsys.readouterr().err == "error: face 3 listed twice\n"


def test_reduce_negative_step_budget_exit_code(capsys):
    assert main(["reduce", DODECA, "--step-budget", "-3"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: step budget must be >= 0, got -3\n"


def test_validate_missing_file_exit_code(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.map")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["reduce", DODECA, "--trace", "{out}"],
    ["reduce", DODECA, "--svg", "{out}"],
    ["curves", "classify", "{curves}", "{samples}", "--svg", "{out}"],
])
def test_unwritable_output_exit_code(tmp_path, capsys, argv):
    curves = tmp_path / "c.curves"
    curves.write_text("[blue]\ncurve\n0 0\n4 0\n4 4\n0 4\n")
    samples = tmp_path / "c.samples"
    samples.write_text("outside -1 -1\n")
    out = tmp_path / "absent" / "out"
    assert main([a.format(out=out, curves=curves, samples=samples)
                 for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_reduce_without_pentagon_exit_code(tmp_path, capsys):
    k4 = tmp_path / "k4.map"
    k4.write_text(K4_TEXT)
    assert main(["reduce", str(k4)]) == 2
    assert capsys.readouterr().err == "map has no pentagonal face\n"


def test_reduce_unknown_pentagon_exit_code(capsys):
    assert main(["reduce", DODECA, "--pentagon", "99"]) == 2
    assert capsys.readouterr().err == "error: face 99 out of range\n"


def test_claim_maps_rejects_a_non_cubic_map(tmp_path, capsys):
    square = tmp_path / "square.map"
    square.write_text("4\n1: 2 4\n2: 3 1\n3: 4 2\n4: 1 3\n")
    assert main(["claim", "C1", "--maps", str(square)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {square}: not a connected simple cubic "
                       "bridgeless planar map\n")


def test_dscc_reads_the_face_coloring_that_color_prints(tmp_path, capsys):
    m = parse_map(Path(DODECA).read_text())
    assert main(["color", DODECA]) == 0
    faces = tmp_path / "d.fcol"
    faces.write_text(capsys.readouterr().out)
    edges = tmp_path / "d.ecol"
    edges.write_text(serialize_coloring(
        m, face4_to_edge3(m, parse_coloring(m, faces.read_text()))))
    assert main(["dscc", DODECA, str(faces)]) == 0
    from_faces = capsys.readouterr().out
    assert main(["dscc", DODECA, str(edges)]) == 0
    assert from_faces == capsys.readouterr().out
    assert "blue trail:" in from_faces


def test_module_entry_point(tmp_path):
    k4 = tmp_path / "k4.map"
    k4.write_text(K4_TEXT)
    src = str(Path(kp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "tetracolor", "validate", str(k4)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "bridgeless: True" in proc.stdout


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_pipe_exits_141_without_a_traceback(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["gen", "--n", "8"]) == 141
    sys.stdout.close()   # the null device main pointed stdout at
    assert capsys.readouterr().err == ""


def test_output_cut_short_by_head_exits_141_quietly():
    # more output than a pipe buffer holds, so the writer meets the closed end
    src = str(Path(kp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen([sys.executable, "-m", "tetracolor", "gen", "--n", "100",
                             "--random", "100"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"# map 0\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("curves_text,samples_text", [
    ("[blue]\n1 abc\n", "a 1 1\n"),
    ("[blue]\ncurve\n0 0\n4 0\n4 4\n", "a 1 abc\n"),
    ("[blue]\ncurve\n0 0\n4 0\n4 4\n", "a 1/0 1\n"),
])
def test_curves_malformed_point_exit_code(tmp_path, capsys, curves_text,
                                          samples_text):
    curves = tmp_path / "c.curves"
    curves.write_text(curves_text)
    samples = tmp_path / "c.samples"
    samples.write_text(samples_text)
    assert main(["curves", "classify", str(curves), str(samples)]) == 2
    assert "error:" in capsys.readouterr().err


def _lines(line):
    return st.lists(line, max_size=8).map("\n".join)


def _map_text(n):
    rows = st.lists(st.lists(st.integers(0, n + 1), max_size=4),
                    min_size=n, max_size=n)
    return rows.map(lambda rs: f"{n}\n" + "".join(
        f"{i + 1}: {' '.join(map(str, r))}\n" for i, r in enumerate(rs)))


_INT = st.integers(-2, 12).map(str)
MAP_TEXT = st.one_of(st.text(max_size=40),
                     st.integers(1, 6).flatmap(_map_text),
                     st.sampled_from([(DATA / "dodecahedron.map").read_text(),
                                      "4\n1: 2 4 3\n2: 3 4 1\n3: 1 4 2\n4: 1 2 3\n",
                                      "2\n1: 2 2 2\n2: 1 1 1\n"]))
COLORING_TEXT = st.one_of(st.text(max_size=40), _lines(st.one_of(
    st.builds("face {}: {}".format, _INT, st.sampled_from(["00", "01", "10", "11", "2"])),
    st.builds("edge {}-{}: {}".format, _INT, _INT, st.sampled_from("BYGQ")))))
CURVE_TEXT = st.one_of(st.text(max_size=40), _lines(st.one_of(
    st.sampled_from(["[blue]", "[yellow]", "[red]", "curve", "", "1/0 2", "x"]),
    st.builds("{} {}".format, _INT, _INT))))
SAMPLE_TEXT = st.one_of(st.text(max_size=40), _lines(
    st.builds("{} {} {}".format, st.sampled_from(["a", "b"]), _INT, _INT)))


def _flag(*args):
    return st.sampled_from([[], list(args)])


@st.composite
def _invocation(draw):
    command = draw(st.sampled_from(
        ["validate", "color", "dscc", "curves", "reduce", "gen", "claim"]))
    if command == "validate":
        return ["validate", "{map}"] + draw(_flag("--allow-parallel"))
    if command == "color":
        return ["color", "{map}"] + draw(_flag("--edges"))
    if command == "dscc":
        return ["dscc", "{map}", "{coloring}"]
    if command == "curves":
        return (["curves", "classify", "{curves}", "{samples}"]
                + draw(_flag("--svg", "{out}")))
    if command == "reduce":
        return (["reduce", "{map}", "--step-budget", draw(st.integers(0, 8).map(str))]
                + draw(st.sampled_from([[], ["--pentagon", draw(_INT)]]))
                + draw(_flag("--edge-policy", "all"))
                + draw(_flag("--trace", "{out}")) + draw(_flag("--svg", "{out}")))
    if command == "gen":
        return (["gen", "--n", draw(st.integers(-1, 10).map(str))]
                + draw(_flag("--random", draw(st.integers(0, 2).map(str)),
                             "--seed", draw(_INT))))
    return (["claim", draw(st.sampled_from(["C1", "C2", "C3", "C4", "C5", "C6"])),
             "--format", draw(st.sampled_from(["jsonl", "csv", "text"]))]
            + draw(st.sampled_from([["--maps", "{map}"],
                                    ["--n-max", draw(st.integers(-1, 8).map(str))]])))


@settings(max_examples=60, deadline=None)
@given(argv=_invocation(), map_text=MAP_TEXT, coloring=COLORING_TEXT,
       curves=CURVE_TEXT, samples=SAMPLE_TEXT,
       out=st.sampled_from(["out", "absent/out"]))  # the second cannot be written
def test_every_subcommand_exits_0_1_or_2(argv, map_text, coloring, curves,
                                         samples, out):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": str(Path(tmp) / out)}
        for name, text in (("map", map_text), ("coloring", coloring),
                           ("curves", curves), ("samples", samples)):
            paths[name] = str(Path(tmp) / name)
            Path(paths[name]).write_text(text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([arg.format(**paths) for arg in argv])
    assert code in (0, 1, 2)
