"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import IncompleteWrapping, Tracer  # noqa: E402


def rep(workload: str, seed: int, mode: str = "timed", spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), str(ROOT), workload, str(seed), mode]
    if spans:
        cmd.append(str(spans))
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["gen", "sweep", "tait"])
def test_two_runs_give_identical_digests(workload):
    first, second = rep(workload, 5), rep(workload, 5)
    assert first["digests"] and first["digests"] == second["digests"]
    assert first["failed"] == second["failed"] == 0
    assert all(first["checks"].values()) and all(second["checks"].values())


def test_traced_calls_repeat_and_cover_the_workload(tmp_path):
    a = rep("tait", 2, "traced", tmp_path / "a.tsv.gz")
    b = rep("tait", 2, "traced", tmp_path / "b.tsv.gz")
    calls = {n: s["calls"] for n, s in a["layers"].items()}
    assert calls == {n: s["calls"] for n, s in b["layers"].items()}
    assert all(calls.get(n) for n in run.REQUIRED_CALLS["tait"])
    assert calls["coloring.find_tait_coloring"] == a["units"]
    assert (tmp_path / "a.tsv.gz").stat().st_size > 0


def test_every_binding_is_wrapped():
    from tetracolor import coloring, harness, kempe
    original = coloring.find_tait_coloring
    t = Tracer()
    t.install()
    try:
        for mod in (coloring, harness, kempe):
            assert mod.find_tait_coloring.__wrapped__ is original
        assert harness.run_procedure.__wrapped__ is kempe.run_procedure.__wrapped__
        m = harness.parse_map(harness.K4_TEXT)
        harness.find_tait_coloring(m)
        kempe.find_tait_coloring(m)
        assert t.stats()["coloring.find_tait_coloring"]["calls"] == 2
    finally:
        t.uninstall()
    assert harness.find_tait_coloring is original


def test_a_binding_held_in_a_container_is_reported(monkeypatch):
    from tetracolor import coloring
    hidden = type(sys)("tetracolor._hidden")
    hidden.TABLE = {"solve": coloring.find_tait_coloring}
    monkeypatch.setitem(sys.modules, "tetracolor._hidden", hidden)
    with pytest.raises(IncompleteWrapping, match="tetracolor._hidden.TABLE"):
        Tracer().install()
    assert not hasattr(coloring.find_tait_coloring, "__wrapped__")


def test_self_times_add_up_to_the_root_span():
    t = Tracer()

    def inner(k):
        return sum(range(k))

    inner_t = t.wrap(inner, "inner")

    def outer():
        return [inner_t(20000) for _ in range(5)]

    t.wrap(outer, "outer")()
    stats = t.stats()
    root = t.span_end[0] - t.span_start[0]
    total_self = sum(s["self_s"] for s in stats.values()) * 1e9
    assert stats["inner"]["calls"] == 5 and stats["outer"]["calls"] == 1
    assert abs(total_self - root) < 1e3
    assert list(t.span_parent[1:]) == [0] * 5


def test_generator_spans_count_one_call():
    t = Tracer()

    def gen(n):
        yield from range(n)

    assert list(t.wrap(gen, "gen")(4)) == [0, 1, 2, 3]
    assert t.stats()["gen"]["calls"] == 1
    assert len(t.span_start) == 5      # four items and the final resumption


def test_own_checks_reject_broken_outputs():
    from tetracolor import coloring, dscc
    from tetracolor.harness import GenConfig, generate
    m = next(generate(GenConfig(12, mode="random", count=1, seed=1)))
    fc = coloring.find_face_4coloring(m)
    ec = coloring.face4_to_edge3(m, fc)
    assert wl.tait_ok(m, ec) and wl.face4_ok(m, fc)
    e = min(ec.assignment)
    other = next(c for c in coloring.EDGE_ORDER if c != ec[e])
    assert not wl.tait_ok(m, coloring.EdgeColoring({**ec.assignment, e: other}))
    f = m.face_of(m.twin(0))
    assert not wl.face4_ok(m, coloring.FaceColoring({**fc.assignment, f: fc[m.face_of(0)]}))
    dec = dscc.decompose(m, ec)
    blue = {x for x, c in ec.assignment.items() if c != coloring.EdgeColor.YELLOW}
    assert wl.trails_ok(m, dec.blue_trails, blue)
    assert not wl.trails_ok(m, dec.blue_trails[1:], blue)


def test_face_walk_matches_the_package():
    from tetracolor.planar_map import parse_map
    for text in wl.load_maps16()[::50]:
        assert sorted(wl.face_lengths(text)) == sorted(len(f) for f in parse_map(text).faces)


def test_sweep_sample_is_stratified_and_seeded():
    texts = wl.load_maps16()
    a, pa = wl.sweep_sample(texts, 1)
    b, pb = wl.sweep_sample(texts, 2)
    assert a == wl.sweep_sample(texts, 1)[0] and a != b
    assert len(a) == len(set(a)) == len(b) and sum(pa) == sum(pb)
    assert wl.SWEEP_PINNED in a and wl.SWEEP_PINNED in b


def test_frozen_maps_are_verified(tmp_path, monkeypatch):
    bad = tmp_path / "maps16.txt"
    bad.write_bytes(wl.MAPS16.read_bytes().replace(b"\n\n", b"\n\n\n", 1))
    monkeypatch.setattr(wl, "MAPS16", bad)
    with pytest.raises(ValueError, match="sha256"):
        wl.load_maps16()


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.end_to_end_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "gen",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
