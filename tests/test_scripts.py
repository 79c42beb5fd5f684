import importlib
import importlib.util
import json
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from tetracolor import harness

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
BENCH = SCRIPTS.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_render_gallery_writes_well_formed_svg(tmp_path, monkeypatch, capsys):
    gallery = _load("render_gallery")
    out = tmp_path / "gallery"
    monkeypatch.setattr(sys, "argv", ["render_gallery.py", "--out", str(out)])
    assert gallery.main() == 0
    written = sorted(out.glob("*.svg"))
    names = {p.name for p in written}
    assert {"map10_0.svg", "dodecahedron_contracted.svg", "two_squares.svg"} <= names
    for p in written:
        assert ET.parse(p).getroot().tag == "{http://www.w3.org/2000/svg}svg"
    assert "wrote gallery" in capsys.readouterr().out


def test_bench_pairs_summary_of_canned_lines():
    pairs = _load("bench_pairs")

    def line(setup, work):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"setup_s": {"value": setup, "unit": "s"},
                            "work_per_s": {"value": work, "unit": "1/s"}}}
    parent = [line(s, w) for s, w in ((0.30, 100), (0.20, 90), (0.40, 110), (0.25, 95))]
    change = [line(s, w) for s, w in ((0.10, 100), (0.30, 95), (0.15, 120), (0.12, 80))]
    summary = pairs.summarize(parent, change, {"setup_s": "lower", "work_per_s": "higher"})
    assert summary["setup_s"]["parent"] == pytest.approx((0.2375, 0.275, 0.325))
    assert summary["setup_s"]["change"] == pytest.approx((0.115, 0.135, 0.1875))
    assert summary["setup_s"]["wins"] == 3 and summary["setup_s"]["pairs"] == 4
    assert summary["work_per_s"]["parent"][1] == 97.5
    assert summary["work_per_s"]["wins"] == 2     # the tie counts for neither side
    assert summary["work_per_s"]["unit"] == "1/s"
    one = pairs.summarize(parent[:1], change[:1], {"setup_s": "lower", "work_per_s": "higher"})
    assert one["setup_s"]["parent"] == (0.30, 0.30, 0.30)


CANNED_RUN = """workload sweep, seed 1: 3 timed repetitions, 5 set-ups, one fresh interpreter each
  setup_s            0.247552 s     median of 5; quartiles 0.227027 .. 0.263877; spread 0.149
  failed_share   0 (0 of 16221 operations)
  check C1.instance_count                pass
  digest C1.jsonl                        a80f9d39c4130b27 same in every repetition
  digest sample                          eb03c266ef77494e DIFFERS
  maps                                   87
{"correct": true, "attempted": 16221, "failed": 0, "metrics": {}}
"""


def test_bench_pairs_reads_digest_lines_and_names_the_differing():
    pairs = _load("bench_pairs")
    same = pairs.digests(CANNED_RUN)
    assert same == {"C1.jsonl": "a80f9d39c4130b27", "sample": "eb03c266ef77494e"}
    other = {**same, "sample": "0" * 16}
    assert pairs.differing([same, same], [same, same]) == []
    assert pairs.differing([same, same], [same, other]) == ["sample"]
    assert pairs.differing([same], [{"sample": same["sample"]}]) == ["C1.jsonl"]


@pytest.mark.parametrize("change_sample, code", [("eb03c266ef77494e", 0),
                                                 ("0000000000000000", 1)])
def test_bench_pairs_exits_1_and_names_a_changed_digest(
        tmp_path, monkeypatch, capsys, change_sample, code):
    pairs = _load("bench_pairs")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    parent = pairs.digests(CANNED_RUN)
    change = {**parent, "sample": change_sample}

    def fake_run(tree, workload, seed, seconds):
        line = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        return line, (change if tree == tmp_path else parent)

    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    monkeypatch.setattr(pairs, "unpack", lambda rev, into: None)
    monkeypatch.setattr(pairs, "run_bench", fake_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--base", "HEAD", "--workload",
                                      "sweep", "--pairs", "2", "--seconds", "1",
                                      "--label", "t"])
    assert pairs.main() == code
    out = capsys.readouterr().out
    assert ("output digests differ: sample" in out) == bool(code)
    assert (tmp_path / "BENCH_t_sweep_change.json").exists()


def test_a_traced_corpus_and_claim_pass_make_every_pinned_call(recurrence14):
    # bench/run.py names the calls a traced gen or sweep run must see; a
    # refactor that drops one should fail here, not only in a traced run
    sys.path.insert(0, str(BENCH))
    try:
        run = importlib.import_module("run")
        tracer = importlib.import_module("tracer").Tracer()
    finally:
        sys.path.remove(str(BENCH))
    tracer.install()
    try:
        harness.corpus(8, n_min=8)
        harness._claim_rows.cache_clear()
        for claim in harness.CLAIM_IDS:
            harness.emit_report(harness.check_claim(claim, [recurrence14]))
    finally:
        tracer.uninstall()
    called = tracer.stats()
    pinned = (*run.REQUIRED_CALLS["gen"], *run.REQUIRED_CALLS["sweep"])
    assert [name for name in pinned if name not in called] == []
