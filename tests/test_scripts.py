import importlib.util
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
