import importlib.util
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

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
