"""SVG renderers for map embeddings and curve fixtures.

Maps are laid out by pinning the outer face (face 0) on a regular polygon
and relaxing every other vertex to the average of its neighbors; parallel
edges bow apart as quadratic arcs and loops draw as small circles.  Edge
colorings tint the strokes, the hub of a contracted map is highlighted.
"""

from __future__ import annotations

from typing import Optional, Sequence

import math
from xml.sax.saxutils import escape

from .coloring import EdgeColor, EdgeColoring
from .curves import CurveSet, Point
from .planar_map import RotationMap

_STROKE = {EdgeColor.BLUE: "#1f5fbf", EdgeColor.YELLOW: "#d4a017",
           EdgeColor.GREEN: "#2e8b57"}
_KLEIN_FILL = {"00": "#f2f2f2", "01": "#ffe08a", "10": "#9fc4f0", "11": "#8fd6a8"}


def layout(m: RotationMap, iterations: int = 200) -> list[tuple[float, float]]:
    """Outer-face-pinned barycentric relaxation; good enough to look at."""
    outer = [m.origin(d) for d in m.faces[0].darts]
    pos = [(0.0, 0.0)] * m.vertex_count
    k = len(outer)
    for i, v in enumerate(outer):
        ang = 2 * math.pi * i / k
        pos[v] = (math.cos(ang), math.sin(ang))
    pinned = set(outer)
    inner = [v for v in range(m.vertex_count) if v not in pinned]
    for v in inner:
        pos[v] = (0.0, 0.0)
    for _ in range(iterations):
        for v in inner:
            xs = [pos[m.head(d)] for d in m.vertex_darts(v)]
            if xs:
                pos[v] = (sum(x for x, _ in xs) / len(xs),
                          sum(y for _, y in xs) / len(xs))
    return pos


def _fit(points: Sequence[tuple[float, float]], size: float, margin: float
         ) -> list[tuple[float, float]]:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    span = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    scale = (size - 2 * margin) / span
    return [((x - min(xs)) * scale + margin, (y - min(ys)) * scale + margin)
            for x, y in points]


def render_map_svg(m: RotationMap, ec: Optional[EdgeColoring] = None,
                   hub: Optional[int] = None, size: float = 480.0) -> str:
    pos = _fit(layout(m), size, 40.0)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
             f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">']
    seen_pairs: dict[tuple[int, int], int] = {}
    for e in m.edges():
        u, v = m.edge_endpoints(e)
        color = "#444444" if ec is None else _STROKE[ec[e]]
        if u == v:
            x, y = pos[u]
            parts.append(f'  <circle cx="{x + 12:.1f}" cy="{y:.1f}" r="12" '
                         f'fill="none" stroke="{color}" stroke-width="2.5"/>')
            continue
        x1, y1 = pos[u]
        x2, y2 = pos[v]
        key = (min(u, v), max(u, v))
        bow = seen_pairs.get(key, 0)
        seen_pairs[key] = bow + 1
        if bow == 0:
            parts.append(f'  <line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                         f'y2="{y2:.1f}" stroke="{color}" stroke-width="2.5"/>')
        else:
            # successive parallels bow out alternately
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            dx, dy = x2 - x1, y2 - y1
            norm = math.hypot(dx, dy) or 1.0
            off = 14.0 * ((bow + 1) // 2) * (1 if bow % 2 else -1)
            cx, cy = mx - dy / norm * off, my + dx / norm * off
            parts.append(f'  <path d="M {x1:.1f} {y1:.1f} Q {cx:.1f} {cy:.1f} '
                         f'{x2:.1f} {y2:.1f}" fill="none" stroke="{color}" '
                         f'stroke-width="2.5"/>')
    for v, (x, y) in enumerate(pos):
        r = 9 if v == hub else 5
        fill = "#c0392b" if v == hub else "#222222"
        parts.append(f'  <circle cx="{x:.1f}" cy="{y:.1f}" r="{r}" fill="{fill}"/>')
        parts.append(f'  <text x="{x + 7:.1f}" y="{y - 7:.1f}" '
                     f'font-size="11" font-family="sans-serif">{v + 1}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_curves_svg(blue: CurveSet, yellow: CurveSet,
                      samples: Sequence[tuple[str, Point]] = (),
                      colors: Optional[dict] = None,
                      size: float = 480.0) -> str:
    pts: list[tuple[float, float]] = []
    for cs in (blue, yellow):
        for c in cs.curves:
            pts.extend((float(x), float(y)) for x, y in c.points)
    pts.extend((float(x), float(y)) for _, (x, y) in samples)
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    fitted = _fit(pts, size, 30.0)
    fx = {orig: f for orig, f in zip(pts, fitted)}

    def at(p) -> tuple[float, float]:
        return fx[(float(p[0]), float(p[1]))]

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
             f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">']
    for cs, stroke in ((blue, _STROKE[EdgeColor.BLUE]),
                       (yellow, _STROKE[EdgeColor.YELLOW])):
        for c in cs.curves:
            coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in (at(p) for p in c.points))
            parts.append(f'  <polygon points="{coords}" fill="none" '
                         f'stroke="{stroke}" stroke-width="2.5"/>')
    for label, p in samples:
        x, y = at(p)
        fill = "#333333"
        if colors and label in colors:
            fill = _KLEIN_FILL[str(colors[label])]
        parts.append(f'  <circle cx="{x:.1f}" cy="{y:.1f}" r="6" fill="{fill}" '
                     f'stroke="#333333"/>')
        parts.append(f'  <text x="{x + 8:.1f}" y="{y - 8:.1f}" font-size="11" '
                     f'font-family="sans-serif">{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
