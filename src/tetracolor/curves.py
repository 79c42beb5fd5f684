"""Closed polygonal curves, winding numbers, and region classification.

Points are pairs of exact rationals (floats are promoted exactly), so
on-curve detection and same-set intersection checks are decided, never
approximated.  A point's class against a family of curves is the sum of
absolute winding numbers: odd means inside, even outside.  Two curve
sets, one per pen, classify a region sample into one of the four group
colors by its inside/outside bit against each set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .coloring import KleinColor
from .planar_map import MapError


class CurveError(MapError):
    pass


class PointOnCurve(CurveError):
    """Winding number requested for a point lying on the curve."""


class SampleOnCurve(CurveError):
    """A region sample point lies on a curve segment."""


class SameSetIntersection(CurveError):
    """Two curves of one set share a point, which a set never allows."""


Coord = Union[int, float, Fraction, str]
Point = tuple[Fraction, Fraction]


def as_point(x: Coord, y: Coord) -> Point:
    return Fraction(x), Fraction(y)


class Position(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    ON_CURVE = "on-curve"


@dataclass(frozen=True)
class PointClass:
    """Winding-sum classification of one point; dwn is None on a curve."""

    dwn: Optional[int]
    position: Position


@dataclass(frozen=True)
class PolyCurve:
    """A closed polygonal curve: the last point connects to the first."""

    points: tuple[Point, ...]

    def __post_init__(self):
        if len(self.points) < 3:
            raise CurveError("a closed polygonal curve needs at least 3 points")
        for a, b in self.segments():
            if a == b:
                raise CurveError("consecutive curve points coincide")

    @staticmethod
    def of(coords: Sequence[tuple[Coord, Coord]]) -> "PolyCurve":
        return PolyCurve(tuple(as_point(x, y) for x, y in coords))

    def segments(self) -> Iterable[tuple[Point, Point]]:
        pts = self.points
        for i in range(len(pts)):
            yield pts[i], pts[(i + 1) % len(pts)]

    def reversed(self) -> "PolyCurve":
        return PolyCurve(tuple(reversed(self.points)))


@dataclass(frozen=True)
class CurveSet:
    """Curves drawn with one pen; no two of them may share any point."""

    curves: tuple[PolyCurve, ...]
    color_tag: str = ""


# ---------------------------------------------------------------------------
# exact predicates
# ---------------------------------------------------------------------------

def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def on_segment(p: Point, a: Point, b: Point) -> bool:
    if _cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def point_on_curve(curve: PolyCurve, p: Point) -> bool:
    return any(on_segment(p, a, b) for a, b in curve.segments())


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Do closed segments ab and cd share any point (touching counts)?"""
    d1 = _cross(c, d, a)
    d2 = _cross(c, d, b)
    d3 = _cross(a, b, c)
    d4 = _cross(a, b, d)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    return (on_segment(a, c, d) or on_segment(b, c, d)
            or on_segment(c, a, b) or on_segment(d, a, b))


def winding_number(curve: PolyCurve, p: Point) -> int:
    """Signed winding number by exact upward/downward crossing counts.

    Uses the half-open rule (a segment owns its start height, not its
    end height), so rays through vertices are counted once.
    """
    if point_on_curve(curve, p):
        raise PointOnCurve(f"point {p} lies on the curve")
    wn = 0
    for a, b in curve.segments():
        if a[1] <= p[1]:
            if b[1] > p[1] and _cross(a, b, p) > 0:
                wn += 1
        elif b[1] <= p[1] and _cross(a, b, p) < 0:
            wn -= 1
    return wn


def dwn(set_list: Sequence[CurveSet], p: Point) -> PointClass:
    """Sum of absolute winding numbers over every curve of every set."""
    total = 0
    for cs in set_list:
        for curve in cs.curves:
            if point_on_curve(curve, p):
                return PointClass(dwn=None, position=Position.ON_CURVE)
            total += abs(winding_number(curve, p))
    pos = Position.INSIDE if total % 2 else Position.OUTSIDE
    return PointClass(dwn=total, position=pos)


def check_disjoint(cs: CurveSet) -> None:
    """Raise when two distinct curves of the set share any point."""
    curves = cs.curves
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            for a, b in curves[i].segments():
                for c, d in curves[j].segments():
                    if segments_intersect(a, b, c, d):
                        raise SameSetIntersection(
                            f"curves {i} and {j} of one set share a point")


def classify_regions(blue: CurveSet, yellow: CurveSet,
                     samples: Sequence[tuple[str, Point]]) -> dict[str, KleinColor]:
    """Color every labeled sample by its inside bits against the two sets.

    Inside the blue set contributes the first bit, inside the yellow set
    the second, matching the face-color convention of the coloring module.
    """
    check_disjoint(blue)
    check_disjoint(yellow)
    out: dict[str, KleinColor] = {}
    for label, p in samples:
        bits = 0
        for cs, bit in ((blue, 0b10), (yellow, 0b01)):
            pos = dwn([cs], p).position
            if pos == Position.ON_CURVE:
                raise SampleOnCurve(f"sample {label!r} lies on a curve")
            if pos == Position.INSIDE:
                bits |= bit
        out[label] = KleinColor(bits)
    return out


# ---------------------------------------------------------------------------
# curve and sample files
# ---------------------------------------------------------------------------

def parse_curve_file(text: str) -> tuple[CurveSet, CurveSet]:
    """Sections [blue] / [yellow]; 'curve' opens a curve, 'x y' lines add
    points, a blank line closes the open curve."""
    sets: dict[str, list[PolyCurve]] = {"blue": [], "yellow": []}
    section: Optional[str] = None
    pending: list[Point] = []

    def flush():
        nonlocal pending
        if pending:
            if section is None:
                raise CurveError("curve points outside any section")
            sets[section].append(PolyCurve(tuple(pending)))
            pending = []

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            flush()
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            section = line[1:-1].strip().lower()
            if section not in sets:
                raise CurveError(f"unknown section {section!r}")
            continue
        if line == "curve":
            flush()
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CurveError(f"expected 'x y', got {line!r}")
        if section is None:
            raise CurveError("curve points outside any section")
        pending.append(_parse_point(parts[0], parts[1], line))
    flush()
    return (CurveSet(tuple(sets["blue"]), "blue"),
            CurveSet(tuple(sets["yellow"]), "yellow"))


def parse_sample_file(text: str) -> list[tuple[str, Point]]:
    """Lines 'label x y'."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise CurveError(f"expected 'label x y', got {line!r}")
        out.append((parts[0], _parse_point(parts[1], parts[2], line)))
    return out


def _parse_point(x: str, y: str, line: str) -> Point:
    try:
        return as_point(x, y)
    except (ValueError, ZeroDivisionError):
        raise CurveError(f"bad coordinate in {line!r}") from None
