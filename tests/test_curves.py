import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetracolor.coloring import KleinColor
from tetracolor.curves import (CurveError, CurveSet, PointOnCurve, PolyCurve,
                               Position, SameSetIntersection, SampleOnCurve,
                               as_point, classify_regions, dwn,
                               parse_curve_file, parse_sample_file,
                               winding_number)

UNIT_SQUARE = PolyCurve.of([(0, 0), (1, 0), (1, 1), (0, 1)])
CENTER = as_point(Fraction(1, 2), Fraction(1, 2))


def even_odd_inside(curve: PolyCurve, p) -> bool:
    """Independent even-odd oracle: count crossings of a rightward
    horizontal ray, with a half-open rule on segment endpoints."""
    px, py = p
    crossings = 0
    for (ax, ay), (bx, by) in curve.segments():
        if (ay > py) == (by > py):
            continue
        x_at = ax + (bx - ax) * (py - ay) / (by - ay)
        if x_at > px:
            crossings += 1
    return crossings % 2 == 1


class TestWindingNumber:
    def test_ccw_square_center(self):
        assert winding_number(UNIT_SQUARE, CENTER) == 1

    def test_exterior_zero(self):
        assert winding_number(UNIT_SQUARE, as_point(5, 5)) == 0

    def test_cw_square_center(self):
        assert winding_number(UNIT_SQUARE.reversed(), CENTER) == -1

    def test_point_on_curve_raises(self):
        with pytest.raises(PointOnCurve):
            winding_number(UNIT_SQUARE, as_point(0, 0))
        with pytest.raises(PointOnCurve):
            winding_number(UNIT_SQUARE, as_point(Fraction(1, 2), 0))

    def test_double_wound_curve(self):
        twice = PolyCurve.of([(1, 0), (0, 1), (-1, 0), (0, -1)] * 2)
        assert winding_number(twice, as_point(0, 0)) == 2

    def test_needs_three_points(self):
        with pytest.raises(CurveError):
            PolyCurve.of([(0, 0), (1, 1)])


class TestDwn:
    def test_nested_squares_inside_both_is_outside(self):
        outer = PolyCurve.of([(-2, -2), (2, -2), (2, 2), (-2, 2)])
        pc = dwn([CurveSet((outer, UNIT_SQUARE), "blue")], CENTER)
        assert pc.dwn == 2 and pc.position is Position.OUTSIDE

    def test_annulus_is_inside(self):
        outer = PolyCurve.of([(-2, -2), (2, -2), (2, 2), (-2, 2)])
        pc = dwn([CurveSet((outer, UNIT_SQUARE), "blue")], as_point(Fraction(-3, 2), 0))
        assert pc.dwn == 1 and pc.position is Position.INSIDE

    def test_bowtie_lobe(self):
        bow = PolyCurve.of([(0, 0), (2, 2), (2, 0), (0, 2)])
        pc = dwn([CurveSet((bow,), "blue")], as_point(Fraction(1, 2), 1))
        assert pc.dwn == 1 and pc.position is Position.INSIDE

    def test_on_curve_is_a_value(self):
        pc = dwn([CurveSet((UNIT_SQUARE,), "blue")], as_point(1, 1))
        assert pc.position is Position.ON_CURVE and pc.dwn is None

    def test_orientation_invariance(self):
        outer = PolyCurve.of([(-2, -2), (2, -2), (2, 2), (-2, 2)])
        sets = [CurveSet((outer, UNIT_SQUARE), "blue")]
        flipped = [CurveSet((outer.reversed(), UNIT_SQUARE.reversed()), "blue")]
        for p in (CENTER, as_point(Fraction(-3, 2), 0), as_point(9, 9)):
            assert dwn(sets, p) == dwn(flipped, p)


BLUE = CurveSet((PolyCurve.of([(0, 0), (4, 0), (4, 4), (0, 4)]),), "blue")
YELLOW = CurveSet((PolyCurve.of([(2, 2), (6, 2), (6, 6), (2, 6)]),), "yellow")
SAMPLES = [("outside", as_point(-1, -1)), ("blueonly", as_point(1, 1)),
           ("overlap", as_point(3, 3)), ("yellowonly", as_point(5, 5))]


class TestClassifyRegions:
    def test_overlap_fixture_all_four_colors(self):
        colors = classify_regions(BLUE, YELLOW, SAMPLES)
        assert {k: str(v) for k, v in colors.items()} == {
            "outside": "00", "blueonly": "10", "overlap": "11",
            "yellowonly": "01"}

    def test_sample_on_curve(self):
        with pytest.raises(SampleOnCurve):
            classify_regions(BLUE, YELLOW, [("bad", as_point(0, 0))])

    def test_same_set_touching_rejected(self):
        t1 = PolyCurve.of([(0, 0), (1, 0), (0, 1)])
        t2 = PolyCurve.of([(1, 0), (2, 0), (1, 1)])
        with pytest.raises(SameSetIntersection):
            classify_regions(CurveSet((t1, t2), "blue"), YELLOW, [])

    def test_same_set_crossing_rejected(self):
        t1 = PolyCurve.of([(0, 0), (4, 0), (4, 4), (0, 4)])
        t2 = PolyCurve.of([(2, -1), (5, -1), (5, 1), (2, 1)])
        with pytest.raises(SameSetIntersection):
            classify_regions(CurveSet((t1, t2), "blue"), YELLOW, [])

    def test_disjoint_same_set_accepted(self):
        t1 = PolyCurve.of([(0, 0), (1, 0), (0, 1)])
        t2 = PolyCurve.of([(9, 9), (10, 9), (9, 10)])
        colors = classify_regions(CurveSet((t1, t2), "blue"), YELLOW,
                                  [("far", as_point(20, 20))])
        assert colors["far"] is KleinColor.C00

    def test_nested_squares_differ_in_one_bit(self):
        outer = PolyCurve.of([(-3, -3), (3, -3), (3, 3), (-3, 3)])
        inner = PolyCurve.of([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        blue = CurveSet((outer, inner), "blue")
        yellow = CurveSet((), "yellow")
        samples = [("annulus", as_point(0, 2)), ("hole", as_point(0, 0))]
        colors = classify_regions(blue, yellow, samples)
        diff = colors["annulus"].value ^ colors["hole"].value
        assert bin(diff).count("1") == 1


class TestFiles:
    def test_curve_file_sections(self):
        text = ("[blue]\ncurve\n0 0\n4 0\n4 4\n0 4\n\n"
                "curve\n10 10\n11 10\n10 11\n\n"
                "[yellow]\ncurve\n2 2\n6 2\n6 6\n2 6\n")
        blue, yellow = parse_curve_file(text)
        assert len(blue.curves) == 2 and len(yellow.curves) == 1

    def test_sample_file_fractions(self):
        samples = parse_sample_file("a 1 2\nb 3/2 4\n# note\n")
        assert samples[1] == ("b", (Fraction(3, 2), Fraction(4)))

    def test_bad_section(self):
        with pytest.raises(CurveError):
            parse_curve_file("[red]\ncurve\n0 0\n1 0\n0 1\n")


def test_winding_parity_matches_even_odd_oracle_on_squares():
    rng = random.Random(7)
    for _ in range(300):
        side = rng.randrange(1, 20)
        x0, y0 = rng.randrange(-20, 20), rng.randrange(-20, 20)
        square = PolyCurve.of([(x0, y0), (x0 + side, y0),
                               (x0 + side, y0 + side), (x0, y0 + side)])
        if rng.random() < 0.5:
            square = square.reversed()
        p = as_point(Fraction(rng.randrange(-500, 500), 13),
                     Fraction(rng.randrange(-500, 500), 17))
        assert (winding_number(square, p) % 2 == 1) == even_odd_inside(square, p)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_crossing_one_segment_changes_winding_by_one(data):
    k = data.draw(st.integers(4, 9))
    coords = data.draw(st.lists(
        st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
        min_size=k, max_size=k, unique=True))
    try:
        curve = PolyCurve.of(coords)
    except CurveError:
        return
    # straddle the first segment's midpoint along a perpendicular hair
    (ax, ay), (bx, by) = next(iter(curve.segments()))
    mx, my = Fraction(ax + bx, 2), Fraction(ay + by, 2)
    dx, dy = bx - ax, by - ay
    eps = Fraction(1, 10 ** 7)
    p1 = (mx - dy * eps, my + dx * eps)
    p2 = (mx + dy * eps, my - dx * eps)
    try:
        w1 = winding_number(curve, p1)
        w2 = winding_number(curve, p2)
    except PointOnCurve:
        return  # midpoint hair hit another segment; skip the degenerate draw
    others = [seg for seg in curve.segments()][1:]
    from tetracolor.curves import segments_intersect
    hair_clear = not any(segments_intersect(p1, p2, c, d) for c, d in others)
    if hair_clear:
        assert abs(w1 - w2) == 1


def test_crossing_one_curve_flips_exactly_its_bit():
    # straddle a blue-only segment: colors differ exactly in the first bit;
    # straddle a yellow-only segment: exactly the second
    samples = [("left_of_blue", as_point(Fraction(-1, 2), 2)),
               ("right_of_blue", as_point(Fraction(1, 2), 2)),
               ("below_yellow", as_point(3, Fraction(3, 2))),
               ("above_yellow", as_point(3, Fraction(5, 2)))]
    colors = classify_regions(BLUE, YELLOW, samples)
    assert colors["left_of_blue"].value ^ colors["right_of_blue"].value == 0b10
    assert colors["below_yellow"].value ^ colors["above_yellow"].value == 0b01
