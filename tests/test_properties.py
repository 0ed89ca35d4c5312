"""Inclusion monotonicity: every box enclosure contains its points' enclosures.

This is the property that makes subdivision certification sound, so it is
tested generatively across all evaluators and derivative orders.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from thetacert import Enclosure, EvalConfig, f_a_second, h_reciprocal, theta2_series, theta4_series
from thetacert.theta import psi
from thetacert.verifier import f_eval, f_prime, f_second

CFG = EvalConfig()

_anchor = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
_width = st.floats(min_value=1e-6, max_value=0.5, allow_nan=False)
_frac = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_order = st.integers(min_value=0, max_value=3)


def _box_and_point(a, w, t):
    box = Enclosure(a, a + w)
    point = Enclosure(a + w * t)
    return box, point


@settings(max_examples=40, deadline=None)
@given(a=_anchor, w=_width, t=_frac, nu=_order)
def test_theta4_box_contains_points(a, w, t, nu):
    box, point = _box_and_point(a, w, t)
    assert theta4_series(box, nu, CFG).contains(theta4_series(point, nu, CFG))


@settings(max_examples=40, deadline=None)
@given(a=_anchor, w=_width, t=_frac, nu=_order)
def test_theta2_box_contains_points(a, w, t, nu):
    box, point = _box_and_point(a, w, t)
    assert theta2_series(box, nu, CFG).contains(theta2_series(point, nu, CFG))


@settings(max_examples=30, deadline=None)
@given(a=_anchor, w=_width, t=_frac)
def test_f_family_box_contains_points(a, w, t):
    box, point = _box_and_point(a, w, t)
    for fn in (f_eval, f_prime, f_second):
        for route in ("lambert", "modular"):
            assert fn(box, CFG, route=route).contains(fn(point, CFG, route=route))


_below_one = st.floats(min_value=0.5, max_value=1.0, exclude_max=True)
_above_one = st.floats(min_value=1.0, max_value=2.0, exclude_min=True)
_around_one = st.one_of(
    st.tuples(_below_one, _above_one),
    st.tuples(_below_one, st.just(1.0)),
    st.tuples(st.just(1.0), _above_one),
)


@settings(max_examples=30, deadline=None)
@given(ends=_around_one, t=_frac)
def test_f_family_auto_box_around_one_contains_points(ends, t):
    # auto splits a box across 1 into modular on [lo, 1] and Lambert on [1, hi]
    lo, hi = ends
    box = Enclosure(lo, hi)
    for y in (min(max(lo + (hi - lo) * t, lo), hi), 1):
        point = Enclosure(y)
        for fn in (f_eval, f_prime, f_second):
            assert fn(box, CFG, route="auto").contains(fn(point, CFG, route="auto"))


@settings(max_examples=20, deadline=None)
@given(a=st.floats(min_value=1.0, max_value=8.0, allow_nan=False), w=_width, t=_frac)
def test_h_reciprocal_box_contains_points(a, w, t):
    box, point = _box_and_point(a, w, t)
    assert h_reciprocal(box, CFG).contains(h_reciprocal(point, CFG))


@settings(max_examples=20, deadline=None)
@given(a=_anchor, w=_width, t=_frac)
def test_exponent_family_box_contains_points(a, w, t):
    box, point = _box_and_point(a, w, t)
    expo = Fraction(21, 10)
    assert f_a_second(expo, box, CFG).contains(f_a_second(expo, point, CFG))


@settings(max_examples=40, deadline=None)
@given(a=_anchor, w=_width)
def test_bisection_halves_tighten(a, w):
    # the two halves' hull must sit inside the parent enclosure
    box = Enclosure(a, a + w)
    mid = a + w / 2
    left = Enclosure(a, mid)
    right = Enclosure(mid, a + w)
    parent = f_second(box, CFG)
    halves = f_second(left, CFG).hull(f_second(right, CFG))
    assert parent.contains(halves) or parent.intersects(halves)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(min_value=0.05, max_value=60.0, allow_nan=False), w=_width, t=_frac,
       order=st.integers(min_value=0, max_value=2))
def test_psi_box_contains_points(a, w, t, order):
    box, point = _box_and_point(a, w, t)
    assert psi(box, order, CFG).contains(psi(point, order, CFG))
