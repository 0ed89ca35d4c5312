"""Inclusion monotonicity: every box enclosure contains its points' enclosures.

This is the property that makes subdivision certification sound, so it is
tested generatively across all evaluators and derivative orders.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import prec_to_dps

from conftest import (g_prime, h_direct, mp_admissibility_factor, mp_f_modular, mp_lambert,
                      mp_scalar, mp_theta2, mp_theta4, q_series_derivatives)
from thetacert import (Enclosure, EvalConfig, admissibility_factor, f_a_second, h_reciprocal,
                       theta2_series, theta4_eval)
from thetacert.enclosure import Jet
from thetacert.theta import _PAIRS, _numerators, _quadratic_series, _theta4, psi
from thetacert.scanner import _f_a
from thetacert.verifier import _ROUTE_CUT, _f, f_eval, f_prime, f_second, g_second

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
    orders = range(nu, nu + 1)
    assert _theta4(box, orders, CFG)[0].contains(_theta4(point, orders, CFG)[0])


@settings(max_examples=40, deadline=None)
@given(a=_anchor, w=_width, t=_frac, nu=_order)
def test_theta2_box_contains_points(a, w, t, nu):
    box, point = _box_and_point(a, w, t)
    assert theta2_series(box, nu, CFG).contains(theta2_series(point, nu, CFG))


@pytest.mark.parametrize("lo, hi", [(0.1015625, 0.1328125), (0.03125, 0.0625), (0.09375, 0.1015625),
                                    (0.15625, 0.171875)])
def test_theta2_box_contains_its_upper_end(lo, hi):
    # the box stops its far ends where y.lo does, terms after y.hi stops: those terms must not
    # carry its near-zero end past the enclosure at y.hi
    box = Enclosure(lo, hi)
    for nu in range(4):
        assert theta2_series(box, nu, CFG).contains(theta2_series(Enclosure(hi), nu, CFG))


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


@settings(max_examples=60, deadline=None)
@given(s=st.floats(min_value=0.0, max_value=200.0, exclude_min=True, allow_nan=False),
       bits=st.sampled_from((128, 256)))
def test_psi_numerators_hold_the_lambert_tail_premise(s, bits):
    # the Lambert tails take |N_k(s)| <= 2(1 + s)^2 for k <= 2 (u, v in [0, 1] and the triangle
    # inequality): the evaluator's own numerators on thin s, enclosure against enclosure
    with EvalConfig(precision_bits=bits).scope():
        s = Enclosure(s)
        u = (-s).exp()
        bound = 2 * (1 + s) ** 2
        numerators = _numerators(*((x._lo, x._hi) for x in (s, 1 - u, u)), range(3), _PAIRS, bits)
        for k, n in enumerate(numerators):
            assert abs(Enclosure._from_mpi(n)).hi <= bound.lo, (s, k)


@settings(max_examples=20, deadline=None)
@given(log_y=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
       bits=st.sampled_from((128, 256)))
def test_lambert_route_box_contains_its_ends(log_y, bits):
    # y in [1, 100]: f, f', f'' on [y, 1.01 y] by the Lambert route, whose m = 1 term takes its
    # mean-value form, against its two ends' thin enclosures and the mpmath Lambert sum there
    cfg = EvalConfig(precision_bits=bits)
    y = 10 ** log_y
    for k, fn in enumerate((f_eval, f_prime, f_second)):
        box = fn(Enclosure(y, 1.01 * y), cfg, route="lambert")
        for end in (y, 1.01 * y):
            assert box.contains(fn(Enclosure(end), cfg, route="lambert")), (y, k, end)
            value = mp_lambert(end, k)
            with mp.workdps(50):
                slack = abs(value) * mp.mpf(10) ** -45  # the oracle's differentiation error
                assert box.lo <= value - slack and value + slack <= box.hi, (y, k, end, box)


# --- the quadratic-exponent series against direct mpmath sums at 4x precision ---

_log_y = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)  # y = 10^u


def _direct_sum(term, past_peak, prec):
    """sum_{n>=0} term(n) at `prec` bits, stopped past the terms' peak once a term is
    below 2^-prec of the partial sum."""
    with mp.workprec(prec):
        total, n = mp.mpf(0), 0
        while True:
            t = term(n)
            total += t
            if past_peak(n) and abs(t) <= abs(total) * mp.mpf(2) ** -prec:
                return total
            n += 1


def _theta2_direct(y, r, prec):
    """theta2^(r)(y) = sum over odd m of 2 (-pi m^2/4)^r e^{-pi m^2 y/4}."""
    def term(n):
        x = mp.pi * (2 * n + 1) ** 2 / 4
        return 2 * (-x) ** r * mp.exp(-x * y)

    return _direct_sum(term, lambda n: mp.pi * (2 * n + 1) ** 2 * y / 4 > r, prec)


def _theta4_direct(y, r, prec):
    """theta4^(r)(y) = sum over all integers k of (-1)^k (-pi k^2)^r e^{-pi k^2 y}; the
    terms cancel to about e^{-pi/(4y)}, so the precision grows by 1.2/y bits."""
    def term(n):
        x = mp.pi * n * n
        return (1 if n == 0 else 2) * (-1) ** n * (-x) ** r * mp.exp(-x * y)

    return _direct_sum(term, lambda n: mp.pi * n * n * y > r, prec + int(1.2 / y) + 64)


def _q_direct(x, r, prec):
    """Q^(r)(x) = sum_{j>=0} (-pi j(j+1))^r e^{-pi j(j+1) x}."""
    def term(j):
        c = mp.pi * j * (j + 1)
        return (-c) ** r * mp.exp(-c * x)

    return _direct_sum(term, lambda j: mp.pi * j * (j + 1) * x > r, prec)


def _thin_and_box(u, t):
    """A thin point y = 10^u, a 1%-wide box [y, 1.01 y], and a point of that box."""
    y = 10.0 ** u
    return Enclosure(y), Enclosure(y, 1.01 * y), y * (1 + 0.01 * t)


def _assert_contains_direct(enc, value, what):
    assert enc.lo <= value <= enc.hi, f"{what}: {enc!r} misses {mp.nstr(value, 30)}"


@settings(max_examples=20, deadline=None)
@given(u=_log_y, t=_frac, r=_order)
def test_theta2_contains_direct_sum(u, t, r):
    thin, box, inside = _thin_and_box(u, t)
    prec = 4 * CFG.precision_bits
    _assert_contains_direct(theta2_series(thin, r, CFG), _theta2_direct(thin.lo, r, prec), "thin")
    _assert_contains_direct(theta2_series(box, r, CFG), _theta2_direct(mp.mpf(inside), r, prec), "box")


@settings(max_examples=20, deadline=None)
@given(u=_log_y, t=_frac, r=_order)
def test_theta4_eval_contains_direct_sum(u, t, r):
    thin, box, inside = _thin_and_box(u, t)
    prec = 4 * CFG.precision_bits
    _assert_contains_direct(theta4_eval(thin, r, CFG), _theta4_direct(thin.lo, r, prec), "thin")
    _assert_contains_direct(theta4_eval(box, r, CFG), _theta4_direct(mp.mpf(inside), r, prec), "box")


@settings(max_examples=20, deadline=None)
@given(u=_log_y, t=_frac)
def test_q_series_contains_direct_sum(u, t):
    thin, box, inside = _thin_and_box(u, t)
    prec = 4 * CFG.precision_bits
    for r, (at_thin, on_box) in enumerate(zip(q_series_derivatives(thin, CFG), q_series_derivatives(box, CFG))):
        _assert_contains_direct(at_thin, _q_direct(thin.lo, r, prec), f"thin, order {r}")
        _assert_contains_direct(on_box, _q_direct(mp.mpf(inside), r, prec), f"box, order {r}")


# --- Jet derivatives on 1%-wide boxes against mpmath differentiation at 4x precision ---


def _mp_g(y):
    e = mp.exp(mp.pi * y)
    return 2 * (e - 1) ** 2 - 4 * y * mp.pi * e * (e - 1) + mp.pi ** 2 * y ** 2 * e * (e + 1)


def _mp_f_a(a):
    """y^a theta4'(y)/theta4(y)."""
    return lambda y: y ** mp.mpf(a) * mp.diff(mp_theta4, y) / mp_theta4(y)


def _mp_h(y):
    """f''(y) theta4(y)^3 for f = y^2 theta4'/theta4."""
    return mp.diff(_mp_f_a(2), y, 2) * mp_theta4(y) ** 3


_JET_QUANTITIES = [
    ("g'", lambda box: g_prime(box, CFG), _mp_g, 1),
    ("g''", lambda box: g_second(box, CFG), _mp_g, 2),
    ("h", lambda box: h_direct(box, CFG), _mp_h, 0),
] + [
    (f"f_a'' at a = {a}", lambda box, a=a: f_a_second(Fraction(a), box, CFG), _mp_f_a(a), 2)
    for a in ("1.9", "2", "2.5")
]


@settings(max_examples=30, deadline=None)
@given(u=st.floats(min_value=-0.52, max_value=0.69, allow_nan=False), t=_frac,
       quantity=st.sampled_from(_JET_QUANTITIES))
def test_jet_derivatives_on_boxes_contain_oracle(u, t, quantity):
    # u spans [log10 0.3, log10(5/1.01)], so every box lies in [0.3, 5]
    what, fn, oracle, order = quantity
    _, box, inside = _thin_and_box(u, t)
    value = mp_scalar(oracle, inside, order, dps=prec_to_dps(4 * CFG.precision_bits))
    _assert_contains_direct(fn(box), value, what)


@pytest.mark.parametrize("bits", [128, 256])
def test_f_a_at_thin_points_of_the_scan_range_contains_oracle(bits):
    # scan's own range: thin y log-uniform on [0.01, 50], which reaches both thin routes of f
    # (modular to 1, the theta4 Jet past it, also past 8), for each entry of the family's Jet
    # against the 4x-precision oracle
    cfg = EvalConfig(precision_bits=bits)
    dps = prec_to_dps(4 * bits)
    rng = random.Random(bits)
    routes = set()
    for a in ("1", "2.15", "2.5", "4"):
        for _ in range(6):
            y = 0.01 * 5000.0 ** rng.random()
            routes.add("modular" if y <= _ROUTE_CUT else "jet" if y <= 8 else "jet past 8")
            for k in range(3):
                _assert_contains_direct(_f_a(a, Enclosure(y), k, cfg),
                                        mp_scalar(_mp_f_a(a), y, k, dps=dps),
                                        f"f_a order {k} at a = {a}, y = {y!r}, {bits} bits")
    assert routes == {"modular", "jet", "jet past 8"}


def _mp_f_direct(y, prec):
    """f, f', f'' at y by plain mpmath at `prec` bits: mp_f_modular up to 1, past it the direct
    theta4 sums (-1)^k (-pi k^2)^r e^{-pi k^2 y} through the quotient rule for y^2 theta4'/theta4."""
    if y <= 1:
        return mp_f_modular(y, prec)
    with mp.workprec(prec):
        y, t, k = mp.mpf(y), [mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(0)], 1
        while True:
            c = mp.pi * k * k
            terms = [2 * (-1) ** k * (-c) ** r * mp.exp(-c * y) for r in range(4)]
            t = [s + term for s, term in zip(t, terms)]
            if all(abs(term) <= abs(s) * mp.mpf(2) ** -prec for s, term in zip(t, terms)):
                break
            k += 1
        g = t[1] / t[0]
        g1 = (t[2] - g * t[1]) / t[0]
        g2 = (t[3] - 2 * g1 * t[1] - g * t[2]) / t[0]
        return y * y * g, 2 * y * g + y * y * g1, 2 * g + 4 * y * g1 + y * y * g2


@settings(max_examples=60, deadline=None)
@given(k=st.integers(20, 80), u=st.floats(min_value=-3, max_value=3, allow_nan=False),
       bits=st.sampled_from((128, 256)))
@example(k=60, u=-1.5, bits=128)  # a = 3 near y = 0.03, where the row is -1 + 1e-88
def test_thin_scan_row_contains_direct_sum_and_is_no_wider_than_the_enclosure_product(k, u, bits):
    # a = k/20 and y = 10^u: one ball pass against the oracle y^r (f, f', f'') from direct sums
    # at 4x precision, and against the Jet product on Enclosures of f's rounded entries
    cfg, a, y = EvalConfig(precision_bits=bits), Fraction(k, 20), 10.0 ** u
    value = f_a_second(a, y, cfg)
    with mp.workprec(4 * bits):
        f, f1, f2 = _mp_f_direct(y, 4 * bits)
        r, yy = mp.mpf(a.numerator) / a.denominator - 2, mp.mpf(y)
        exact = r * (r - 1) * yy ** (r - 2) * f + 2 * r * yy ** (r - 1) * f1 + yy ** r * f2
        _assert_contains_direct(value, exact, f"f_a'' at a = {a}, y = {y!r}, {bits} bits")
    with cfg.scope():
        thin, r = Enclosure(y), a - 2
        p = thin ** r
        power = Jet(p, p * r / thin, p * (r * (r - 1)) / (thin * thin))
        reference = tuple(power * Jet(*_f(thin, range(3), cfg)))[2]
    assert value.intersects(reference) and value.width <= reference.width, (a, y, bits)


#: 10^u for 1%-wide boxes in [0.3, 5], or boxes that straddle 1
_f_box_u = st.one_of(st.floats(min_value=-0.52, max_value=0.69, allow_nan=False),
                     st.floats(min_value=-0.0043, max_value=0.0, allow_nan=False))


@settings(max_examples=20, deadline=None)
@given(u=_f_box_u, t=_frac, route=st.sampled_from(("auto", "lambert", "modular")))
def test_f_orders_from_one_pass_meet_single_orders_and_oracle(u, t, route):
    # f, f', f'' from one series pass per route, on a thin point and a 1%-wide box
    thin, box, inside = _thin_and_box(u, t)
    dps = prec_to_dps(4 * CFG.precision_bits)
    for y, point in ((thin, thin.lo), (box, inside)):
        orders = _f(y, range(3), CFG, route)
        for k, (fn, value) in enumerate(zip((f_eval, f_prime, f_second), orders)):
            what = f"{route} order {k} on {y!r}"
            assert value.intersects(fn(y, CFG, route=route)), what
            _assert_contains_direct(value, mp_scalar(_mp_f_a(2), point, k, dps=dps), what)


@settings(max_examples=20, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=0.903, allow_nan=False),
       bits=st.sampled_from((128, 256)))
def test_thin_points_on_the_theta4_jet_meet_oracle_and_lambert(u, bits):
    # u spans [0, log10 8], so y = 10^u is a width-0 point of [1, 8]: `auto` reads f, f',
    # f'' off the theta4 Jet, which must meet the Lambert sum and the 4x-precision oracle
    cfg = EvalConfig(precision_bits=bits)
    y = Enclosure(min(10.0 ** u, 8.0))
    dps = prec_to_dps(4 * bits)
    lambert = _f(y, range(3), cfg, "lambert")
    for k, value in enumerate(_f(y, range(3), cfg)):
        what = f"order {k} at {bits} bits on {y!r}"
        assert value.intersects(lambert[k]), what
        _assert_contains_direct(value, mp_scalar(_mp_f_a(2), y.lo, k, dps=dps), what)


# --- Lambert-route boxes, whose leading term takes its mean-value form ---


@settings(max_examples=12, deadline=None)
@given(u=st.floats(min_value=-0.097, max_value=1.28, allow_nan=False),
       w=st.floats(min_value=0.001, max_value=0.05, allow_nan=False),
       bits=st.sampled_from((128, 256)))
@example(u=-0.097, w=0.05, bits=128)  # [0.8, 0.84]
@example(u=0.0, w=0.01, bits=256)  # [1, 1.01]
@example(u=0.3, w=0.05, bits=128)  # [2, 2.1]
@example(u=1.0, w=0.02, bits=128)  # [10, 10.2]
def test_lambert_boxes_contain_oracle_at_ends_and_midpoint(u, w, bits):
    # y = 10^u in [0.8, 19]: a box [y, (1 + w) y] on the Lambert route ("lambert", and "auto"
    # from 1 on) contains f, f', f'' at both ends and the midpoint
    cfg = EvalConfig(precision_bits=bits)
    lo = 10.0 ** u
    hi = lo * (1 + w)
    box = Enclosure(lo, hi)
    dps = prec_to_dps(4 * bits)
    for k, fn in enumerate((f_eval, f_prime, f_second)):
        values = [mp_scalar(_mp_f_a(2), y, k, dps=dps) for y in (lo, (lo + hi) / 2, hi)]
        for route in ("lambert", "auto") if lo >= 1 else ("lambert",):
            enc = fn(box, cfg, route=route)
            for value in values:
                _assert_contains_direct(enc, value, f"{route} order {k} on {box!r} at {bits} bits")


# --- the modular route on boxes up to a decade wide in (0, 1] ---


@settings(max_examples=20, deadline=None)
@given(u=st.floats(min_value=-2.0, max_value=0.0, exclude_max=True),
       w=st.floats(min_value=0.0, max_value=1.0, exclude_min=True), t=_frac)
def test_modular_f_on_wide_small_y_boxes_contains_points_and_oracle(u, w, t):
    # [lo, hi] with lo = 10^u log-uniform on [0.01, 1) and hi = min(1, lo 10^w): e^{-2 pi/y}
    # swings by a factor of up to e^{180 pi} across one box, which the scaled forms factor out
    lo = 10.0 ** u
    hi = min(1.0, lo * 10.0 ** w)
    box, point = Enclosure(lo, hi), min(hi, lo + (hi - lo) * t)
    dps = prec_to_dps(4 * CFG.precision_bits)
    for k, fn in enumerate((f_eval, f_prime, f_second)):
        on_box, at_point = fn(box, CFG, route="modular"), fn(Enclosure(point), CFG, route="modular")
        assert on_box.contains(at_point), f"order {k} on {box!r} at {point}"
        if point >= 0.05:
            value = mp_scalar(_mp_f_a(2), point, k, dps=dps)
            for enc in (on_box, at_point):
                _assert_contains_direct(enc, value, f"order {k} on {enc!r} at {point}")


# --- the longest running-product chains against direct sums at 4x precision ---


def _q_offset_direct(x, r, prec):
    """sum_{j>=1} (-pi j(j+1))^r e^{-pi (j(j+1) - 2) x}: the Q-series terms past the 1, times
    e^{2 pi x}."""
    def term(n):
        c = mp.pi * (n + 1) * (n + 2)
        return (-c) ** r * mp.exp(-(c - 2 * mp.pi) * x)

    return _direct_sum(term, lambda n: mp.pi * (n + 1) * (n + 2) * x > r, prec)


def _assert_deep_chain(y, thin, box, direct, cfg):
    """thin, taken at y.lo, and box, taken on y, contain the direct sums at y's ends; thin is at
    most 2 tol plus 2^-(bits - 16) of its value wide."""
    at_lo = direct(y.lo)
    _assert_contains_direct(thin, at_lo, "thin")
    _assert_contains_direct(box, at_lo, "box at y.lo")
    _assert_contains_direct(box, direct(y.hi), "box at y.hi")
    assert thin.width <= 2 * cfg.tol + abs(at_lo) * mp.mpf(2) ** (16 - cfg.precision_bits)


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("y", ["1e-5", "3e-5", "1e-4"])
def test_theta2_deep_chains_contain_direct_sum(y, bits):
    # about 1,500 terms at y = 1e-5, every exponential from one running product
    cfg = EvalConfig(precision_bits=bits)
    with cfg.scope():
        thin, box = Enclosure(y), Enclosure(y, mp.mpf(y) * mp.mpf("1.01"))
    for r in range(4):
        _assert_deep_chain(box, theta2_series(thin, r, cfg), theta2_series(box, r, cfg),
                           lambda v: _theta2_direct(v, r, 4 * bits), cfg)


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("x", [1, 20, 50])
def test_offset_q_series_contains_direct_sum(x, bits):
    # a0 = a(1) = 2: the first term is the exact 1 and the chain starts at E_1 = q^0
    cfg = EvalConfig(precision_bits=bits)
    with cfg.scope():
        thin, box = Enclosure(x), Enclosure(x, mp.mpf(x) * mp.mpf("1.01"))
        on_thin, on_box = (_quadratic_series("Q-series", v, lambda j: j * (j + 1), range(4), cfg,
                                             a0=2) for v in (thin, box))
    for r in range(4):
        _assert_deep_chain(box, on_thin[r], on_box[r], lambda v: _q_offset_direct(v, r, 4 * bits),
                           cfg)


# --- every eval function at thin points over [1e-8, 1e8], against oracles ---

#: one thin point a decade; theta2 from 1e-4 only, as below that the library's own direct theta2
#: sum runs to tens of thousands of terms (ROADMAP item 18)
_DECADES = [f"1e{k}" for k in range(-8, 9)]


def _oracle(function, nu, y, bits):
    """(value, slack) of an eval function at the exact point y: direct sums and the modular f
    at 4x the working precision, numerical derivatives of y^(-1/2) theta(1/y) where a direct
    sum would run long, and the 50-digit Lambert f above 1."""
    dps = 4 * prec_to_dps(bits)
    if function == "f":
        if y > 1:
            value = mp_lambert(y, nu)
            return value, abs(value) * mp.mpf(10) ** -40
        value = mp_f_modular(y, 4 * bits)[nu]
    elif y >= 0.01:  # theta4's cancellation costs 1.2/y bits
        value = (_theta2_direct if function == "theta2" else _theta4_direct)(y, nu, 4 * bits)
    else:
        other = mp_theta4 if function == "theta2" else mp_theta2
        value = mp_scalar(lambda t: other(1 / t) / mp.sqrt(t), y, nu, dps)
    return value, abs(value) * mp.mpf(2) ** (-2 * bits)


@pytest.mark.parametrize("bits", [128, 256])
def test_every_eval_function_at_thin_points_contains_its_oracle(bits):
    # out to y = 1e-8 and 1e8: the thin f routes on balls reach x = 1/y = 1e8
    cfg = EvalConfig(precision_bits=bits)
    evaluate = {"theta2": theta2_series, "theta4": theta4_eval,
                "f": lambda y, nu, cfg: (f_eval, f_prime, f_second)[nu](y, cfg)}
    for text in _DECADES:
        with cfg.scope():
            y = Enclosure(text)
        for function, orders in (("theta2", range(4)), ("theta4", range(4)), ("f", range(3))):
            if function == "theta2" and float(text) < 1e-4:
                continue
            for nu in orders:
                value = evaluate[function](y, nu, cfg)
                exact, slack = _oracle(function, nu, y.lo, bits)
                with mp.workprec(4 * bits):
                    assert value.lo - slack <= exact <= value.hi + slack, (
                        f"{function} order {nu} at y = {text}, {bits} bits: {value!r} misses "
                        f"{mp.nstr(exact, 25)}")


_admissibility_y = st.floats(min_value=1.0, max_value=60.0, allow_nan=False)


@pytest.mark.parametrize("bits", [128, 256])
@settings(max_examples=25, deadline=None)
@given(y=_admissibility_y, nu=_order)
def test_admissibility_factor_contains_its_direct_sum(bits, y, nu):
    factor = admissibility_factor(nu, y, EvalConfig(precision_bits=bits))
    with mp.workprec(4 * bits):
        assert factor.lo <= mp_admissibility_factor(nu, y) <= factor.hi


@pytest.mark.parametrize("bits", [128, 256])
@settings(max_examples=25, deadline=None)
@given(y=_admissibility_y, nu=_order)
def test_admissibility_factor_decreases_in_y(bits, y, nu):
    # the premise of the decay check, numerically: the factor at 1.01 y lies below its value at y
    cfg = EvalConfig(precision_bits=bits)
    assert admissibility_factor(nu, 1.01 * y, cfg).hi < admissibility_factor(nu, y, cfg).lo
