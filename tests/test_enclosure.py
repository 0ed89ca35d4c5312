"""Foundation arithmetic: containment, rounding, domain errors."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from thetacert import (
    DomainError,
    Enclosure,
    EvalConfig,
    as_enclosure,
    current_precision,
    precision,
)

from conftest import PI_50, count_calls


def test_exact_integer_addition():
    e = Enclosure(1) + Enclosure(2)
    assert e.contains(3)
    assert e.width <= mp.mpf(2) ** (-125)


def test_integer_endpoints_are_exact_and_bools_are_refused():
    # ints of any size, and int subclasses other than bool, convert exactly
    big = 3 ** 200
    assert Enclosure(big)._lo == Enclosure(big)._hi == mpmath.libmp.from_int(big)
    assert Enclosure(type("Count", (int,), {})(7)).lo == 7
    with pytest.raises(TypeError, match="bool"):
        Enclosure(True)


def test_interval_product_signs():
    e = Enclosure(-1, 1) * Enclosure(-1, 1)
    assert e.contains(Enclosure(-1, 1))
    assert e.lo >= -1 and e.hi <= 1


def test_division():
    e = Enclosure(1, 2) / Enclosure(4)
    assert e.contains(Enclosure(Fraction(1, 4))) and e.contains(Enclosure(Fraction(1, 2)))
    assert abs(e.lo - 0.25) < 1e-30 and abs(e.hi - 0.5) < 1e-30


def test_division_by_zero_interval_is_explicit_error():
    with pytest.raises(DomainError):
        Enclosure(1) / Enclosure(-1, 1)
    with pytest.raises(DomainError):
        Enclosure(1) / Enclosure(0)


def test_exp_of_zero_contains_one():
    assert Enclosure(0).exp().contains(1)


def test_pi_against_published_digits():
    e = Enclosure.pi()
    with precision(300):
        oracle = Enclosure(PI_50)  # 50 digits, so itself uncertain at ~1e-50
        assert e.intersects(oracle)
        assert abs(e - oracle).hi <= e.width + mp.mpf("1e-49")
    # width <= 4 * 2^(1-prec)
    assert e.width <= mp.mpf(2) ** (3 - current_precision())


def test_sqrt_via_rational_power():
    e = Enclosure(4) ** Fraction(1, 2)
    assert e.contains(2)
    assert e.width < 1e-30


def test_fractional_power_requires_positive_base():
    with pytest.raises(DomainError):
        Enclosure(-1, 1) ** Fraction(1, 2)
    with pytest.raises(DomainError):
        Enclosure(0, 1) ** Fraction(9, 2)


@pytest.mark.parametrize("bits", [128, 256, 1024])
@pytest.mark.parametrize("box", [False, True], ids=["point", "box"])
def test_half_integer_power_contains_mpmath_and_is_no_wider_than_exp_log(bits, box):
    # y^(n/2) takes a square root of an integer power and no log: it contains mpmath's value at
    # each end of y, and for odd n is no wider than exp(n/2 log y) (even n is an integer power)
    for y in (0.0123, 0.05, 0.3, 5 / 7, 1.0, 1 + 2 ** -40, 1.01, 2.0, 7.77, 99.0):
        ends = (y, y * 1.01) if box else (y,)
        for n in range(-13, 12):
            with precision(bits):
                got = Enclosure(*ends) ** Fraction(n, 2)
                via_log = (Enclosure(*ends).log() * Fraction(n, 2)).exp()
            with mp.workprec(4 * bits):
                for end in ends:
                    assert got.lo <= mp.mpf(end) ** (mp.mpf(n) / 2) <= got.hi, (bits, y, n)
            with mp.workprec(16 * bits):
                assert n % 2 == 0 or got.hi - got.lo <= via_log.hi - via_log.lo, (bits, y, n)


def test_negative_integer_power_requires_nonzero():
    with pytest.raises(DomainError):
        Enclosure(-1, 1) ** -2
    assert (Enclosure(2) ** -2).contains(Enclosure(Fraction(1, 4)))


def test_string_construction_encloses_decimal():
    e = Enclosure("0.1")
    assert e.lo < e.hi
    assert e.contains(Enclosure(Fraction(1, 10)))


def test_negative_values_keep_endpoint_order():
    for v in (Fraction(-9, 100), "-0.09", -0.09, -3):
        e = as_enclosure(v)
        assert e.lo <= e.hi


def test_intersection_and_hull():
    a = Enclosure(0, 2)
    b = Enclosure(1, 3)
    assert a.hull(b).contains(Enclosure(0, 3))


_finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
_nonzero = _finite.filter(lambda v: abs(v) > 1e-6)


@settings(max_examples=150, deadline=None)
@given(x=_finite, y=_finite)
def test_containment_add_sub_mul(x, y):
    # enclosure result at 256 bits must contain the scalar result at 512 bits
    with precision(256):
        ex, ey = Enclosure(x), Enclosure(y)
        results = {"add": ex + ey, "sub": ex - ey, "mul": ex * ey}
    with mp.workprec(512):
        exact = {"add": mp.mpf(x) + mp.mpf(y), "sub": mp.mpf(x) - mp.mpf(y), "mul": mp.mpf(x) * mp.mpf(y)}
    with precision(512):
        for op, enc in results.items():
            assert enc.contains(exact[op]), op


@settings(max_examples=100, deadline=None)
@given(x=_finite, y=_nonzero)
def test_containment_div_exp(x, y):
    with precision(256):
        q = Enclosure(x) / Enclosure(y)
        ex = Enclosure(min(x, 30.0)).exp()
    with mp.workprec(512):
        exact_q = mp.mpf(x) / mp.mpf(y)
        exact_e = mp.exp(mp.mpf(min(x, 30.0)))
    with precision(512):
        assert q.contains(exact_q)
        assert ex.contains(exact_e)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(min_value=1e-3, max_value=40, allow_nan=False))
def test_containment_log_pow(x):
    with precision(256):
        lg = Enclosure(x).log()
        pw = Enclosure(x) ** Fraction(9, 2)
    with mp.workprec(512):
        exact_lg = mp.log(mp.mpf(x))
        exact_pw = mp.mpf(x) ** (mp.mpf(9) / 2)
    with precision(512):
        assert lg.contains(exact_lg)
        assert pw.contains(exact_pw)


def test_monotone_precision_never_widens():
    val = Fraction(1, 3)
    with precision(128):
        w128 = ((Enclosure(val) * Enclosure.pi()).exp()).width
    with precision(256):
        w256 = ((Enclosure(val) * Enclosure.pi()).exp()).width
        assert w256 <= w128 * (1 + mp.mpf(2) ** -50)


def test_degenerate_width_bound():
    # width-0 inputs through +,-,* stay within 4 ulp
    with precision(128):
        x = Enclosure(Fraction(22, 7))
        for e in (x + x, x - Enclosure(1), x * x):
            scale = max(abs(e.lo), abs(e.hi), mp.mpf(1))
            assert e.width <= 4 * scale * mp.mpf(2) ** -128


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(precision_bits=32)
    with pytest.raises(ValueError):
        EvalConfig(tail_tolerance=0.0)
    with pytest.raises(ValueError):
        EvalConfig(max_terms=0)
    assert EvalConfig(tail_tolerance="1e-500").tol > 0


def test_repeated_tol_reads_parse_the_tolerance_once(monkeypatch):
    # the series kernel reads cfg.tol twice per call: the config parses its decimal string once
    from thetacert import enclosure

    parses = count_calls(monkeypatch, enclosure.mp, "mpf")
    cfg = EvalConfig(tail_tolerance="1e-40")
    assert all(cfg.tol == cfg.tol for _ in range(3))
    assert len(parses) == 1
    assert parses[0] == ("1e-40",)


@pytest.mark.parametrize("endpoints", [("nan",), (float("nan"),), (1, "nan"), ("nan", 1)])
def test_nan_endpoint_rejected(endpoints):
    with pytest.raises(ValueError, match="NaN"):
        Enclosure(*endpoints)


# --- midpoint-radius balls: each operation contains the exact image of its operands ---

def _ball_ends(b):
    """A Ball's ends as exact Fractions."""
    from thetacert.enclosure import Ball

    assert isinstance(b, Ball) and b.r >= 0
    unit = Fraction(2) ** b.e
    return (b.m - b.r) * unit, (b.m + b.r) * unit


_ball_parts = st.tuples(st.integers(-2 ** 200, 2 ** 200), st.integers(0, 2 ** 40),
                        st.integers(-400, 400))


@settings(max_examples=300, deadline=None)
@given(a=_ball_parts, b=_ball_parts, prec=st.sampled_from([85, 160, 288]))
def test_ball_operations_contain_the_exact_image_of_their_operands(a, b, prec):
    # wide and thin balls, far and near exponents: every op at the ends and midpoints of its
    # operands stays inside its result ball, and so does its Enclosure rounded outward
    from thetacert.enclosure import (Ball, _ball_add, _ball_div, _ball_mul, _ball_pow_int,
                                     _ball_sub)

    x, y = Ball(*a), Ball(*b)
    points = [(p, q) for p in (*_ball_ends(x), Fraction(x.m) * Fraction(2) ** x.e)
              for q in (*_ball_ends(y), Fraction(y.m) * Fraction(2) ** y.e)]
    ops = [(_ball_add, lambda p, q: p + q), (_ball_sub, lambda p, q: p - q),
           (_ball_mul, lambda p, q: p * q), (lambda u, v, n: _ball_pow_int(u, 3, n),
                                             lambda p, q: p ** 3)]
    if abs(y.m) > y.r:
        ops.append((_ball_div, lambda p, q: p / q))
    # exact operands give exact results: a product that drops only zero bits, a quotient by
    # itself, an exact 0 over any divisor
    short = Ball(x.m >> max(x.m.bit_length() - prec, 0), 0, x.e)  # at most prec bits
    assert _ball_ends(_ball_mul(short, Ball(1 << 400, 0, -7), prec)) == (
        (_ball_ends(short)[0] * 2 ** 393,) * 2)
    if y.m:
        assert _ball_ends(_ball_div(Ball(y.m, 0, y.e), Ball(y.m, 0, y.e), prec)) == (1, 1)
    if abs(y.m) > y.r:
        assert _ball_ends(_ball_div(Ball(0, 0, x.e), y, prec)) == (0, 0)
    for op, exact in ops:
        result = op(x, y, prec)
        lo, hi = _ball_ends(result)
        with precision(prec - 32):
            enc = result.enclosure()
        enc_lo, enc_hi = (Fraction((-1) ** sign * man) * Fraction(2) ** exp
                          for sign, man, exp, _ in (enc._lo, enc._hi))
        for p, q in points:
            assert lo <= exact(p, q) <= hi, (op, a, b)
            assert enc_lo <= exact(p, q) <= enc_hi, (op, a, b)


def test_a_ball_round_trips_a_thin_enclosure_and_refuses_a_zero_divisor():
    from thetacert.enclosure import Ball

    with precision(128):
        y = Enclosure("0.3")
        assert Ball.of(y).enclosure() == y
        quarter = (Ball.of(Enclosure(2)) / Ball.of(Enclosure(8))).enclosure()
        assert quarter.contains(0.25) and quarter.width < 2.0 ** -128
        with pytest.raises(DomainError):
            Ball.of(y) / Ball.of(Enclosure(-1, 1))


def _exact(b):
    """A Ball's ends and midpoint as mpf at the current mpmath precision."""
    return [mp.ldexp(m, b.e) for m in (b.m - b.r, b.m + b.r, b.m)]


@st.composite
def _kernel_balls(draw):
    """A ball around a dyadic midpoint in [-150, 150] with a radius from 0 to 1/2, or past it."""
    e = draw(st.integers(-320, -2))
    m = (draw(st.integers(-150, 150)) << -e) + draw(st.integers(-(1 << -e), 1 << -e))
    half = 1 << (-1 - e)
    r = draw(st.one_of(st.just(0), st.integers(0, 2 ** 40), st.integers(0, half),
                       st.integers(half + 1, 4 * half)))
    return m, r, e


@settings(max_examples=200, deadline=None)
@given(parts=_kernel_balls(),
       p=st.one_of(st.fractions(-4, 4, max_denominator=40).filter(lambda f: f.denominator > 1),
                   st.integers(-4, -1).map(Fraction)),
       prec=st.sampled_from([85, 160, 288]))
@example(parts=(4, 2, -2), p=Fraction(-2), prec=160)  # [1/2, 3/2]: its square's ball reaches 0
def test_ball_exp_log_and_powers_contain_the_exact_image(parts, p, prec):
    # one kernel call at the midpoint, plus the derivative bound, holds exp, log and y^p (p not
    # an integer: exp(p log y); p from -1 to -4 on any ball without 0: one inversion, then
    # squaring) at the ends and midpoint of radii up to 1/2 (wider ones take the Enclosure form);
    # log refuses a ball that reaches 0
    from thetacert.enclosure import Ball

    x = Ball(*parts)
    cases = [(Ball.exp, mp.exp)]
    power = (lambda b: b ** p.numerator if p.denominator == 1 else (b.log() * p).exp(),
             lambda v: v ** p.numerator if p.denominator == 1
             else v ** (mp.mpf(p.numerator) / p.denominator))
    if x.m > x.r:
        cases += [(Ball.log, mp.log), power]
    else:
        with precision(prec - 32), pytest.raises(DomainError):
            x.log()
        if p.denominator == 1 and -x.m > x.r:
            cases.append(power)
    for fn, exact in cases:
        with precision(prec - 32):
            result = fn(x)
        with mp.workprec(4 * prec):
            lo, hi, _ = _exact(result)
            for point in _exact(x):
                assert lo <= exact(point) <= hi, (fn, parts, p, prec)
