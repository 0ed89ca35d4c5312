"""Exact exponential-polynomial algebra and the coefficient-sign rule."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from thetacert import DegreeError, Enclosure, EvalConfig, ExpPoly, precision


def test_addition_merges_exponents():
    a = ExpPoly.exponential(-1, 2)
    b = ExpPoly.exponential(-1, 3) + ExpPoly.exponential(-9, 1)
    s = a + b
    assert s.exponents() == [-9, -1]
    (const,) = s.coefficient(-1)
    assert const.contains(5)


def test_product_adds_exponents_exactly():
    a = ExpPoly.exponential(-1, 2)
    b = ExpPoly.exponential(-9, 4)
    p = a * b
    assert p.exponents() == [-10]
    (const,) = p.coefficient(-10)
    assert const.contains(8)


def test_mul_y_promotes_constants():
    p = ExpPoly.exponential(-1, 7).mul_y()
    const, lin = p.coefficient(-1)
    assert lin.contains(7)
    assert const.contains(0)


def test_greek_bracket_degree_guard(monkeypatch):
    # linear envelopes (1 + nu) y e^{-pi y/4} make 2y^3 + 2y^4 in the five products (equal
    # ones would cancel exactly): the bracket derivation refuses them instead of collecting
    # wrong constants
    from thetacert import verifier

    monkeypatch.setattr(verifier, "_envelope_poly",
                        lambda nu, inflation=0: ExpPoly({-1: (0, 1 + nu)}))
    with pytest.raises(DegreeError):
        verifier.greek_bracket()


def test_linear_times_constant_is_allowed():
    lin = ExpPoly.exponential(-1, 3).mul_y()
    const = ExpPoly.exponential(-2, 5)
    p = lin * const
    b, a = p.coefficient(-3)
    assert a.contains(15)
    assert b.contains(0)


def test_eval_matches_direct_formula(cfg):
    # (2y + 3) e^{-pi y} + 5 e^{-2 pi y}  at y = 1.25, via exponent key -4/-8
    poly = ExpPoly({-4: (Enclosure(3), Enclosure(2)), -8: (Enclosure(5),)}, Enclosure.pi() / 4)
    y = Enclosure("1.25")
    got = poly.eval(y, cfg)
    with precision(256):
        pi = Enclosure.pi()
        direct = (2 * y + 3) * (-(pi * y)).exp() + 5 * (-(2 * pi * y)).exp()
        assert got.intersects(direct)


_KEYS = (-27, -19, -11, -9, -8, -3, -1, 0, 1, 2)


@pytest.mark.parametrize("bits", [128, 256, 1024])
@pytest.mark.parametrize("box", [False, True], ids=["point", "box"])
def test_eval_from_one_exponential_contains_mpmath_and_is_no_wider(bits, box):
    # every e^{k pi x/4} is an integer power of one exp: the sum contains a 4x-precision
    # mpmath value at each end of x (thin, or 1 % wide in [1, 100]) and is no wider than the
    # sum from one exp per key, handed in through `shared`
    cfg = EvalConfig(precision_bits=bits)
    coeffs = {k: (Fraction(3 + k, 7), Fraction(2 - 4 * (k % 2), 1 + abs(k))) for k in _KEYS}
    for y in (1.0, 1.37, 2.5, 9.9, 31.4, 77.7, 99.0):
        ends = (y, y * 1.01) if box else (y,)
        with precision(bits):
            poly = ExpPoly(coeffs, Enclosure.pi() / 4)
            x = Enclosure(*ends)
            got = poly.eval(x, cfg)
            per_key = poly.eval(x, cfg, {k: (k * poly.rate * x).exp() if k else 1 for k in _KEYS})
        with mp.workprec(4 * bits):
            mpq = lambda c: mp.mpf(c.numerator) / c.denominator  # noqa: E731
            for end in map(mp.mpf, ends):
                exact = sum((mpq(c0) + mpq(c1) * end) * mp.exp(k * mp.pi / 4 * end)
                            for k, (c0, c1) in coeffs.items())
                assert got.lo <= exact <= got.hi, (bits, y, box)
        with mp.workprec(16 * bits):
            assert got.hi - got.lo <= per_key.hi - per_key.lo, (bits, y, box)


def test_shift_multiplies_by_quarter_exponent(cfg):
    poly = ExpPoly.exponential(-3, 1, Enclosure.pi() / 4)
    shifted = poly.shift(27)
    assert shifted.exponents() == [24]
    y = Enclosure(1)
    with precision(256):
        pi = Enclosure.pi()
        assert shifted.eval(y, cfg).intersects((6 * pi).exp())


def test_scale_and_negate():
    p = (ExpPoly.exponential(-1, 2) + ExpPoly.exponential(-9, 4)).scale(-3)
    (c1,) = p.coefficient(-1)
    (c9,) = p.coefficient(-9)
    assert c1.contains(-6) and c9.contains(-12)
    q = -p
    (c1n,) = q.coefficient(-1)
    assert c1n.contains(6)


def test_sums_of_different_rates_do_not_combine():
    with pytest.raises(ValueError):
        ExpPoly.exponential(-1, 1, 2) + ExpPoly.exponential(-1, 1)


# -- the coefficient-sign rule ------------------------------------------------


def test_sign_from_positive_taylor_coefficients():
    # 4x^2 - 8x - 6 at x = 1 + sqrt 3 + u is 2 + 8 sqrt(3) u + 4 u^2: all positive
    from thetacert.exppoly import _taylor

    p = ExpPoly({0: (-6, -8, 4)})
    with precision(128):
        corner = 1 + Enclosure(3).sqrt()
        shifted = _taylor(p.coefficient(0), corner)
        assert all(c.intersects(v) for c, v in zip(shifted, (2, 8 * Enclosure(3).sqrt(), 4)))
        assert p.sign_from(corner, +1) is True
        assert p.sign_from(corner, -1) is False


def test_sign_from_is_sufficient_not_necessary():
    # (x - 2)^2 + 0.1 > 0 everywhere, but its coefficients at 0 change sign
    p = ExpPoly({0: (Fraction(41, 10), -4, 1)})
    with precision(128):
        assert p.sign_from(0, +1) is None


def test_sign_from_disproves_the_wrong_sign():
    # -1 - x is -3 at x = 2: a disproof of "> 0 from 2", a proof of "< 0 from 2"
    p = ExpPoly({0: (-1, -1)})
    with precision(128):
        assert p.sign_from(2, +1) is False
        assert p.sign_from(2, -1) is True


#: coefficients leaning positive, so that a fair share of draws (flipped by `sign`) pass
_coeff = st.integers(-4, 20)


@settings(max_examples=60, deadline=None)
@given(
    terms=st.dictionaries(st.integers(-3, 2), st.lists(_coeff, min_size=1, max_size=4),
                          min_size=1, max_size=3),
    corner=st.fractions(-2, 5, max_denominator=8),
    sign=st.sampled_from([1, -1]),
    offsets=st.lists(st.fractions(0, 20, max_denominator=16), min_size=1, max_size=5),
)
def test_sign_from_true_means_strictly_signed_past_the_corner(terms, corner, sign, offsets):
    poly = ExpPoly(terms).scale(sign)
    with precision(128):
        if poly.sign_from(corner, sign) is not True:
            return
        for u in [0, *offsets]:
            value = sign * poly.eval(Enclosure(corner + u))
            assert value.is_strictly_positive(), (terms, corner, u)


def _coefficient_rule_holds(poly, corner, sign):
    from thetacert.exppoly import _taylor

    signed = [[sign * c for c in _taylor(p, Enclosure(corner))] for p in poly.terms().values()]
    return (any(p[0].is_strictly_positive() for p in signed)
            and all(c.lo >= 0 for p in signed for c in p))


_poly = st.lists(st.integers(-20, 20), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(
    # p_0 of degree 1 or 2 sets the limit of sum/x^deg; the decaying keys -3..-1 come on top
    terms=st.builds(lambda p0, rest: {0: p0, **rest}, _poly.filter(lambda p: len(p) > 1),
                    st.dictionaries(st.integers(-3, -1), _poly, max_size=2)),
    corner=st.fractions(Fraction(1, 8), 5, max_denominator=8),
    sign=st.sampled_from([1, -1]),
    offsets=st.lists(st.fractions(0, 40, max_denominator=4), min_size=1, max_size=5),
)
def test_sign_from_past_the_corner_means_strictly_signed(terms, corner, sign, offsets):
    # decaying sums past a positive corner that the coefficient rule leaves open: True can
    # only come from the enclosure of sum/x^deg over all x >= corner, so every x >= corner
    # up to the far point 2^10 must have the sign
    poly = ExpPoly(terms)
    with precision(128):
        assume(not _coefficient_rule_holds(poly, corner, sign))
        if poly.sign_from(corner, sign) is not True:
            return
        for u in [0, *offsets, 2 ** 10]:
            value = sign * poly.eval(Enclosure(corner + u))
            assert value.is_strictly_positive(), (terms, corner, u)


def test_psi_numerators_run_on_exp_polys():
    # s = x, u = e^-x, v = 1 - u: int constants on the left, and N_1 = s (2v - s) exactly
    from thetacert.theta import _numerators
    from thetacert.verifier import _EXPPOLYS

    s = ExpPoly({0: (0, 1)})
    u = ExpPoly.exponential(-1)
    (n1,) = _numerators(s, 1 - u, u, (1,), _EXPPOLYS, 0)
    assert n1.exponents() == [-1, 0]
    assert n1.coefficient(0) == tuple(map(Enclosure, (0, 2, -1)))
    assert n1.coefficient(-1) == tuple(map(Enclosure, (0, -2, 0)))
    assert (2 * u).coefficient(-1) == (Enclosure(2),)
    assert (Fraction(1, 2) + u).coefficient(0) == (Enclosure(Fraction(1, 2)),)


def test_psi_numerators_are_one_derivation():
    # psi^(k) = u N_k/v^(k+1) with u = e^-s, v = 1 - u, so N_{k+1} = v(N_k' - N_k) - (k+1) u N_k:
    # every coefficient of the difference is exactly 0
    from thetacert.theta import _numerators
    from thetacert.verifier import _EXPPOLYS

    s, u = ExpPoly({0: (0, 1)}), ExpPoly.exponential(-1)
    v = 1 - u
    numerators = _numerators(s, v, u, range(4), _EXPPOLYS, 0)
    for k in range(3):  # N_1, N_2 and N_3 from the entry before
        n, following = numerators[k], numerators[k + 1]
        gap = following - (v * (n.derivative() - n) - (k + 1) * u * n)
        assert not gap.terms(), (k, gap)


def test_derivative_at_rate_pi_over_4_encloses_the_exact_coefficients():
    # d/dx of (3 + 2x) e^{-pi x/4} + 5 e^{-9 pi x/4}
    # = (2 - 3 pi/4 - (pi/2) x) e^{-pi x/4} - (45 pi/4) e^{-9 pi x/4}
    with precision(128):
        poly = ExpPoly({-1: (3, 2), -9: (5,)}, Enclosure.pi() / 4)
        d = poly.derivative()
    assert d.exponents() == [-9, -1]
    with mp.workdps(60):
        exact = {-1: (2 - 3 * mp.pi / 4, -mp.pi / 2), -9: (-45 * mp.pi / 4, 0)}
        for k, values in exact.items():
            for c, value in zip(d.coefficient(k), values):
                assert c.lo <= value <= c.hi and c.width < 1e-35, (k, c, value)


@pytest.mark.parametrize("p, q", [
    ({0: (1, 2, -3), -1: (4, 0, 5)}, {0: (0, 1), 1: (-2,), -2: (1, 1, 1)}),
    ({1: (0, 0, 0, 7)}, {-1: (3, -1)}),
])
def test_derivative_obeys_the_product_rule_exactly(p, q):
    p, q = ExpPoly(p), ExpPoly(q)
    gap = (p * q).derivative() - (p.derivative() * q + p * q.derivative())
    assert not gap.terms(), gap


def test_derivative_of_a_constant_is_zero():
    d = ExpPoly.exponential(0, 7).derivative()
    assert d.terms() == {}


def test_cancelled_coefficients_are_dropped():
    # x - 3 - 5e^{-x} with x^2 added and taken away keeps its degree and its proof from x = 4;
    # the zero sum is exact 0 and proves no sign
    a, x = ExpPoly({0: (-3, 1), -1: (-5,)}), ExpPoly({0: (0, 1)})
    b, zero = a + x * x - x * x, a - a
    assert b.degree == 1 and b.terms() == a.terms() and zero.terms() == {}
    with precision(128):
        assert a.sign_from(4, +1) is True and b.sign_from(4, +1) is True
        assert zero.eval(1).lo == 0 == zero.eval(1).hi and zero.sign_from(1, +1) is None
