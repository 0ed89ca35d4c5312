"""Exponent-family scanning: witnesses, specialization, soundness."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from thetacert import (
    Enclosure,
    EvalConfig,
    ExponentQuery,
    f_a_second,
    f_second,
    precision,
    scan_rows,
)
from thetacert.enclosure import _BALL_GUARD_BITS, Ball, Jet
from thetacert.scanner import _exponent, _f_a, find_witness_in_rows
from thetacert.verifier import _f

from conftest import WITNESS_21_VALUE, WITNESS_21_Y, assert_contains, mp_theta4, mp_scalar


def test_specialization_to_exponent_two(cfg):
    rng = random.Random(20240817)
    for _ in range(50):
        y = Enclosure(rng.uniform(0.1, 5.0))
        a = f_a_second(2, y, cfg)
        b = f_second(y, cfg)
        assert a.intersects(b)


def test_witness_found_at_21(cfg):
    query = ExponentQuery(a=Fraction(21, 10))
    witness = find_witness_in_rows(query, scan_rows(query, cfg))
    assert witness is not None
    assert witness.value.is_strictly_negative()
    # regression pin from the pre-build scan: the minimum sits at the left
    # edge of the default interval
    y = float(witness.y.mid)
    assert abs(y - WITNESS_21_Y) <= 0.1 * WITNESS_21_Y
    assert_contains(witness.value, WITNESS_21_VALUE, slack=1e-6)


def test_witness_sound_at_doubled_precision(cfg):
    query = ExponentQuery(a=Fraction(21, 10))
    witness = find_witness_in_rows(query, scan_rows(query, cfg))
    doubled = EvalConfig(precision_bits=2 * cfg.precision_bits)
    recheck = f_a_second(Fraction(21, 10), witness.y, doubled)
    assert recheck.is_strictly_negative()
    assert recheck.intersects(witness.value)


def test_no_witness_at_exponent_two(cfg):
    query = ExponentQuery(a=2)
    assert find_witness_in_rows(query, scan_rows(query, cfg)) is None


def test_witness_found_at_three(cfg):
    query = ExponentQuery(a=3)
    witness = find_witness_in_rows(query, scan_rows(query, cfg))
    assert witness is not None
    assert witness.value.is_strictly_negative()


def test_exponent_zero_matches_log_theta4_curvature(cfg):
    # a = 0: f_0 = theta4'/theta4, so f_0'' is the third y-derivative of
    # log theta4; cross-check by numerical differentiation of the oracle
    def log_theta4(y):
        return mp.log(mp_theta4(y))

    enc = f_a_second(0, Enclosure(1), cfg)
    oracle = mp_scalar(log_theta4, mp.mpf(1), 3, dps=50)
    with precision(256):
        assert abs(enc - Enclosure(oracle)).hi < 1e-12


def test_scan_rows_monotone_grid(cfg):
    query = ExponentQuery(a=Fraction(21, 10), interval=(0.05, 5.0), resolution=16)
    rows = scan_rows(query, cfg)
    assert len(rows) == 16
    ys = [float(y.lo) for y, _ in rows]
    assert ys == sorted(ys)
    assert any(enc.is_strictly_negative() for _, enc in rows)


def test_query_validation():
    with pytest.raises(ValueError):
        ExponentQuery(a=2, interval=(0, 1))
    with pytest.raises(ValueError):
        ExponentQuery(a=2, interval=(2, 1))
    with pytest.raises(ValueError):
        ExponentQuery(a=2, resolution=4)
    q = ExponentQuery(a="2.1")
    assert q.a == Fraction(21, 10)


def test_family_value_and_slope_compose(cfg):
    # f_a and f_a' at a = 2 reduce to f and f'
    from thetacert import f_eval, f_prime

    y = Enclosure("1.7")
    assert _f_a(2, y, 0, cfg).intersects(f_eval(y, cfg))
    assert _f_a(2, y, 1, cfg).intersects(f_prime(y, cfg))
    # and the a = 2.1 member's derivative ladder is consistent by finite differences
    h = mp.mpf(2) ** -20
    with precision(320):
        a = Fraction(21, 10)
        fd = (
            _f_a(a, y + Enclosure(h), 1, cfg) - _f_a(a, y - Enclosure(h), 1, cfg)
        ) / Enclosure(2 * h)
        assert abs(fd - f_a_second(a, y, cfg)).hi < 1e-9


@pytest.mark.parametrize("bits", [128, 256])
def test_each_entry_is_the_jet_products(bits):
    # the Jet product y^(a-2) (f, f', f'') on Enclosures is the reference: a box runs on it bit
    # for bit, a thin y on Balls, which must meet it and be no wider
    cfg = EvalConfig(precision_bits=bits)
    for a in ("1", "2", "2.1", "3.7"):
        r = Fraction(a) - 2
        for y in (Enclosure(0.013), Enclosure("0.5", "0.505"), Enclosure(2.5), Enclosure(12)):
            with cfg.scope():
                p = y ** r
                power = Jet(p, p * r / y, p * (r * (r - 1)) / (y * y))
                reference = tuple(power * Jet(*_f(y, range(3), cfg)))
            for order in range(3):
                value, what = _f_a(a, y, order, cfg), (a, y, order)
                if y.width > cfg.tol:
                    assert value == reference[order], what
                else:
                    assert value.intersects(reference[order]), what
                    assert value.width <= reference[order].width, what


@pytest.mark.parametrize("a", [3, Fraction(47, 20)], ids=["integer-r", "fractional-r"])
@pytest.mark.parametrize("kind", ["ball", "box"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_row_entry_is_the_jet_products_entry_bit_for_bit(cfg, a, kind, k):
    # _f_a forms one entry by the product rule, in the Jet product's operation order
    with cfg.scope():
        if kind == "ball":
            y = Ball.of(Enclosure("1.3"))
            r, _, r_ball, r_r1_ball = _exponent(a, cfg.precision_bits + _BALL_GUARD_BITS)
            p = y ** r if type(r) is int else (y.log() * r_ball).exp()
            r, r_r1 = r_ball, r_r1_ball
        else:
            y = Enclosure("0.8", "0.81")
            r = Fraction(a) - 2
            p, r_r1 = y ** r, r * (r - 1)
        expected = tuple(Jet(p, p * r / y, p * r_r1 / (y * y)) * Jet(*_f(y, range(k + 1), cfg)))[k]
    value = _f_a(a, y, k, cfg)
    assert type(value) is type(expected)
    if kind == "ball":
        assert (value.m, value.r, value.e) == (expected.m, expected.r, expected.e)
    else:
        assert value == expected
