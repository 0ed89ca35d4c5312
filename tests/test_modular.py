"""The theta4 <-> theta2 flip: coefficient table, dispatch, consistency."""

import random
from fractions import Fraction

import mpmath.libmp
import pytest
from mpmath import mp

from thetacert import (
    Enclosure,
    EvalConfig,
    MODULAR_COEFFICIENTS,
    Status,
    certify_sign,
    precision,
    theta2_series,
    theta4_eval,
    verify_modular_identities,
)
from thetacert.enclosure import Jet
from thetacert.envelopes import log_grid
from thetacert.modular import _f_modular
from thetacert.theta import _quadratic_series, _theta4
from thetacert.verifier import _f, _f_jet, f_eval, f_prime, f_second

from conftest import (
    F_SECOND_AT_HALF,
    THETA4_AT_1,
    assert_contains,
    count_calls,
    mp_f_modular,
    mp_scalar,
    theta4_product,
    theta4_via_modular,
)


def test_modular_identities_take_no_log(cfg, monkeypatch):
    # the powers y^(-1/2 - nu - j) are square roots, so each sample's only exponentials are its
    # theta2 pass at 1/y and its theta4 pass at y
    calls, inner = [], {name: getattr(Enclosure, name) for name in ("exp", "log")}
    for name in inner:
        monkeypatch.setattr(Enclosure, name,
                            lambda self, name=name: calls.append(name) or inner[name](self))
    verify_modular_identities(("0.5", "2"), range(4), cfg)
    assert (calls.count("log"), calls.count("exp")) == (0, 18)


def test_modular_identities_form_each_power_once_per_sample(cfg, monkeypatch):
    # a sample's powers y^(-1/2 - nu - j) for nu <= 3 have 7 distinct exponents
    exponents, power = [], Enclosure.__pow__
    monkeypatch.setattr(Enclosure, "__pow__",
                        lambda self, p: exponents.append(Fraction(p)) or power(self, p))
    verify_modular_identities(("0.5", "2"), range(4), cfg)
    assert len([p for p in exponents if p.denominator == 2]) == 63


def test_coefficient_table_matches_independent_derivation():
    # re-derived by differentiating y^(-1/2) s(1/y) three times by hand;
    # the ladder below re-checks each row against the previous one
    assert MODULAR_COEFFICIENTS[0] == (1,)
    assert MODULAR_COEFFICIENTS[1] == (Fraction(-1, 2), Fraction(-1))
    assert MODULAR_COEFFICIENTS[2] == (Fraction(3, 4), Fraction(3), Fraction(1))
    assert MODULAR_COEFFICIENTS[3] == (
        Fraction(-15, 8),
        Fraction(-45, 4),
        Fraction(-15, 2),
        Fraction(-1),
    )
    # ladder: coefficients of order nu+1 from order nu by the product rule
    for nu in range(3):
        lower = MODULAR_COEFFICIENTS[nu]
        expect = []
        for j in range(len(lower) + 1):
            c = Fraction(0)
            if j < len(lower):
                c += lower[j] * (Fraction(-1, 2) - nu - j)  # d/dy of the power
            if j > 0:
                c += -lower[j - 1]  # chain rule through 1/y, power drops by 2
            expect.append(c)
        assert tuple(expect) == MODULAR_COEFFICIENTS[nu + 1]


def test_fixed_point(cfg):
    e = theta4_via_modular(1, 0, cfg)
    assert_contains(e, THETA4_AT_1)
    assert e.intersects(theta2_series(1, 0, cfg))


def test_small_argument_against_product_form(cfg):
    y = Enclosure("0.1")
    a = theta4_via_modular(y, 0, cfg)
    b = theta4_product(y, cfg)
    assert a.intersects(b)


@pytest.mark.parametrize("nu", [0, 1, 2, 3])
def test_modular_vs_series_at_1(cfg, nu):
    a = theta4_via_modular(1, nu, cfg)
    b = theta4_eval(1, nu, cfg)
    assert a.intersects(b)
    with precision(256):
        assert (a.width + b.width) < mp.mpf(2) ** -80


@pytest.mark.parametrize("nu", [0, 1, 2, 3])
def test_identity_report_certifies(cfg, nu):
    report = verify_modular_identities(("0.5", "2"), (nu,), cfg)[0]
    assert report.status is Status.CERTIFIED, report.summary()


def test_identity_detects_corrupted_coefficient(cfg, monkeypatch):
    # sign flip on the first entry
    monkeypatch.setitem(MODULAR_COEFFICIENTS, 1, (Fraction(1, 2), Fraction(-1)))
    report = verify_modular_identities(("0.5", "2"), (1,), cfg)[0]
    assert report.status is Status.FAILED


def test_public_dispatch_continuity(cfg):
    # either side of the 0.2 split must agree with the product form
    for y in ("0.15", "0.19", "0.21", "0.3"):
        e = theta4_eval(Enclosure(y), 0, cfg)
        assert e.intersects(theta4_product(Enclosure(y), cfg))


def test_q_route_f_values(cfg):
    assert_contains(f_second(Enclosure("0.5"), cfg, route="modular"), F_SECOND_AT_HALF)
    # deep into the small-y regime the Q-route keeps full relative precision
    e = f_second(Enclosure("0.05"), cfg, route="modular")
    assert e.is_strictly_positive()
    assert e.hi < 1e-40
    assert (e.width / e.hi) < 1e-30


def test_q_route_f_second_decides_the_whole_modular_range_in_one_box(cfg):
    # with e^{-2 pi x} factored out, f''/(x^3 e^{-2 pi x}) is about 8 pi^2 (pi x - 1) > 0
    # over all of x in [1, 20]; without it the box enclosure was [-1595, 74125]
    modular = lambda box, c: f_second(box, c, route="modular")
    assert modular(Enclosure("0.05", 1), cfg).is_strictly_positive()
    report = certify_sign(modular, ("0.05", 1), +1, cfg)
    assert report.status is Status.CERTIFIED and report.boxes_examined == 1


def test_q_route_against_jtheta_oracle(cfg):
    # f'(y) = -1/2 + x^2 (log theta2)''-parts at x = 1/y; compare with the
    # independent jtheta-based oracle where it is still accurate
    def f_scalar(y):
        def th4(t):
            return mp.jtheta(4, 0, mp.e ** (-mp.pi * t))

        return y ** 2 * mp.diff(th4, y) / th4(y)

    with precision(256):
        for y in ("0.2", "0.5", "0.8"):
            ye = Enclosure(y)
            for fn, order in ((f_eval, 0), (f_prime, 1), (f_second, 2)):
                enc = fn(ye, cfg, route="modular")
                oracle = mp_scalar(f_scalar, mp.mpf(y), order, dps=60)
                # the oracle's numerical differentiation is the accuracy floor
                assert abs(enc - Enclosure(oracle)).hi < 1e-12


def test_multi_order_identity_matches_single_order_reports(cfg):
    together = verify_modular_identities(("0.5", "2"), range(4), cfg)
    for nu, report in enumerate(together):
        alone = verify_modular_identities(("0.5", "2"), (nu,), cfg)[0]
        assert (report.name, report.status, report.interval, report.checks) == (
            alone.name, alone.status, alone.interval, alone.checks
        ), nu


def test_corrupted_row_fails_only_its_order(cfg, monkeypatch):
    monkeypatch.setitem(MODULAR_COEFFICIENTS, 1, (Fraction(1, 2), Fraction(-1)))
    together = verify_modular_identities(("0.5", "2"), range(4), cfg)
    assert [r.status for r in together] == [
        Status.CERTIFIED, Status.FAILED, Status.CERTIFIED, Status.CERTIFIED
    ]


@pytest.mark.parametrize("bits", [53, 64, 80])
def test_low_precision_identity_is_inconclusive_not_failed(bits):
    # at these precisions the two routes intersect but are too wide to confirm
    reports = verify_modular_identities(("0.5", "2"), range(4), EvalConfig(precision_bits=bits))
    assert [r.status for r in reports] == [Status.INCONCLUSIVE] * 4
    assert all(c.passed is not False for r in reports for c in r.checks)


@pytest.mark.parametrize("nu", [4, -1])
def test_identity_rejects_unknown_order(cfg, nu):
    with pytest.raises(ValueError):
        verify_modular_identities(("0.5", "2"), [nu], cfg)


# --- f on the modular route at thin y: the plain forms, no e^{-2 pi/y} scaling ---


@pytest.mark.parametrize("bits", [128, 256])
def test_thin_modular_f_contains_oracle_and_meets_the_box_form(bits):
    # thin y log-uniform on [1e-5, 1] through `auto`, and y = 2, 5, 20 forced onto the route;
    # each of f, f', f'' holds the 4x-precision oracle and meets the scaled form of a box
    # [y, y + 2^-99] (wider than tol = 2^-100)
    cfg = EvalConfig(precision_bits=bits)
    rng = random.Random(bits)
    points = [(10.0 ** (-5 * rng.random()), "auto") for _ in range(8)]
    for y, route in points + [(2, "modular"), (5, "modular"), (20, "modular")]:
        thin = _f(Enclosure(y), range(3), cfg, route)
        with cfg.scope():
            box = Enclosure(y, Fraction(y) + Fraction(1, 2 ** 99))
        assert box.width > cfg.tol
        on_box = _f(box, range(3), cfg, "modular")
        for k, (value, exact) in enumerate(zip(thin, mp_f_modular(y, 4 * bits))):
            what = f"order {k} at y = {y!r}, {bits} bits: {value!r}"
            assert value.lo <= exact <= value.hi, f"{what} misses {mp.nstr(exact, 30)}"
            assert value.intersects(on_box[k]), f"{what} and the box's {on_box[k]!r} are disjoint"


def test_thin_modular_f_takes_one_exponential(cfg, monkeypatch):
    # a thin y takes only the Q-series' q = e^{-pi x}, one kernel call on its Ball; a box takes
    # eps = e^{-2 pi x} as well, each guarded Enclosure exp two kernel calls
    exps = count_calls(monkeypatch, mpmath.libmp, "mpf_exp")
    for y in (Enclosure("0.3"), Enclosure(0.01), Enclosure(1)):
        exps.clear()
        _f_modular(y, range(3), cfg)
        assert len(exps) == 1, y
    exps.clear()
    _f_modular(Enclosure("0.3", "0.31"), range(3), cfg)
    assert len(exps) == 4


def _scaled_modular_f(y, cfg):
    """f, f', f'' at y by the scaled forms that a box takes, eps = e^{-2 pi x} factored out of
    the offset Q-series (module docstring), in plain Enclosure arithmetic."""
    with cfg.scope():
        x, pi = 1 / y, Enclosure.pi()
        eps = (-(2 * pi * x)).exp()
        p = _quadratic_series("Q-series", x, lambda j: j * (j + 1), range(4), cfg, a0=2)
        g, g1, g2 = Jet(*p[1:]) / Jet(1 + eps * p[0], eps * p[1], eps * p[2])
        return [pi / 4 - y / 2 - eps * g, x * x * eps * g1 - Enclosure("0.5"),
                x ** 3 * eps * (-2 * g1 - x * g2)]


@pytest.mark.parametrize("bits", [128, 256])
def test_thin_modular_f_is_no_wider_than_the_scaled_form(bits):
    # the plain forms' sums are eps in size, so their gate and tails go to tol 2^-m <= tol eps,
    # as the scaled sums of size 1 go to tol (to tol alone a 256-bit pass stops a term early:
    # f'' at y = 0.89 came out 1e-40 wide against 1e-58); x = 1/y takes 32 more bits, as the
    # plain f'' carries x's width through G' and G'' (up to 17 % wider at 128 bits without)
    cfg = EvalConfig(precision_bits=bits)
    for y in log_grid(0.01, 1.0, 201):
        for k, (plain, scaled) in enumerate(zip(_f(y, range(3), cfg), _scaled_modular_f(y, cfg))):
            assert plain.intersects(scaled), (k, y)
            assert plain.width <= scaled.width, (k, y, plain.width, scaled.width)


def _thin_f_on_enclosures(y, cfg):
    """f, f', f'' at a thin y by the thin routes' formulas in Enclosure arithmetic: the plain
    modular forms with x = 1/y to 32 more bits for y <= 1, the theta4 Jet above."""
    with cfg.scope():
        if y.hi > 1:
            return list(_f_jet(y, _theta4(y, range(4), cfg)))
        with precision(cfg.precision_bits + 32):
            x = 1 / y
        pi = Enclosure.pi()
        p = _quadratic_series("Q-series", x, lambda j: j * (j + 1), range(4), cfg, relative=True)
        g, g1, g2 = Jet(*p[1:]) / Jet(1 + p[0], *p[1:-1])
        return [pi / 4 - y / 2 - g, x * x * g1 - Enclosure("0.5"), x ** 3 * (-2 * g1 - x * g2)]


@pytest.mark.parametrize("bits", [128, 256])
def test_thin_f_on_balls_is_at_most_twice_as_wide_as_on_enclosures(bits):
    # the thin routes run on balls 32 bits above the working precision and round once
    cfg = EvalConfig(precision_bits=bits)
    for y in log_grid(1e-5, 8.0, 201):
        for k, (ball, enc) in enumerate(zip(_f(y, range(3), cfg), _thin_f_on_enclosures(y, cfg))):
            assert ball.intersects(enc), (k, y)
            assert ball.width <= 2 * enc.width, (k, y, ball.width, enc.width)
