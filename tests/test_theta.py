"""Theta series, product form, and the Lambert-type log-derivative sums."""

import functools
import random
from fractions import Fraction

import pytest
from mpmath import libmp, mp

from thetacert import (
    ConvergenceError,
    DomainError,
    Enclosure,
    EvalConfig,
    f_eval,
    f_prime,
    f_second,
    h_reciprocal,
    precision,
    theta2_series,
    theta4_eval,
)
from thetacert.enclosure import _to_raw_pair, current_precision
from thetacert.theta import (
    DERIVATIVE_ORDERS,
    _TABLED_INDICES,
    _geometric_tail,
    _lambert_sum,
    _quadratic_series,
    _theta2,
    _theta4,
    certified_sum,
    psi,
)

from conftest import (
    F_AT_1,
    F_AT_10,
    F_SECOND_AT_2,
    THETA2_AT_2,
    THETA4_AT_1,
    THETA4_AT_10,
    THETA4_AT_HALF,
    THETA4_DERIVS_AT_1,
    THETA2_DERIVS_AT_1,
    assert_contains,
    count_arithmetic,
    count_calls,
    mp_scalar,
    mp_theta4,
    q_series_derivatives,
    theta4_product,
    theta4_via_modular,
)


def test_theta4_at_1_matches_oracle(cfg):
    e = theta4_eval(1, 0, cfg)
    assert_contains(e, THETA4_AT_1)
    assert e.width < 1e-35


def test_theta4_large_argument(cfg):
    e = theta4_eval(10, 0, cfg)
    assert_contains(e, THETA4_AT_10)
    with precision(256):
        assert abs(e - Enclosure(1)).hi < 3e-13  # k = 0 term dominates


def test_theta4_derivative_signs_and_values(cfg):
    d1 = theta4_eval(1, 1, cfg)
    assert d1.is_strictly_positive()  # leading correction +2 pi e^{-pi y}
    for nu, oracle in THETA4_DERIVS_AT_1.items():
        assert_contains(theta4_eval(1, nu, cfg), oracle)


@pytest.mark.parametrize(
    "series",
    [
        lambda y, c: _theta4(y, range(0, 1), c)[0],
        lambda y, c: theta2_series(y, 0, c),
        lambda y, c: f_eval(y, c, route="lambert"),
        lambda y, c: f_prime(y, c, route="lambert"),
        lambda y, c: f_second(y, c, route="lambert"),
        q_series_derivatives,
    ],
    ids=["theta4", "theta2", "f", "f_prime", "f_second", "q_series"],
)
def test_theta4_domain_and_convergence_errors(cfg, series):
    with pytest.raises(DomainError):
        theta4_eval(Enclosure(-1, 1), 0, cfg)
    with pytest.raises(DomainError):
        _theta4(0, range(0, 1), cfg)[0]
    tiny = EvalConfig(precision_bits=128, max_terms=3)
    with pytest.raises(ConvergenceError):
        series(Enclosure("0.01"), tiny)


def test_theta4_symmetric_tail_is_negated_exactly():
    # the tail [-b, b] needs -b exactly: -b rounded to 53 bits puts the
    # lower end above theta4'(y) here, by a relative 8e-117
    y = mp.mpf("24.4375")
    e = theta4_eval(y, 1, EvalConfig(precision_bits=512))
    with mp.workprec(1536):
        ref = mp.mpf(0)
        for k in range(1, 8):  # the k = 8 term is below e^{-4900}
            ref += 2 * (-1) ** (k + 1) * mp.pi * k * k * mp.exp(-mp.pi * k * k * y)
        assert e.lo <= ref <= e.hi


@pytest.mark.parametrize("y", ["0.5", "1", "2", "5"])
def test_product_and_series_agree(cfg, y):
    a = theta4_eval(Enclosure(y), 0, cfg)
    b = theta4_product(Enclosure(y), cfg)
    assert a.intersects(b)
    with precision(256):
        assert (a.width + b.width) < mp.mpf(2) ** -90
    if y == "0.5":
        assert_contains(b, THETA4_AT_HALF)


def test_theta2_fixed_point(cfg):
    # the flip relation at its fixed point y = 1 forces theta2(1) = theta4(1)
    a = theta2_series(1, 0, cfg)
    b = theta4_eval(1, 0, cfg)
    assert a.intersects(b)
    assert_contains(a, THETA4_AT_1)


def test_theta2_derivative_sign_structure(cfg):
    for nu, oracle in THETA2_DERIVS_AT_1.items():
        e = theta2_series(1, nu, cfg)
        assert_contains(e, oracle)
        assert e.is_strictly_negative() if nu % 2 else e.is_strictly_positive()
    for y in (1, 2, 5, 11, 20):
        for nu in range(4):
            e = theta2_series(y, nu, cfg)
            signed = -e if nu % 2 else e
            assert signed.is_strictly_positive()


def test_theta2_two_term_hand_bound(cfg):
    # theta2(2) lies between its first term and first term + 1.001 * second
    e = theta2_series(2, 0, cfg)
    assert_contains(e, THETA2_AT_2)
    with precision(256):
        pi = Enclosure.pi()
        first = 2 * (-(pi / 2)).exp()
        second = 2 * (-(9 * pi / 2)).exp()
        assert first.hi < e.lo
        assert e.hi < (first + second * Enclosure("1.001")).lo


def test_f_lambert_matches_log_derivative(cfg):
    f1 = f_eval(1, cfg, route="lambert")
    assert_contains(f1, F_AT_1)
    for y in ("0.3", "1", "3"):
        direct = f_eval(Enclosure(y), cfg, route="lambert")
        with precision(256):
            ye = Enclosure(y)
            ratio = ye * ye * theta4_eval(ye, 1, cfg) / theta4_eval(ye, 0, cfg)
        assert direct.intersects(ratio)


def test_f_at_10_small_positive(cfg):
    e = f_eval(10, cfg, route="lambert")
    assert_contains(e, F_AT_10)
    assert e.is_strictly_positive()
    assert e.hi < 1e-10


def test_f_decreases_toward_zero(cfg):
    values = [f_eval(y, cfg, route="lambert") for y in (5, 10, 15, 20)]
    for v in values:
        assert v.is_strictly_positive()
    for a, b in zip(values, values[1:]):
        assert b.hi < a.lo


def test_f_second_positive_at_2(cfg):
    e = f_second(2, cfg, route="lambert")
    assert_contains(e, F_SECOND_AT_2)
    assert e.is_strictly_positive()


def test_f_limit_behavior_near_zero(cfg):
    # f(y) = pi/4 - y/2 - G(1/y) with G super-exponentially small, so the
    # gap to pi/4 at y = 0.01 is exactly the linear term 0.005...
    with precision(256):
        pi4 = Enclosure.pi() / 4
        at_001 = f_eval(Enclosure("0.01"), cfg)
        assert abs(at_001 - (pi4 - Enclosure("0.005"))).hi < 1e-30
        # ...and only at y = 0.001 does the value sit within 1e-3 of pi/4
        at_0001 = f_eval(Enclosure("0.001"), cfg)
        assert abs(at_0001 - pi4).hi < 1e-3


@pytest.mark.parametrize("nu", [0, 1, 2])
def test_theta4_finite_difference_ladder(cfg, nu):
    # central difference of order nu at y=1 vs the order nu+1 series
    h = mp.mpf(2) ** -20
    with precision(320):
        hi = Enclosure(1) + Enclosure(h)
        lo = Enclosure(1) - Enclosure(h)
        fd = (theta4_eval(hi, nu, cfg) - theta4_eval(lo, nu, cfg)) / Enclosure(2 * h)
        d = theta4_eval(1, nu + 1, cfg)
        err = abs(fd - d)
    third = abs(mp_scalar(mp_theta4, 1, nu + 3, dps=30))
    assert err.hi <= 10 * h ** 2 * max(third, mp.mpf(1))


def test_wide_box_evaluation_contains_point_values(cfg):
    box = Enclosure(1, 2)
    e = theta4_eval(box, 0, cfg)
    for y in ("1", "1.5", "2"):
        assert e.contains(theta4_eval(Enclosure(y), 0, cfg))
    fbox = f_second(box, cfg, route="lambert")
    assert fbox.contains(f_second(Enclosure("1.5"), cfg, route="lambert"))


def test_prime_lambert_against_finite_difference(cfg):
    # |central difference - derivative| <= h^2/6 * max|next-order derivative|,
    # with the crude bound taken from the independent jtheta oracle
    def f_scalar(y):
        return y ** 2 * mp.diff(mp_theta4, y) / mp_theta4(y)

    h = mp.mpf(2) ** -20
    with precision(320):
        for y in ("0.5", "1", "2"):
            ye = Enclosure(y)
            fd = (f_eval(ye + Enclosure(h), cfg, route="lambert") - f_eval(ye - Enclosure(h), cfg, route="lambert")) / Enclosure(2 * h)
            err1 = abs(fd - f_prime(ye, cfg, route="lambert")).hi
            fd2 = (
                f_prime(ye + Enclosure(h), cfg, route="lambert") - f_prime(ye - Enclosure(h), cfg, route="lambert")
            ) / Enclosure(2 * h)
            err2 = abs(fd2 - f_second(ye, cfg, route="lambert")).hi
            m3 = abs(mp_scalar(f_scalar, mp.mpf(y), 3, dps=30))
            m4 = abs(mp_scalar(f_scalar, mp.mpf(y), 4, dps=30))
            assert err1 <= 10 * h ** 2 * max(m3, mp.mpf(1))
            assert err2 <= 10 * h ** 2 * max(m4, mp.mpf(1))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_psi_contains_mpmath_oracle(cfg, order):
    # psi(s) = s^2/(e^s - 1) differentiated by mpmath at 4x the working
    # precision; s = 3.0861 sits next to the root of psi''
    def oracle(s):
        return s ** 2 / mp.expm1(s)

    dps = 4 * cfg.precision_bits * 3 // 10
    for s in ("0.1", "1", "3.0861", "pi", "10", "100"):
        with cfg.scope():
            box = Enclosure.pi() if s == "pi" else Enclosure(s)
        enc = psi(box, order, cfg)
        value = mp_scalar(oracle, mp.pi if s == "pi" else s, order, dps=dps)
        assert enc.lo <= value <= enc.hi, f"psi^({order})({s}) = {enc!r} misses {value}"


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_psi_small_s_contains_bernoulli_oracle(cfg, order):
    # psi(s) = sum_n B_n s^(n+1)/n!, differentiated termwise, at 4x the
    # working precision; the enclosure is sound but wide here (see `psi`)
    dps = 4 * cfg.precision_bits * 3 // 10
    for s in ("1e-10", "1e-30"):
        with mp.workdps(dps):
            x = mp.mpf(s)
            value = mp.fsum(
                mp.bernoulli(n) * mp.ff(n + 1, order) * x ** (n + 1 - order) / mp.factorial(n)
                for n in range(max(order - 1, 0), 40)
            )
        with cfg.scope():
            enc = psi(Enclosure(s), order, cfg)
        assert enc.lo <= value <= enc.hi, f"psi^({order})({s}) = {enc!r} misses {value}"


def _f_jtheta(y):
    """y^2 theta4'(y)/theta4(y) from mpmath's jtheta and the direct theta4' series."""
    dtheta4, k = mp.mpf(0), 1
    while True:
        term = 2 * (-1) ** (k + 1) * mp.pi * k * k * mp.exp(-mp.pi * k * k * y)
        dtheta4 += term
        if abs(term) < mp.eps * abs(dtheta4):
            return y ** 2 * dtheta4 / mp_theta4(y)
        k += 1


_ROUTE_RNG = random.Random(6)
_ROUTE_YS = [60.0 ** _ROUTE_RNG.random() for _ in range(40)]


@pytest.mark.parametrize(
    "order, fn",
    enumerate([f_eval, f_prime, f_second]),
    ids=["0-f_lambert", "1-f_prime_lambert", "2-f_second_lambert"],
)
def test_lambert_route_contains_jtheta_oracle(order, fn):
    # y log-uniform on [1, 60], both precisions, against an oracle that never
    # forms the Lambert term psi
    for y in _ROUTE_YS:
        value = mp_scalar(_f_jtheta, y, order, dps=160)
        for bits in (128, 256):
            enc = fn(Enclosure(y), EvalConfig(precision_bits=bits), route="lambert")
            with mp.workdps(160):
                slack = abs(value) * mp.mpf(10) ** -140
                assert enc.lo <= value + slack and value - slack <= enc.hi, (
                    f"order {order} at y = {y!r}, {bits} bits: {enc!r} misses {value}"
                )


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda cfg: theta4_via_modular(Enclosure("0.05"), 3, cfg),
        lambda cfg: h_reciprocal(Enclosure("1.5"), cfg),
    ],
    ids=["theta4_via_modular", "h_reciprocal"],
)
def test_several_theta2_orders_take_one_pass(cfg, monkeypatch, evaluate):
    # theta2 and its first three derivatives share one exp per term
    from thetacert import theta

    calls = []
    inner = theta.certified_sum

    def counting(what, *args, **kwargs):
        calls.append(what)
        return inner(what, *args, **kwargs)

    monkeypatch.setattr(theta, "certified_sum", counting)
    evaluate(cfg)
    assert calls == ["theta2_series"]


@pytest.mark.parametrize("orders", [(0, 2), (1, 3), (2, 1)])
def test_quadratic_series_rejects_non_consecutive_orders(cfg, orders):
    # each order after the first is the previous term times c a(n), so a gap would
    # return a lower derivative under a higher order's name
    from thetacert.theta import _theta4

    with pytest.raises(ValueError, match="consecutive"):
        _theta4(1, orders, cfg)
    assert_contains(_theta4(1, (1, 2), cfg)[1], THETA4_DERIVS_AT_1[2])


@pytest.mark.parametrize("y", [Enclosure("0.7"), Enclosure(3), Enclosure("0.7", "0.707"),
                               Enclosure(3, "3.03")],
                         ids=["thin-0.7", "thin-3", "box-0.7", "box-3"])
@pytest.mark.parametrize("a0", [1, 2])
def test_offset_pass_times_its_scale_meets_the_q_series(cfg, y, a0):
    # sum (-pi a_j)^r e^{-pi (a_j - a0) x} times e^{-pi a0 x} is Q^(r) without Q's leading 1;
    # a0 = a(1) = 2 takes the exact first term, a0 = 1 the exp of every term
    from thetacert.theta import _quadratic_series

    with cfg.scope():
        scaled = _quadratic_series("Q-series", y, lambda j: j * (j + 1), range(4), cfg, a0=a0)
        factor = (-(a0 * Enclosure.pi() * y)).exp()
        for r, (p, q) in enumerate(zip(scaled, q_series_derivatives(y, cfg))):
            assert (factor * p).intersects(q - (1 if r == 0 else 0)), r


# --- one exp per series pass ---


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("nu", [0, 1, 2, 3])
def test_theta2_at_small_y_takes_one_exp(monkeypatch, nu, bits):
    # about 1,500 terms, each from the running product E_n R_n
    cfg = EvalConfig(precision_bits=bits)
    calls = count_calls(monkeypatch, Enclosure, "exp")
    theta2_series(1e-5, nu, cfg)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "evaluate, exps",
    [
        (lambda cfg: _theta4(3, range(3), cfg), 1),
        (lambda cfg: q_series_derivatives(2, cfg), 1),
        (lambda cfg: _lambert_sum(Enclosure(1, "1.01"), range(3), cfg), 2),  # and m = 1 at s0
        (lambda cfg: _lambert_sum(Enclosure(30), range(3), cfg), 2),
    ],
    ids=["theta4", "q_series", "lambert-box", "lambert-thin-30"],
)
def test_a_series_pass_takes_one_exp(cfg, monkeypatch, evaluate, exps):
    calls = count_calls(monkeypatch, Enclosure, "exp")
    evaluate(cfg)
    assert len(calls) == exps


@pytest.mark.parametrize("y, exps", [(Enclosure(1, "1.01"), 2), (Enclosure("0.8", "0.807"), 2),
                                     (Enclosure(30), 2)], ids=["box", "overlap-box", "thin"])
def test_a_lambert_box_adds_one_exp_for_its_leading_term(cfg, monkeypatch, y, exps):
    # the leading term's exp at the midpoint, a thin y's own point; over the box it shares the
    # pass's u_1
    calls = count_calls(monkeypatch, Enclosure, "exp")
    f_second(y, cfg, route="lambert")
    assert len(calls) == exps


@pytest.mark.parametrize("evaluate, few, many", [
    (lambda y, cfg: _theta2(y, range(4), cfg), Enclosure(2), Enclosure("1e-3")),
    (lambda y, cfg: _lambert_sum(y, range(3), cfg), Enclosure(30), Enclosure("0.8", "0.808")),
], ids=["theta2", "lambert"])
def test_a_series_pass_makes_raw_results_once(cfg, monkeypatch, evaluate, few, many):
    # terms, gates, tails and partial sums stay raw: a pass makes as many Enclosures by
    # _from_mpi at a few terms as at dozens or hundreds
    from thetacert import theta

    steps, inner = [], theta.certified_sum

    def counting_steps(what, cfg, start, step, tail, signs, **kwargs):
        return inner(what, cfg, start, lambda k: steps.append(k) or step(k), tail, signs,
                     **kwargs)

    monkeypatch.setattr(theta, "certified_sum", counting_steps)
    made = count_calls(monkeypatch, Enclosure, "_from_mpi")
    counts, terms = [], []
    for y in (few, many):
        made.clear()
        steps.clear()
        evaluate(y, cfg)
        counts.append(len(made))
        terms.append(len(steps))
    assert terms[0] <= 8 and terms[1] >= 25, terms
    assert counts[0] == counts[1], counts


def test_a_lambert_pass_builds_enclosures_independent_of_its_terms(cfg, monkeypatch):
    # the step and the tails run on raw intervals: only the setup builds Enclosures,
    # whether the pass sums dozens of terms ([0.8, 0.808]) or two (y = 30)
    boxes = [Enclosure(1, "1.01"), Enclosure("0.8", "0.808"), Enclosure(30)]
    calls, inner = [], Enclosure.__init__

    def counting(self, *args):
        calls.append(args)
        inner(self, *args)

    monkeypatch.setattr(Enclosure, "__init__", counting)
    counts = []
    for box in boxes:
        calls.clear()
        _lambert_sum(box, range(2, 3), cfg)
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2], counts


# --- the raw-interval psi and Lambert steps against a reference copy of the numerators ---


#: N_k(s, v, u) with psi^(k)(s) = u N_k / v^(k+1), u = e^{-s}, v = 1 - u: a copy of
#: theta._numerators kept apart from it, in its grouping, as Enclosure expressions
_REFERENCE_NUMERATORS = (
    lambda s, v, u: s * s,
    lambda s, v, u: s * (2 * v - s),
    lambda s, v, u: 2 * v * v - 4 * s * v + s * s * (1 + u),
    lambda s, v, u: -6 + 6 * s - s * s + u * (12 - 4 * s * s) - u * u * (6 + 6 * s + s * s),
)


def _reference_psi(s, u, k):
    """psi^(k)(s) from the reference numerators in Enclosure arithmetic."""
    v = 1 - u
    return u * _REFERENCE_NUMERATORS[k](s, v, u) / v ** (k + 1)


def _psi_arguments(pi):
    """Thin s and 1 %-wide boxes with s in [0.8 pi, 60], from float endpoints, and pi at the
    working precision (Enclosure.pi carries guard bits, which the exact 4s would keep)."""
    rng = random.Random(23)
    low = float(0.8 * mp.pi)
    starts = [low, 60 / 1.01] + [low * (60 / 1.01 / low) ** rng.random() for _ in range(6)]
    return [Enclosure(a) for a in starts] + [Enclosure(a, a * 1.01) for a in starts] + [pi * 1]


@pytest.mark.parametrize("bits", [128, 256])
def test_raw_psi_matches_the_reference_numerators(bits):
    cfg = EvalConfig(precision_bits=bits)
    with cfg.scope():
        for s in _psi_arguments(Enclosure.pi()):
            for k in DERIVATIVE_ORDERS:
                assert psi(s, k, cfg) == _reference_psi(s, (-s).exp(), k), (s, k)


@pytest.mark.parametrize("orders", [range(3), range(1), range(1, 2), range(2, 3), range(1, 3)],
                         ids=str)
@pytest.mark.parametrize("bits", [128, 256])
def test_raw_lambert_terms_match_the_reference_numerators(monkeypatch, bits, orders):
    # the kernel's first three terms, m = 2, 3, 4 (m = 1 is the lead): the odd and even weights,
    # and w_m/m both exact and rounded
    from thetacert import theta

    steps = []

    def first_terms(what, cfg, start, step, tail, signs, gate_divisor=1):
        steps[:] = [[Enclosure._from_mpi(t) for t in step(n)[0]] for n in (1, 2, 3)]
        return [Enclosure._from_mpi(s) for s in start]

    monkeypatch.setattr(theta, "certified_sum", first_terms)
    cfg = EvalConfig(precision_bits=bits)
    with cfg.scope():
        pi = Enclosure.pi()
        for s in _psi_arguments(pi):
            y = s / pi
            piy = pi * y
            r = u = (-piy).exp()
            _lambert_sum(y, orders, cfg)
            for m in range(1, _LAMBERT_FIRST_TERM + 3):
                u = u * r if m > 1 else u
                for k, term in zip(orders, steps[m - _LAMBERT_FIRST_TERM] if m > 1 else ()):
                    weight = Enclosure(Fraction((2 if m % 2 else 1) * m ** k, m))
                    assert term == weight * pi ** (k - 1) * _reference_psi(m * piy, u, k), (y, m, k)


#: the term m at which a Lambert pass starts the kernel: every pass takes m = 1 apart
_LAMBERT_FIRST_TERM = 2


# --- the leading Lambert term on a box: natural form met with the mean-value form ---


def _leading_lambert_terms(monkeypatch, y, orders, cfg):
    """The m = 1 terms of a Lambert box pass: the kernel from m = 2 stubbed to its zero starts,
    to which the pass adds them exactly."""
    from thetacert import theta

    monkeypatch.setattr(theta, "certified_sum", lambda what, cfg, start, *args, **kw: [
        Enclosure._from_mpi(s) for s in start])
    return _lambert_sum(y, orders, cfg)


def _natural_leading(y, k):
    """The pass's m = 1 term 2 pi^(k-1) psi^(k)(pi y) in its natural form."""
    pi = Enclosure.pi()
    return 2 * pi ** (k - 1) * psi(pi * y, k, EvalConfig(precision_bits=current_precision()))


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("lo, hi", [("0.8", "0.807"), ("1", "1.01"), ("1.4", "1.414"), ("3", "3.03"),
                                    ("12", "12.6")])
def test_leading_lambert_term_lies_inside_its_natural_form(monkeypatch, bits, lo, hi):
    cfg = EvalConfig(precision_bits=bits)
    with cfg.scope():
        y = Enclosure(lo, hi)
        for orders in (range(3), range(1), range(1, 2), range(2, 3)):
            for k, lead in zip(orders, _leading_lambert_terms(monkeypatch, y, orders, cfg)):
                natural = _natural_leading(y, k)
                assert natural.contains(lead), (orders, k)
                if lo == "0.8":  # 6x narrower in every order
                    assert lead.width * 4 <= natural.width, (k, lead, natural)


def test_a_lambert_box_contains_its_thin_ends_and_midpoint(cfg):
    with cfg.scope():
        for y in (Enclosure("0.8", "0.807"), Enclosure(1, "1.01"), Enclosure(5, "5.05")):
            box = _lambert_sum(y, range(3), cfg)
            for point in (y.lo, y.mid, y.hi):
                for k, thin in enumerate(_lambert_sum(Enclosure(point), range(3), cfg)):
                    assert box[k].contains(thin), (y, point, k)


@pytest.mark.parametrize("orders", [range(4), range(3, 4)], ids=str)
def test_lambert_sum_rejects_orders_past_its_tail_bound(cfg, orders):
    # the tail bound takes |N_k| <= 2(1+s)^2, which the triangle inequality gives for k <= 2
    with pytest.raises(ValueError, match="at most 2"):
        _lambert_sum(Enclosure(2), orders, cfg)


def test_v_containing_zero_raises_domain_error():
    # at s = 1e-45 the enclosure of e^-s reaches past 1, so v = 1 - e^-s contains 0; without
    # the check psi would return [-inf, inf] and the sum would run into its term cap
    with pytest.raises(DomainError):
        psi(Enclosure("1e-45"), 2)
    with pytest.raises(DomainError):
        _lambert_sum(Enclosure("1e-45"), range(1), EvalConfig(max_terms=50))


def test_quadratic_series_rejects_non_quadratic_exponents(cfg):
    # E_{n+1} = E_n R_n, R_{n+1} = R_n D needs the constant second difference D
    with cfg.scope(), pytest.raises(ValueError, match="quadratic"):
        _quadratic_series("cubic", Enclosure(1), lambda k: k ** 3, range(1), cfg)


def _raw(x: Enclosure) -> tuple:
    """The raw libmp pair of an Enclosure, as the kernel takes its values."""
    return x._lo, x._hi


def _halving_sum(y, cfg, attempts):
    """certified_sum of y 2^-k over k >= 1 (exactly y), one-signed, whose tail bound raises
    ConvergenceError below term 103 whatever y is; `attempts` records each tail call."""
    def step(k):
        term = _raw(y / Enclosure(2) ** k)
        return [term], term

    def tail(k):
        attempts.append(k)
        if k < 103:
            raise ConvergenceError("tail not certified yet")
        return [_raw(y / Enclosure(2) ** k)]

    with cfg.scope():
        return certified_sum("halving", cfg, [_raw(Enclosure(0))], step, tail, [+1])[0]


def test_a_raising_tail_stops_the_near_end(cfg):
    # the first tail attempt raises: the near-zero end stops there, for a box
    # no later than for any of its points
    box_attempts = []
    box = _halving_sum(Enclosure(1, 2), cfg, box_attempts)
    assert box_attempts[0] < 103 <= box_attempts[-1]
    for y in (1, "1.5", 2):
        attempts = []
        point = _halving_sum(Enclosure(y), cfg, attempts)
        assert attempts[0] < 103
        assert point.contains(Enclosure(y))
        assert box.contains(point), f"box {box!r} misses the point {y}: {point!r}"


# --- the raw-interval tails and partial sums against their Enclosure forms ---


def _reference_geometric_tail(first, ratio):
    """first * (1 + r + r^2 + ...) in Enclosure arithmetic: first / (1 - r), r below 1."""
    one = Enclosure(1)
    if not (one - ratio).is_strictly_positive():
        raise ConvergenceError("tail ratio not certified below 1")
    return first / (one - ratio)


def _reference_quadratic_tails(y, a, orders, n, scale=1, weight=1, a0=0):
    """The _quadratic_series tail bounds past term n in Enclosure arithmetic: E_{n+1} and
    R_{n+1} from the running products at 32 more bits, then the geometric tail of
    w E_{n+1} (pi a(n+1) s)^R at the top order R with ratio (a(n+2)/a(n+1))^R R_{n+1}, and
    each order r's bound as that one over (pi a(n+1) s)^(R - r)."""
    pi, s, w = Enclosure.pi(), Enclosure(scale), Enclosure(weight)
    with precision(current_precision() + 32):
        q = (-(Enclosure.pi() * (y * s))).exp()
        e, ratio, d = q ** (a(1) - a0), q ** (a(2) - a(1)), q ** (a(3) - 2 * a(2) + a(1))
        for _ in range(n):
            e, ratio = e * ratio, ratio * d
    b1, b2 = a(n + 1), a(n + 2)
    ca, top = pi * b1 * s, orders[-1]
    bound = _reference_geometric_tail(w * e * ca ** top, Enclosure(Fraction(b2, b1)) ** top * ratio)
    return [bound / ca ** (top - r) for r in orders]


def _reference_lambert_tails(y, orders, n):
    """The _lambert_sum tail bounds past term n in Enclosure arithmetic (see its tail)."""
    pi = Enclosure.pi()
    piy = pi * y
    r = (-piy).exp()
    rn = r ** (n + 1)
    d = _reference_geometric_tail(Enclosure(1), rn)
    spread = (1 + piy) ** 2
    return [_reference_geometric_tail(4 * pi ** (k - 1) * d ** (k + 1) * spread
                                      * Enclosure((n + 1) ** (k + 1)) * rn,
                                      Enclosure(Fraction(n + 2, n + 1)) ** (k + 1) * r)
            for k in orders]


def _outcome(evaluate):
    try:
        return evaluate()
    except ConvergenceError:
        return ConvergenceError


_TAIL_YS = [Enclosure(lo) for lo in ("0.05", "0.7", "3", "30")] + [
    Enclosure(lo, hi) for lo, hi in (("0.05", "0.0505"), ("0.7", "0.707"), ("3", "3.03"),
                                     ("30", "30.3"))]
_TAIL_SERIES = {
    "theta4": (lambda y, cfg: _theta4(y, range(4), cfg),
               lambda y, n: _reference_quadratic_tails(y, lambda k: k * k, range(4), n,
                                                       weight=2)),
    "theta2": (lambda y, cfg: _theta2(y, range(4), cfg),
               lambda y, n: _reference_quadratic_tails(y, lambda k: (2 * k - 1) ** 2, range(4),
                                                       n, scale=Fraction(1, 4), weight=2)),
    "q_series_offset": (
        lambda y, cfg: _quadratic_series("Q-series", y, lambda j: j * (j + 1), range(4), cfg,
                                         a0=2),
        lambda y, n: _reference_quadratic_tails(y, lambda j: j * (j + 1), range(4), n, a0=2)),
    "lambert": (lambda y, cfg: _lambert_sum(y, range(3), cfg),
                lambda y, n: _reference_lambert_tails(y, range(3), n + _LAMBERT_FIRST_TERM - 1)),
}


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("series", list(_TAIL_SERIES))
def test_raw_tails_match_their_enclosure_forms(monkeypatch, series, bits):
    # the tail bounds right after the kernel's steps 1, 2 and 6 (past terms m = 1, 2 and 6, and
    # m = 2, 3 and 7 on a Lambert pass), endpoint for endpoint, or both raising ConvergenceError
    # where a ratio is not below 1 (every series at y = 0.05, early on)
    from thetacert import theta

    evaluate, reference = _TAIL_SERIES[series]
    cfg = EvalConfig(precision_bits=bits)
    raised = 0
    for n in (1, 2, 6):
        def tails_after_n(what, cfg, start, step, tail, signs, **_):
            for k in range(1, n + 1):
                step(k)
            tails.append([Enclosure._from_mpi(b) for b in tail(n)])
            return [Enclosure._from_mpi(s) for s in start]

        def recorded_tails():
            evaluate(y, cfg)
            return tails.pop()

        tails = []
        monkeypatch.setattr(theta, "certified_sum", tails_after_n)
        for y in _TAIL_YS:
            with cfg.scope():
                got, want = _outcome(recorded_tails), _outcome(lambda: reference(y, n))
            assert got == want, (series, y, n)
            raised += got is ConvergenceError
    assert 0 < raised < 3 * len(_TAIL_YS), raised


def _tails_after(n):
    """A stand-in for certified_sum that takes n steps, then returns the tail bounds past n."""
    def tails_after_n(what, cfg, start, step, tail, signs, **_):
        for k in range(1, n + 1):
            step(k)
        return [Enclosure._from_mpi(b) for b in tail(n)]
    return tails_after_n


#: a(n), scale, weight and offset a0 of the _TAIL_SERIES kernel calls
_TAIL_TERMS = {
    "theta4": (lambda k: k * k, 1, 2, 0),
    "theta2": (lambda k: (2 * k - 1) ** 2, Fraction(1, 4), 2, 0),
    "q_series_offset": (lambda j: j * (j + 1), 1, 1, 2),
}


def _omitted_terms(y, a, scale, weight, a0, n, prec):
    """sum_{m > n} weight (c a(m))^r e^{-c (a(m) - a0) y}, c = pi scale, for r = 0..3 at
    `prec` bits, summed term by term until the terms are decreasing and below 2^-prec of
    the order-3 sum."""
    with mp.workprec(prec):
        c, y = mp.pi * scale, mp.mpf(y)
        sums, last, m = [mp.mpf(0)] * 4, None, n + 1
        while True:
            ca = c * a(m)
            terms = [weight * ca ** r * mp.exp(-ca * y + c * a0 * y) for r in range(4)]
            sums = [s + t for s, t in zip(sums, terms)]
            if last is not None and terms[3] < last and terms[3] <= sums[3] * mp.mpf(2) ** -prec:
                return sums
            last, m = terms[3], m + 1


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("series", list(_TAIL_TERMS))
def test_quadratic_tail_bounds_hold_the_omitted_terms(monkeypatch, series, bits):
    # right after steps 1, 2 and 6, each order's bound holds the direct 4x-precision sum of
    # the omitted |terms| at y.lo, where those terms are largest on a box; where the bound
    # raises ConvergenceError there is nothing to hold
    from thetacert import theta

    evaluate = _TAIL_SERIES[series][0]
    cfg = EvalConfig(precision_bits=bits)
    checked = 0
    for n in (1, 2, 6):
        monkeypatch.setattr(theta, "certified_sum", _tails_after(n))
        for y in _TAIL_YS:
            with cfg.scope():
                bounds = _outcome(lambda: evaluate(y, cfg))
            if bounds is ConvergenceError:
                continue
            omitted = _omitted_terms(y.lo, *_TAIL_TERMS[series], n, 4 * bits)
            for r, (bound, direct) in enumerate(zip(bounds, omitted)):
                assert bound.hi >= direct, (series, y, n, r, mp.nstr(direct, 20))
            checked += 1
    assert checked >= 2 * len(_TAIL_YS), checked


def _psi_closed_forms(s):
    """psi, psi' and psi'' at s from s^2/D, D = e^s - 1, differentiated by hand: 2s/D - s^2 E/D^2
    and 2/D - 4sE/D^2 - s^2 E/D^2 + 2 s^2 E^2/D^3, E = e^s."""
    e = mp.exp(s)
    d = e - 1
    return (s * s / d, 2 * s / d - s * s * e / d ** 2,
            2 / d - 4 * s * e / d ** 2 - s * s * e / d ** 2 + 2 * s * s * e * e / d ** 3)


@functools.lru_cache
def _omitted_lambert_terms(y, n, prec):
    """sum_{m > n} w_m (m pi)^(k-1) |psi^(k)(m pi y)| for k = 0, 1, 2 at `prec` bits, summed
    term by term until the terms are decreasing and below 2^-prec of each sum."""
    with mp.workprec(prec):
        y, sums, last, m = mp.mpf(y), [mp.mpf(0)] * 3, None, n + 1
        while True:
            s = m * mp.pi * y
            terms = [(2 if m % 2 else 1) * (m * mp.pi) ** (k - 1) * abs(p)
                     for k, p in enumerate(_psi_closed_forms(s))]
            sums = [a + b for a, b in zip(sums, terms)]
            if (last is not None and all(a < b for a, b in zip(terms, last))
                    and all(a <= b * mp.mpf(2) ** -prec for a, b in zip(terms, sums))):
                return sums
            last, m = terms, m + 1


_LAMBERT_TAIL_YS = [Enclosure(lo) for lo in ("0.8", "1", "3", "30")] + [
    Enclosure(lo, hi) for lo, hi in (("0.8", "0.808"), ("1", "1.01"), ("3", "3.03"),
                                     ("30", "30.3"))]


@pytest.mark.parametrize("bits", [128, 256])
def test_lambert_tail_bounds_hold_the_omitted_terms(monkeypatch, bits):
    # right after the kernel's steps 1, 2 and 6 (past m = 2, 3 and 7), each order's bound holds
    # the direct 4x-precision sum of the omitted |terms| at both ends of y; no bound raises
    # ConvergenceError from y = 0.8 on
    from thetacert import theta

    cfg = EvalConfig(precision_bits=bits)
    for n in (1, 2, 6):
        def tails_after_n(what, cfg, start, step, tail, signs, **_):
            for k in range(1, n + 1):
                step(k)
            tails.append([Enclosure._from_mpi(b) for b in tail(n)])
            return [Enclosure._from_mpi(s) for s in start]

        tails = []
        monkeypatch.setattr(theta, "certified_sum", tails_after_n)
        for y in _LAMBERT_TAIL_YS:
            _lambert_sum(y, range(3), cfg)
            bounds = tails.pop()
            for end in (y.lo, y.hi):
                omitted = _omitted_lambert_terms(end, n + _LAMBERT_FIRST_TERM - 1, 4 * bits)
                for k, (bound, direct) in enumerate(zip(bounds, omitted)):
                    assert bound.hi >= direct, (y, n, k, end, mp.nstr(direct, 20))


def test_a_tail_attempt_takes_one_geometric_bound(cfg, monkeypatch):
    # the top order's geometric bound serves every lower order of a four-order pass
    from thetacert import theta

    monkeypatch.setattr(theta, "certified_sum", _tails_after(1))
    calls = count_calls(monkeypatch, theta, "_geometric_tail")
    assert len(_theta4(3, range(4), cfg)) == 4
    assert len(calls) == 1


@pytest.mark.parametrize("scale", [Fraction(1, 3), Fraction(3, 4), 3, 0, Fraction(-1, 4)],
                         ids=["1/3", "3/4", "3", "0", "-1/4"])
def test_quadratic_series_rejects_a_scale_that_is_not_a_power_of_two(cfg, scale):
    # c = pi * scale is pi's endpoints shifted, exact only for a scale 2^k
    with cfg.scope(), pytest.raises(ValueError, match="power of two"):
        _quadratic_series("theta2", Enclosure(1), lambda k: (2 * k - 1) ** 2, range(2), cfg,
                          scale=scale)


@pytest.mark.parametrize("weight", [3, 6, 0])
def test_quadratic_series_rejects_a_weight_that_is_not_a_power_of_two(cfg, weight):
    # a weight 2^j is applied to each term as an exact shift, not as an interval product
    with cfg.scope(), pytest.raises(ValueError, match="weight must be a power of two"):
        _quadratic_series("theta2", Enclosure(1), lambda k: (2 * k - 1) ** 2, range(2), cfg,
                          scale=Fraction(1, 4), weight=weight)


@pytest.mark.parametrize("ratio", [(1, 1), ("0.5", 1), ("0.5", 2), (2, 3)])
def test_geometric_tail_needs_a_ratio_below_one(ratio):
    with pytest.raises(ConvergenceError):
        r = Enclosure(*ratio)
        _geometric_tail((libmp.fone, libmp.fone), (r._lo, r._hi), 128)


def test_a_thin_quadratic_pass_does_enclosure_arithmetic_independent_of_its_terms(
        cfg, monkeypatch):
    # the partial sums and the tails run on raw intervals: only the setup does Enclosure
    # arithmetic, whether the offset Q-series pass of f's modular route at x = 1/y takes
    # two terms (x = 50) or five (x = 1.1)
    from thetacert import theta

    steps, inner = [], theta.certified_sum

    def counting_steps(what, cfg, start, step, tail, signs, **kwargs):
        return inner(what, cfg, start, lambda k: steps.append(k) or step(k), tail, signs,
                     **kwargs)

    monkeypatch.setattr(theta, "certified_sum", counting_steps)
    calls = count_arithmetic(monkeypatch)
    counts, terms = [], []
    for x in (50, "1.1"):
        calls.clear()
        steps.clear()
        with cfg.scope():
            _quadratic_series("Q-series", Enclosure(x), lambda j: j * (j + 1), range(4), cfg,
                              a0=2)
        counts.append(len(calls))
        terms.append(len(steps))
    assert terms == [2, 5]
    assert counts[0] == counts[1], counts


# --- the y-independent constants of the quadratic series, tabled per precision ---


def _fresh_constants(key, k):
    """Index k's constants for a _quadratic_series pass keyed (a(1), a(2), a(3), scale shift,
    precision, first order, top order), formed afresh by the pass's libmp operations."""
    a1, a2, a3, shift, prec, first, top = key

    def a(n):
        return a1 + (n - 1) * (a2 - a1) + (n - 1) * (n - 2) // 2 * (a3 - 2 * a2 + a1)

    with precision(prec):
        pi = Enclosure.pi()
    c = (libmp.mpf_shift(pi._lo, shift), libmp.mpf_shift(pi._hi, shift))
    ca = libmp.mpi_mul(c, _to_raw_pair(a(k), prec), prec)
    growth = _to_raw_pair(Fraction(a(k + 1), a(k)), prec)
    return (ca, libmp.mpi_pow_int(ca, first, prec), libmp.mpi_pow_int(ca, top, prec),
            libmp.mpi_pow_int(growth, top, prec),
            [libmp.mpi_pow_int(ca, top - r, prec) for r in range(first, top + 1)])


def test_tabled_series_constants_equal_fresh_ones(monkeypatch):
    # theta4, theta2 and the Q-series with and without its offset, thin and on boxes, several
    # order ranges, at 128 and 256 bits: every entry equals its fresh form endpoint for endpoint
    from thetacert import theta

    table = {}
    monkeypatch.setattr(theta, "_SERIES_CONSTANTS", table)
    for bits in (128, 256):
        cfg = EvalConfig(precision_bits=bits)
        for y in (Enclosure("0.3"), Enclosure(2), Enclosure("0.7", "0.707")):
            for orders in (range(4), range(2, 3), range(1)):
                _theta4(y, orders, cfg)
                _theta2(y, orders, cfg)
                with cfg.scope():
                    for a0 in (0, 2):
                        _quadratic_series("Q-series", y, lambda j: j * (j + 1), orders, cfg, a0=a0)
    assert {key[4] for key in table} == {128, 256}
    assert {key[:4] for key in table} == {(1, 4, 9, 0), (1, 9, 25, -2), (2, 6, 12, 0)}
    for key, entries in table.items():
        assert entries
        for k, entry in entries.items():
            assert entry == _fresh_constants(key, k), (key, k)


def test_the_constant_table_holds_no_index_past_its_cap(cfg, monkeypatch):
    # theta2 at y = 1e-5 takes about 1,500 terms; the table keeps only the first indices
    from thetacert import theta

    table = {}
    monkeypatch.setattr(theta, "_SERIES_CONSTANTS", table)
    theta2_series(Enclosure("1e-5"), 3, cfg)
    assert len(table) == 1
    assert all(len(v) <= _TABLED_INDICES and max(v) <= _TABLED_INDICES for v in table.values())
