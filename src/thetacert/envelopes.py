"""Two-term exponential envelopes for (-1)^nu theta2^(nu) on [1, oo).

For nu in {0,1,2,3} the sandwich

    0 < _envelope_poly(nu)(y) < (-1)^nu theta2^(nu)(y) < _envelope_poly(nu, c_nu)(y)

holds with

    _envelope_poly(nu, c) = (2 pi^nu / 4^nu) (e^{-pi y/4} + (1 + c) 9^nu e^{-9 pi y/4})

(one ExpPoly form, which the envelope-product bracket of :mod:`thetacert.verifier` shares) and
the inflation constants c_0 = 0.00001, c_1 = 0.00003, c_2 = 0.00008, c_3 = 0.0003.  The lower
envelope (c = 0) is theta2's first two terms by construction: its keys, amplitude and powers are
read from `theta._THETA2`, the one statement of theta2's terms that `_theta2` sums.  With
amp = 2 (pi/4)^nu and the factor F = e^{9 pi y/4} 9^(-nu) sum_{k>=3} a(k)^nu e^{-pi a(k) y/4},
the middle minus the lower envelope is amp 9^nu e^{-9 pi y/4} F and the upper envelope minus the
middle amp 9^nu e^{-9 pi y/4} (c_nu - F), as the envelopes share their e^{-pi y/4} term: the
strict sandwich at y is exactly 0 < F < c_nu.  ``verify_sandwiches`` checks it on a grid, one
report per order, at the working precision: one series pass per point gives F for every order, a
sum of positive terms with no cancellation, and at y = 1 theta2 is also compared with the envelope
polys directly; each report's last check is that shared term.  The admissibility of the c_nu
is proved from the same statement, for every y >= 1, by two computed checks: every omitted
exponent a(k), k >= 3, exceeds a(2), so each term of F decreases in y; and F at y = 1, one
certified series pass, tail included, is below c_nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .certify import CertificationReport, Check
from .enclosure import DEFAULT_CONFIG, DomainError, Enclosure, EvalConfig, _below, as_enclosure
from .exppoly import ExpPoly
from . import theta
from .theta import _check_order, _quadratic_series, _theta2

__all__ = [
    "EnvelopeConstants",
    "PAPER_CONSTANTS",
    "verify_sandwiches",
    "admissibility_factor",
    "check_c_admissible",
    "log_grid",
]


@dataclass(frozen=True)
class EnvelopeConstants:
    """Inflation constants on the e^{-9 pi y/4} term of the upper envelopes."""

    c0: Fraction = Fraction(1, 100000)
    c1: Fraction = Fraction(3, 100000)
    c2: Fraction = Fraction(8, 100000)
    c3: Fraction = Fraction(3, 10000)

    def __post_init__(self):
        for c in self.as_tuple():
            if not c > 0:
                raise ValueError("envelope constants must be positive")

    def as_tuple(self) -> tuple[Fraction, ...]:
        return (self.c0, self.c1, self.c2, self.c3)

    def for_order(self, nu: int) -> Fraction:
        return self.as_tuple()[_check_order(nu)]


PAPER_CONSTANTS = EnvelopeConstants()


def _envelope_poly(nu: int, inflation=0) -> ExpPoly:
    """amp (a(1)^nu e^{-pi a(1) y/4} + (1 + inflation) a(2)^nu e^{-pi a(2) y/4}), theta2's
    terms 1 and 2 as `theta._THETA2` states them (a(1) = 1, a(2) = 9), amp = 2 pi^nu / 4^nu:
    rate pi/4, keys -a(1) and -a(2); inflation 0 is the lower envelope.  Call inside a
    precision scope."""
    terms, pi = theta._THETA2, Enclosure.pi()
    amp = terms.weight * pi ** _check_order(nu) / Enclosure(terms.scale ** -nu)
    a1, a2 = terms.a(1), terms.a(2)
    return ExpPoly({-a1: (amp * Enclosure(a1 ** nu),),
                    -a2: (amp * Enclosure(a2 ** nu) * (1 + Enclosure(inflation)),)},
                   pi * terms.scale)


def log_grid(lo: float, hi: float, count: int) -> list[Enclosure]:
    """count log-spaced point enclosures on [lo, hi]: lo and hi exactly, and the interior
    points strictly increasing between them, or ValueError where [lo, hi] is too narrow."""
    if count < 2:
        raise ValueError("need at least two grid points")
    llo, lhi = math.log(lo), math.log(hi)
    pts = [lo, *(math.exp(llo + (lhi - llo) * i / (count - 1)) for i in range(1, count - 1)), hi]
    if not all(a < b for a, b in zip(pts, pts[1:])):
        raise ValueError(f"[{lo!r}, {hi!r}] is too narrow for {count} log-spaced floats")
    return [Enclosure(x) for x in pts]  # floats convert exactly: width-0 points


def _sides(y: Enclosure, envelopes, cfg: EvalConfig) -> list[tuple]:
    """(lower, (-1)^nu theta2^(nu), upper) at y per (nu, lower, upper) envelope-poly triple, at
    the working precision: one theta2 pass, and one exponential that every envelope shares."""
    with cfg.scope():
        thetas, shared = _theta2(y, range(max(nu for nu, _, _ in envelopes) + 1), cfg), {}
        return [(lower.eval(y, cfg, shared), -thetas[nu] if nu % 2 else thetas[nu],
                 upper.eval(y, cfg, shared)) for nu, lower, upper in envelopes]


def verify_sandwiches(grid, orders, cfg: EvalConfig = DEFAULT_CONFIG) -> list[CertificationReport]:
    """Certify lower < (-1)^nu theta2^(nu) < upper strictly at each grid point, one report per
    order nu of `orders`, at the working precision: 0 < F < c_nu (module docstring) for every
    order from one series pass per point, and at y = 1 also 0 < lower < mid < upper by
    :func:`_sides`, which ties `_envelope_poly` to theta2; last, F's premise, that the envelopes'
    e^{-pi y/4} coefficients are equal.  An undecided point makes the report `inconclusive`; a
    disproof's detail gives lower, mid and upper there, evaluated only then."""
    orders = [_check_order(nu) for nu in orders]
    with cfg.scope():
        points = [as_enclosure(y) for y in grid]  # each checked by its excess pass
        envelopes = [(nu, _envelope_poly(nu), _envelope_poly(nu, PAPER_CONSTANTS.for_order(nu)))
                     for nu in orders]
    checks = [[] for _ in orders]
    for y in points if orders else ():
        factors = _admissibility_factors(y, orders, cfg)
        sides = _sides(y, envelopes, cfg) if y.lo == y.hi == 1 else None
        with cfg.scope():
            for i, (nu, factor) in enumerate(zip(orders, factors)):
                pairs = [(0, factor), (factor, PAPER_CONSTANTS.for_order(nu))]
                if sides:  # 0 < lower < mid < upper
                    low, mid, upp = sides[i]
                    pairs += [(0, low), (low, mid), (mid, upp)]
                outcomes = [_below(a, b) for a, b in pairs]
                if False in outcomes:  # a disproof needs the wrong ordering on whole enclosures
                    low, mid, upp = (sides or _sides(y, envelopes, cfg))[i]
                    verdict = False, f"lower={low!r} mid={mid!r} upper={upp!r}"
                elif None in outcomes:
                    verdict = None, f"undecided at {cfg.precision_bits} bits: factor={factor!r}"
                else:
                    verdict = True, "strict on both sides"
                checks[i].append(Check(f"sandwich at y={y.lo}", *verdict))
    first = -theta._THETA2.a(1)  # F's premise: upper = lower but for (1 + c) on e^{-9 pi y/4}
    for (_, lower, upper), out in zip(envelopes, checks):
        low, upp = lower.coefficient(first), upper.coefficient(first)
        out.append(Check("envelopes share the e^(-pi y/4) term", low == upp,
                         f"lower {low[0]!r}, upper {upp[0]!r}"))
    return [CertificationReport.chain(f"theta2-envelope-sandwich-nu{nu}", checks[i],
                                      interval=(points[0].lo, points[-1].hi))
            for i, nu in enumerate(orders) if points]


def _admissibility_factors(y, orders, cfg: EvalConfig) -> list[Enclosure]:
    """F = e^{pi a(2) y/4} a(2)^-nu sum_{k>=3} a(k)^nu e^{-pi a(k) y/4} for each order nu of
    `orders`, theta2's terms from the third over the envelopes' second, for a and the scale 1/4
    of `theta._THETA2`: one certified pass over a(k + 2) with offset a(2), tail included, for
    every order up to the largest, each divided by (-pi/4)^nu, then by a(2)^nu."""
    terms = theta._THETA2
    with cfg.scope():
        y, a2 = as_enclosure(y), terms.a(2)
        if not y.lo >= 1:
            raise DomainError(f"envelopes are only established for y >= 1, got {y!r}")
        span = range(min(orders), max(orders) + 1)
        excess = _quadratic_series("theta2 excess", y, lambda k: terms.a(k + 2), span, cfg,
                                   scale=terms.scale, a0=a2)
        rate = -(Enclosure.pi() * terms.scale)
        return [excess[nu - span.start] / rate ** nu / Enclosure(a2 ** nu) for nu in orders]


def admissibility_factor(nu: int, y, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """The factor F of order nu at y (:func:`_admissibility_factors`): the least admissible c_nu."""
    return _admissibility_factors(y, [_check_order(nu)], cfg)[0]


def check_c_admissible(nu: int, cfg: EvalConfig = DEFAULT_CONFIG) -> CertificationReport:
    """Certify that c_nu dominates theta2's omitted terms for every y >= 1, in two checks on
    theta2's own statement `theta._THETA2`:
      1. every omitted exponent a(k), k >= 3, exceeds a(2): a(3) - a(2) > 0, a(4) - a(3) > 0
         and a constant second difference >= 0 (a is quadratic, as the excess pass checks), so
         every term of :func:`admissibility_factor` decreases in y and the factor's supremum
         on y >= 1 is its value at y = 1;
      2. that value is strictly below c_nu.
    """
    c, a = PAPER_CONSTANTS.for_order(nu), theta._THETA2.a
    rise, step, bend = a(3) - a(2), a(4) - a(3), a(5) - 2 * a(4) + a(3)
    checks = [Check("excess terms decay", rise > 0 and step > 0 and bend >= 0,
                    f"a(3) - a(2) = {rise}, a(4) - a(3) = {step} and the constant second "
                    f"difference {bend}: a(k) > a(2) for every k >= 3")]
    with cfg.scope():
        factor = admissibility_factor(nu, Enclosure(1), cfg)
        checks.append(Check("factor below c at y=1", _below(factor, Enclosure(c)),
                            f"factor={factor!r}, c={float(c)}"))
    return CertificationReport.chain(f"c-admissibility-nu{nu}", checks)
