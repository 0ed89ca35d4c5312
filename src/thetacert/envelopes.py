"""Two-term exponential envelopes for (-1)^nu theta2^(nu) on [1, oo).

For nu in {0,1,2,3} the sandwich

    0 < _envelope_poly(nu)(y) < (-1)^nu theta2^(nu)(y) < _envelope_poly(nu, c_nu)(y)

holds with

    _envelope_poly(nu, c) = (2 pi^nu / 4^nu) (e^{-pi y/4} + (1 + c) 9^nu e^{-9 pi y/4})

(one ExpPoly form, which the envelope-product bracket of
:mod:`thetacert.verifier` shares) and the inflation constants c_0 = 0.00001,
c_1 = 0.00003, c_2 = 0.00008, c_3 = 0.0003.  The lower envelope (c = 0) is theta2's first two
terms by construction: its keys, amplitude and powers are read from `theta._THETA2`, the
one statement of theta2's terms that `_theta2` sums.  ``verify_sandwiches`` checks the
sandwich on a grid, one report per order, with the envelope polys built once per call and
one theta2 pass and one exponential e^{-pi y/4} per point for all orders.  The
admissibility of the c_nu is proved from the same statement, for every y >= 1, by two
computed checks: every omitted exponent a(k), k >= 3, exceeds a(2), so each term of the
inflation factor e^{9 pi y/4} 9^(-nu) sum_{k>=3} a(k)^nu e^{-pi a(k) y/4} decreases in y;
and that factor at y = 1, one certified series pass, tail included, is below c_nu.
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


def _check_domain(y: Enclosure) -> Enclosure:
    if not (y.lo >= 1):
        raise DomainError(f"envelopes are only established for y >= 1, got {y!r}")
    return y


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


def _sandwich_config(y_hi: float, cfg: EvalConfig) -> EvalConfig:
    """Precision/tolerance adequate for the sandwich margins at this point.

    The lower gap is the omitted m >= 5 theta2 term, relatively of size
    e^{-6 pi y}; deciding it needs about 6 pi y / ln 2 ~ 27.2 y bits and a
    tail tolerance well below e^{-25 pi y / 4} ~ 10^{-8.53 y}.
    """
    bits = max(cfg.precision_bits, int(27.3 * y_hi) + 96)
    decade = int(8.6 * y_hi) + 40
    return EvalConfig(
        precision_bits=bits, tail_tolerance=f"1e-{decade}", max_terms=cfg.max_terms
    )


def _sandwich_point(y: Enclosure, envelopes, cfg: EvalConfig):
    """(True / False / None (undecided), detail) for the strict sandwich at one point, per
    (nu, lower, upper) envelope-poly triple of `envelopes`: one theta2 pass over the orders at
    the :func:`_sandwich_config` precision, and one exponential that every envelope shares."""
    point_cfg = _sandwich_config(float(y.hi), cfg)
    with point_cfg.scope():
        thetas = _theta2(y, range(max((nu for nu, _, _ in envelopes), default=0) + 1), point_cfg)
        shared = {}  # e^{-pi y/4} and its powers, filled by the first envelope
        verdicts = []
        for nu, lower, upper in envelopes:
            mid = -thetas[nu] if nu % 2 == 1 else thetas[nu]
            low, upp = lower.eval(y, point_cfg, shared), upper.eval(y, point_cfg, shared)
            if low.is_strictly_positive() and low.hi < mid.lo and mid.hi < upp.lo:
                verdicts.append((True, "strict on both sides"))
            # a disproof needs the wrong ordering to hold on whole enclosures
            elif mid.hi < low.lo or upp.hi < mid.lo or low.hi <= 0:
                verdicts.append((False, f"lower={low!r} mid={mid!r} upper={upp!r}"))
            else:
                verdicts.append((None, f"enclosures overlap at {point_cfg.precision_bits} bits"))
    return verdicts


def verify_sandwiches(grid, orders, cfg: EvalConfig = DEFAULT_CONFIG) -> list[CertificationReport]:
    """Certify lower < (-1)^nu theta2^(nu) < upper strictly at each grid point, one report
    per order nu of `orders`; each grid point is evaluated once for all of them.

    The working precision scales with y (:func:`_sandwich_config`): the strict
    gaps shrink like e^{-6 pi y}, so a fixed precision would go inconclusive
    long before y = 100 even though the inequalities are comfortably true.
    Enclosures that still overlap at that precision produce an `inconclusive`
    report (distinct from a disproof, which records the offending point).
    """
    orders = [_check_order(nu) for nu in orders]
    with cfg.scope():
        points = [_check_domain(as_enclosure(y)) for y in grid]
    with _sandwich_config(max((float(y.hi) for y in points), default=1), cfg).scope():
        envelopes = [(nu, _envelope_poly(nu), _envelope_poly(nu, PAPER_CONSTANTS.for_order(nu)))
                     for nu in orders]
    per_point = [_sandwich_point(y, envelopes, cfg) for y in points]
    reports = []
    for nu, outcomes in zip(orders, zip(*per_point)):
        checks = [Check(f"sandwich at y={y.lo}", *o) for y, o in zip(points, outcomes)]
        reports.append(CertificationReport.chain(f"theta2-envelope-sandwich-nu{nu}", checks,
                                                 interval=(points[0].lo, points[-1].hi)))
    return reports


def admissibility_factor(nu: int, y, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """e^{pi a(2) y/4} a(2)^-nu sum_{k>=3} a(k)^nu e^{-pi a(k) y/4}, theta2's terms from the third
    over the envelopes' second, for a and the scale 1/4 of `theta._THETA2`: the least c_nu
    admissible at y.  One certified pass over a(k + 2) with offset a(2), tail included, divided
    by (-pi/4)^nu, then by a(2)^nu."""
    terms, nu = theta._THETA2, _check_order(nu)
    with cfg.scope():
        y, a2 = _check_domain(as_enclosure(y)), terms.a(2)
        (excess,) = _quadratic_series("theta2 excess", y, lambda k: terms.a(k + 2),
                                      range(nu, nu + 1), cfg, scale=terms.scale, a0=a2)
        return excess / (-(Enclosure.pi() * terms.scale)) ** nu / Enclosure(a2 ** nu)


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
