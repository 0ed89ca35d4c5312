"""Two-term exponential envelopes for (-1)^nu theta2^(nu) on [1, oo).

For nu in {0,1,2,3} the sandwich

    0 < lower_envelope(y, nu) < (-1)^nu theta2^(nu)(y) < upper_envelope(y, nu)

holds with

    lower = (2 pi^nu / 4^nu) (e^{-pi y/4} + 9^nu e^{-9 pi y/4})
    upper = (2 pi^nu / 4^nu) (e^{-pi y/4} + (1 + c_nu) 9^nu e^{-9 pi y/4})

(one ExpPoly form, which the envelope-product bracket of
:mod:`thetacert.verifier` shares) and the inflation constants c_0 = 0.00001,
c_1 = 0.00003, c_2 = 0.00008, c_3 = 0.0003.  ``verify_sandwiches`` checks it on
a grid, one report per order, with the envelope polys built once per call and
one theta2 pass and one exponential e^{-pi y/4} per point for all orders.  The
admissibility of the c_nu is itself re-proved here, summing no series: the omitted
odd terms m >= 5 of the theta2 sum are a sub-sum of sum_{n>=25} n^nu e^{-pi n y/4}, as the
m^2 are distinct integers >= 25, and that sum is at most the explicit integral
int_24^oo t^nu e^{-pi t y/4} dt, its terms decreasing past 4 nu/pi < 24; the integral's
closed form gives the inflation factor e^{9 pi y/4} 9^(-nu) * integral, which must stay below
c_nu at y = 1 and decreases on all of y > 0 because every coefficient of it is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .certify import CertificationReport, Check
from .enclosure import DEFAULT_CONFIG, DomainError, Enclosure, EvalConfig, _below, as_enclosure
from .exppoly import ExpPoly
from .theta import _check_order, _theta2

__all__ = [
    "EnvelopeConstants",
    "PAPER_CONSTANTS",
    "lower_envelope",
    "upper_envelope",
    "verify_sandwiches",
    "tail_integral",
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
    """amp (e^{-pi y/4} + (1 + inflation) 9^nu e^{-9 pi y/4}), amp = 2 pi^nu / 4^nu: rate pi/4,
    keys -1 and -9; inflation 0 is the lower envelope.  Call inside a precision scope."""
    pi = Enclosure.pi()
    amp = 2 * pi ** _check_order(nu) / Enclosure(4 ** nu)
    return ExpPoly({-1: (amp,), -9: (amp * Enclosure(9 ** nu) * (1 + Enclosure(inflation)),)},
                   pi / 4)


def _envelope(y, nu: int, inflation, cfg: EvalConfig) -> Enclosure:
    with cfg.scope():
        return _envelope_poly(nu, inflation).eval(_check_domain(as_enclosure(y)), cfg)


def lower_envelope(y, nu: int, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """The two-term lower envelope of (-1)^nu theta2^(nu) on [1, oo)."""
    return _envelope(y, nu, 0, cfg)


def upper_envelope(y, nu: int, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """The inflated two-term upper envelope of (-1)^nu theta2^(nu) on [1, oo)."""
    return _envelope(y, nu, PAPER_CONSTANTS.for_order(nu), cfg)


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


#: the lower end of the tail integral, below every omitted theta2 exponent
_TAIL_START = 24
#: the omitted theta2 exponents a(k) = (2k + 3)^2 = 9 + 12k + 4k^2, k >= 1 (the odd squares
#: m^2 >= 25), as their coefficients of k^0, k^1, k^2
_OMITTED_EXPONENTS = (9, 12, 4)


def _tail_coefficients(nu: int) -> list[int]:
    """C_j = nu!/(nu-j)! T^(nu-j), j = 0..nu, T = _TAIL_START: the integration-by-parts
    coefficients of int_T^oo t^nu e^{-s t} dt = e^{-T s} sum_j C_j / s^(j+1)."""
    return [math.perm(nu, j) * _TAIL_START ** (nu - j) for j in range(nu + 1)]


def tail_integral(nu: int, y, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """Closed form of int_T^oo t^nu e^{-s t} dt with s = pi y / 4 and T = _TAIL_START = 24.

    Integration by parts gives e^{-T s} * sum_{j=0}^{nu} C_j / s^(j+1), C_j from
    :func:`_tail_coefficients`.
    """
    nu = _check_order(nu)
    with cfg.scope():
        y = _check_domain(as_enclosure(y))
        s = Enclosure.pi() * y / 4
        total = Enclosure(0)
        for j, coeff in enumerate(_tail_coefficients(nu)):
            total = total + Enclosure(coeff) / s ** (j + 1)
        return (-(_TAIL_START * s)).exp() * total


def admissibility_factor(nu: int, y, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """e^{9 pi y/4} 9^(-nu) * tail_integral(nu, y); must stay below c_nu."""
    with cfg.scope():
        y = _check_domain(as_enclosure(y))
        boost = (Enclosure(9) * Enclosure.pi() * y / 4).exp()
        return boost * tail_integral(nu, y, cfg) / Enclosure(9 ** nu)


def check_c_admissible(nu: int, cfg: EvalConfig = DEFAULT_CONFIG) -> CertificationReport:
    """Certify that c_nu dominates the envelope error for every y >= 1.

    Four computed steps, none of which sums a series:
      1. the omitted odd-m excess sum_{m>=5 odd} m^(2 nu) e^{-pi m^2 y/4} is a sub-sum of
         sum_{n>=25} n^nu e^{-pi n y/4} at every y, strictly smaller as 26 is no odd square:
         the exponents a(k) are strictly increasing integers > 24 once a(1) is, the first
         difference at k = 1 is positive and the second is a non-negative constant;
      2. t^nu e^{-pi t y/4} is non-increasing past 4 nu/(pi y) <= 4 nu/pi < 24 for y >= 1,
         so that sum is at most :func:`tail_integral`;
      3. the inflation factor at y = 1 is strictly below c_nu;
      4. the factor is 9^-nu e^{-15 pi y/4} sum_j base_j y^-(j+1) with
         base_j = C_j (4/pi)^(j+1), so it decreases on all of y > 0 once
         every base_j is positive, and y = 1 is the worst case.
    """
    c = PAPER_CONSTANTS.for_order(nu)
    c0, c1, c2 = _OMITTED_EXPONENTS
    # a(1), a(2) - a(1) and a(k + 2) - 2 a(k + 1) + a(k), which is constant as a is quadratic
    start, step, bend = c0 + c1 + c2, c1 + 3 * c2, 2 * c2
    checks = [Check("subset of the integer sum", start > _TAIL_START and step > 0 and bend >= 0,
                    f"a(k) = (2k + 3)^2 has a(1) = {start}, a(2) - a(1) = {step} and the constant "
                    f"second difference {bend}: distinct integers > {_TAIL_START}")]
    with cfg.scope():
        turn = Enclosure(4 * nu) / Enclosure.pi()
        checks.append(Check("monotone integrand", _below(turn, _TAIL_START),
                            f"t^nu e^(-pi t y/4) is non-increasing past 4 nu/pi = {turn!r}"))
        factor = admissibility_factor(nu, Enclosure(1), cfg)
        checks.append(Check("factor below c at y=1", _below(factor, Enclosure(c)),
                            f"factor={factor!r}, c={float(c)}"))
        bases = [Enclosure(coeff) * (4 / Enclosure.pi()) ** (j + 1)
                 for j, coeff in enumerate(_tail_coefficients(nu))]
    positive = {_below(0, b) for b in bases}  # every base_j > 0, three-valued
    checks.append(
        Check(
            "factor decreasing on y > 0",
            False if False in positive else None if None in positive else True,
            "factor = 9^-nu e^{-15 pi y/4} sum_j base_j y^-(j+1) with every base_j > 0: "
            f"{bases!r}",
        )
    )
    return CertificationReport.chain(f"c-admissibility-nu{nu}", checks)
