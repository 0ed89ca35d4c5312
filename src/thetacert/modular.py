"""The transformation theta4(y) = y^(-1/2) theta2(1/y) and what it buys.

Two things live here:

* ``_theta4_flipped`` evaluates theta4 and its first three derivatives
  at small arguments by differentiating the transformation, with the
  coefficient table re-derived independently (see the unit tests for the
  finite-difference and cross-representation checks):

      nu=0:  (1)                       against y^(-1/2 - nu - j) theta2^(j)(1/y)
      nu=1:  (-1/2, -1)
      nu=2:  (3/4,  3,  1)
      nu=3:  (-15/8, -45/4, -15/2, -1)

* Cancellation-free small-y evaluators for f, f', f'', every requested
  order read off one Jet by ``_f_modular(y, orders)``, which
  ``verifier.f_eval``/``f_prime``/``f_second`` reach with ``route="modular"``
  (and with ``"auto"`` for y <= 1).  Writing
  theta2(x) = 2 e^{-pi x/4} Q(x) with Q(x) = 1 + sum_j e^{-pi j(j+1) x}
  and G = Q'/Q gives, for x = 1/y and eps = e^{-2 pi x},

      f(y)   = -y/2 + pi/4 - G(x)         = -y/2 + pi/4 - eps Gh
      f'(y)  = -1/2 + x^2 G'(x)           = -1/2 + x^2 eps Gh'
      f''(y) = -2 x^3 G'(x) - x^4 G''(x)  = x^3 eps (-2 Gh' - x Gh'')

  The constant -pi/4 part of (log theta2)' is subtracted exactly at the
  series level, so these forms keep full relative accuracy where the
  direct Lambert sums lose all significance to cancellation (f'' near 0
  is a ~1e-47-sized difference of O(1) quantities already at y = 0.05).
  eps is a box-only device.  It swings by orders of magnitude across a box,
  so a box factors it out: with P_r = e^{2 pi x} Q^(r), (Gh, Gh', Gh'') =
  (G, G', G'')/eps is the Jet (P1, P2, P3)/(1 + eps P0, eps P1, eps P2).
  -2 Gh' - x Gh'' is about 8 pi^2 (pi x - 1), so one box encloses f'' > 0 on
  all of [0.05, 1].  A thin y takes the plain Jet (P1, P2, P3)/(1 + P0, P1, P2)
  of P_r = Q^(r) - [r = 0], summed relative to their first term eps, with x to
  32 more bits: no exp for eps, no products by it, and no wider.

Both sum through theta's quadratic-exponent series, all their orders in one
pass: theta2^(j)(1/y) for j <= nu, and P_r with a(j) = j(j+1), offset 2 on a box.
``theta4_eval(y, nu)`` gives theta4^(nu), direct for y >= 0.2 and flipped below;
``verify_modular_identities`` cross-checks the table against the direct theta4
series, one report per order and one pass of each route per sample for all orders.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .certify import CertificationReport, Check
from .enclosure import (_BALL_HALF, _BALL_ONE, DEFAULT_CONFIG, Ball, DomainError, Enclosure,
                        EvalConfig, Jet, _thin_ball, as_enclosure)
from .envelopes import log_grid
from .theta import _check_order, _check_positive, _quadratic_series, _theta2, _theta4

__all__ = ["MODULAR_COEFFICIENTS", "theta4_eval", "verify_modular_identities"]

#: coefficient of y^(-1/2 - nu - j) * theta2^(j)(1/y) in theta4^(nu)(y)
MODULAR_COEFFICIENTS: dict[int, tuple[Fraction, ...]] = {
    0: (Fraction(1),),
    1: (Fraction(-1, 2), Fraction(-1)),
    2: (Fraction(3, 4), Fraction(3), Fraction(1)),
    3: (Fraction(-15, 8), Fraction(-45, 4), Fraction(-15, 2), Fraction(-1)),
}


def _theta4_flipped(y: Enclosure, orders: range, cfg: EvalConfig):
    """theta4^(nu)(y) = sum_j table[nu][j] y^(-1/2 - nu - j) theta2^(j)(1/y) for each nu of
    `orders`, from one theta2 pass at 1/y and each distinct half-integer power of y once (square
    roots, no log); the table is MODULAR_COEFFICIENTS at the call.  Call in a precision scope."""
    table = MODULAR_COEFFICIENTS
    flipped = _theta2(1 / y, range(max(len(table[nu]) for nu in orders)), cfg)
    power = cache(lambda k: y ** (Fraction(-1, 2) - k))
    return [sum((Enclosure(c) * power(nu + j) * flipped[j]
                 for j, c in enumerate(table[nu])), Enclosure(0)) for nu in orders]


def theta4_eval(y, nu: int = 0, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """Public theta4 evaluation: direct series for y >= 0.2, modular below.

    The direct series stays valid for any y > 0 but its term count grows
    like 1/y; the modular route maps y < 0.2 to arguments 1/y > 5 where a
    handful of terms suffice.
    """
    nu = _check_order(nu)
    with cfg.scope():
        y = _check_positive(as_enclosure(y), "theta4_eval")
        route = _theta4_flipped if y.hi * 5 < 1 else _theta4  # flipped below y = 0.2
        return route(y, range(nu, nu + 1), cfg)[0]


#: sample points and combined-width bound of the modular identity check
_IDENTITY_SAMPLES = 9
_IDENTITY_WIDTH = 2.0 ** -80


def verify_modular_identities(
    interval, orders, cfg: EvalConfig = DEFAULT_CONFIG
) -> list[CertificationReport]:
    """Certify, for each order of `orders`, that the modular and direct routes agree on
    sampled points; one report per order.

    At each of the log-spaced samples the two enclosures must intersect
    (they both contain the exact value, so disjointness proves a formula
    error) with combined width below 2^-80.  Overly wide enclosures yield
    `inconclusive`.  Each sample makes one theta2 pass at 1/y and one theta4
    pass at y for all orders.
    """
    orders = [_check_order(nu) for nu in orders]
    with cfg.scope():
        lo, hi = (as_enclosure(end) for end in interval)
        if not lo.is_strictly_positive():
            raise DomainError("modular identity check requires a positive interval")
        checks = [[] for _ in orders]
        for y in log_grid(float(lo.lo), float(hi.hi), _IDENTITY_SAMPLES):
            flips = _theta4_flipped(y, orders, cfg)
            directs = _theta4(y, range(max(orders) + 1), cfg)
            for nu, via_flip, order_checks in zip(orders, flips, checks):
                direct = directs[nu]
                if not via_flip.intersects(direct):
                    outcome, detail = False, f"modular={via_flip!r} direct={direct!r} are disjoint"
                elif via_flip.width + direct.width < _IDENTITY_WIDTH:
                    outcome, detail = True, ""
                else:
                    outcome, detail = None, "combined width too large"
                order_checks.append(Check(f"agreement at y={y.lo}", outcome, detail))
    return [CertificationReport.chain(f"modular-identity-nu{nu}", c, interval=(lo.lo, hi.hi))
            for nu, c in zip(orders, checks)]


def _f_modular(y, orders: range, cfg: EvalConfig) -> list:
    """f^(k)(y) for each order k of `orders` by the forms in the module docstring, all read off
    one Jet quotient at x = 1/y, from one pass over P_r for r <= max(orders) + 1: scaled on a
    box, plain on a thin y, which runs on Balls 32 bits above the working precision, so that x
    carries them into f''; 2 pi, pi/4 and y/2 by shifts.  A Ball y returns Balls; a thin
    Enclosure (width <= cfg.tol, as in verifier._f) its Ball's results, rounded outward once."""
    with cfg.scope():
        thin = type(y) is Ball
        y = _check_positive(y if thin else as_enclosure(y), "modular f series")
        if not thin and (ball := _thin_ball(y, cfg)) is not None:
            return [v.enclosure() for v in _f_modular(ball, orders, cfg)]
        pi, (one, half) = type(y).pi(), (_BALL_ONE, _BALL_HALF) if thin else (1, 0.5)
        x = one / y
        scaled = (lambda v: v) if thin else (-(pi._scaled(1) * x)).exp().__mul__  # v or eps v
        p = _quadratic_series("Q-series", x, lambda j: j * (j + 1), range(orders[-1] + 2), cfg,
                              a0=0 if thin else 2, relative=thin)
        g, g1, g2 = Jet(*p[1:]) / Jet(scaled(p[0]) + one, *map(scaled, p[1:-1]))
        forms = (lambda: pi._scaled(-2) - y._scaled(-1) - scaled(g),  # formed only when requested
                 lambda: scaled(x * x) * g1 - half,
                 lambda: scaled(x ** 3) * (-(g1 + g1) - x * g2))
        return [forms[k]() for k in orders]
