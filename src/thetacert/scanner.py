"""Convexity scanning for the exponent family f_a(y) = y^a theta4'(y)/theta4(y).

Since f_a = y^(a-2) f with f the a = 2 member, f_a^(k) follows by the product rule from the
power's (p, p r/y, p r(r-1)/y^2), p = y^r, r = a - 2, and (f, f', f'') from the certified routes,
forming only the entry k asked for.  It runs on the type of y: a scan's points are thin, so a
row is one pass on Balls (y^r by one log and one exp, or exactly for an integer r, and one series
pass for f), rounded into an Enclosure once; a box runs on Enclosures.  At a = 2 the power is the
constant 1, so the family evaluator specializes exactly to the proven-convex member.

The search is one-sided by design: a returned :class:`Witness` carries a
strictly negative enclosure of f_a'' and rigorously disproves convexity at
that exponent, while an empty result proves nothing (the scan is a finite
grid, not a covering; a finer search is a larger ``resolution``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .certify import Witness
from .enclosure import (_BALL_GUARD_BITS, DEFAULT_CONFIG, Ball, Enclosure, EvalConfig,
                        _ball_const, _thin_ball, as_enclosure)
from .envelopes import log_grid
from .verifier import _f

__all__ = ["ExponentQuery", "f_a_second", "scan_rows", "find_witness_in_rows"]


@dataclass(frozen=True)
class ExponentQuery:
    """A scan request: exponent, search interval, grid resolution, and the grid, made once."""

    a: Fraction
    interval: tuple[float, float] = (0.05, 5.0)
    resolution: int = 48
    grid: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        lo, hi = self.interval
        if not (0 < lo < hi < math.inf):
            raise ValueError("scan interval must satisfy 0 < lo < hi < inf")
        if self.resolution < 8:
            raise ValueError("resolution must be at least 8")
        # raises when [lo, hi] is too narrow for the grid
        object.__setattr__(self, "grid", tuple(log_grid(lo, hi, self.resolution)))


@lru_cache(maxsize=64)
def _exponent(a, prec: int) -> tuple:
    """r = a - 2 (an int if integral) and r(r - 1), exact and as Balls at `prec` bits; cached."""
    r = Fraction(a) - 2
    r = r.numerator if r.denominator == 1 else r
    return r, r * (r - 1), _ball_const(r, prec), _ball_const(r * (r - 1), prec)


def _f_a(a, y, order: int, cfg: EvalConfig):
    """f_a^(order)(y), the entry `order` of the Jet product (p, p r/y, p r(r-1)/(y y)) * (f, f',
    f'') with its bits, formed alone by the product rule: Balls for a Ball y, an outward-rounded
    Enclosure of its Ball's entry for a thin Enclosure (width <= cfg.tol), Enclosures for a box."""
    with cfg.scope():
        if type(y) is not Ball and (ball := _thin_ball(y := as_enclosure(y), cfg)) is not None:
            return _f_a(a, ball, order, cfg).enclosure()
        r, r_r1, r_ball, r_r1_ball = _exponent(a, cfg.precision_bits + _BALL_GUARD_BITS)
        p = (y.log() * r_ball).exp() if type(y) is Ball and type(r) is not int else y ** r
        if type(y) is Ball:
            r, r_r1 = r_ball, r_r1_ball
        f = _f(y, range(order + 1), cfg)
        if order == 0:
            return p * f[0]
        p1 = p * r / y
        if order == 1:
            return p1 * f[0] + p * f[1]
        return p * r_r1 / (y * y) * f[0] + (p1 + p1) * f[1] + p * f[2]


def f_a_second(a, y, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """f_a''(y), the second derivative of the exponent-a family member."""
    return _f_a(a, y, 2, cfg)


def scan_rows(query: ExponentQuery, cfg: EvalConfig = DEFAULT_CONFIG):
    """(y, f_a''(y)) at the query's log-spaced grid points, y ascending."""
    return [(y, f_a_second(query.a, y, cfg)) for y in query.grid]


def find_witness_in_rows(query: ExponentQuery, rows) -> Witness | None:
    """The grid point of `rows` (from :func:`scan_rows` for the same query) with the most
    negative f_a'', as a :class:`Witness` if its enclosure is strictly negative.

    Soundness is asymmetric: a witness is a proof, None is just a failed
    search of the grid, which a larger ``resolution`` refines.
    """
    best_y, best_val = min(rows, key=lambda row: row[1].mid)
    if best_val.is_strictly_negative():
        return Witness(y=best_y, value=best_val, context=f"f_a'' at a={query.a}")
    return None
