"""Directed-rounded interval ("enclosure") arithmetic.

An :class:`Enclosure` is a closed interval [lo, hi] of arbitrary-precision
reals that is guaranteed to contain the exact value it stands for.  Every
operation rounds outward at the current working precision, so containment
is preserved through arbitrary compositions.  The heavy lifting is done by
mpmath's ``libmp`` interval primitives (backed by gmpy2 when available);
this module adds precision scoping, domain checking and a small, explicit
operation set: +, -, *, /, exp, log, sqrt, rational powers of positive
enclosures, and pi.  :class:`Jet` carries a value with its first two
derivatives through products and quotients of Jets, so derivatives of a
quotient such as y^2 theta4'/theta4 come out of its arithmetic rather than
being differentiated by hand.  :class:`Ball` is the midpoint-radius ball on
Python integers that the thin series passes run on instead.

Working precision is scoped with :func:`precision`::

    with precision(256):
        x = Enclosure("0.1") + Enclosure(1, 2)

All values are immutable; operations are pure functions of their inputs
and the ambient precision, so enclosures can be shared freely between
threads.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath import libmp as _lm

__all__ = [
    "Enclosure",
    "Jet",
    "EvalConfig",
    "DEFAULT_CONFIG",
    "EnclosureError",
    "DomainError",
    "ConvergenceError",
    "precision",
    "current_precision",
    "as_enclosure",
]


class EnclosureError(ArithmeticError):
    """Base class for rigor-violating conditions."""


class DomainError(EnclosureError):
    """Input outside the mathematical domain of an operation."""


class ConvergenceError(EnclosureError):
    """A certified tail bound could not be brought below tolerance."""


_PRECISION: contextvars.ContextVar[int] = contextvars.ContextVar(
    "thetacert_precision_bits", default=128
)


def current_precision() -> int:
    """Working precision in bits used by enclosure operations."""
    return _PRECISION.get()


class precision:
    """Scope the working precision for enclosure arithmetic: ``with precision(bits): ...``
    (a class rather than a generator: every evaluation enters one, and this costs a fifth)."""

    __slots__ = ("bits", "_token")

    def __init__(self, bits: int):
        if bits < 53:
            raise ValueError("precision below 53 bits is not supported")
        self.bits = int(bits)

    def __enter__(self):
        self._token = _PRECISION.set(self.bits)

    def __exit__(self, *exc):
        _PRECISION.reset(self._token)


def _mpf(raw):
    return mp.make_mpf(raw)


def _to_raw_pair(value, prec):
    """Exact or outward-rounded raw endpoints for a scalar."""
    if type(value) is int or isinstance(value, int) and not isinstance(value, bool):  # commonest
        raw = _lm.from_int(value)
        return raw, raw
    if isinstance(value, Enclosure):
        return value._lo, value._hi
    if isinstance(value, bool):
        raise TypeError("bool is not a valid enclosure endpoint")
    if isinstance(value, float):
        raw = _lm.from_float(value)  # floats convert exactly
        return raw, raw
    if isinstance(value, Fraction):
        # 'f'/'c' round toward -oo/+oo; 'd'/'u' would round by magnitude and
        # invert the endpoints for negative values
        return (
            _lm.from_rational(value.numerator, value.denominator, prec, "f"),
            _lm.from_rational(value.numerator, value.denominator, prec, "c"),
        )
    if isinstance(value, str):
        return _lm.from_str(value, prec, "f"), _lm.from_str(value, prec, "c")
    if isinstance(value, mp.mpf):
        raw = value._mpf_
        return raw, raw
    raise TypeError(f"cannot build an enclosure endpoint from {type(value).__name__}")


_PI_CACHE: dict[int, tuple] = {}

# mpmath's elementary transcendental kernels (exp, log, pi) are accurate to
# within 1 ulp, but their directed rounding applies to the internal
# approximation, not the true value: a returned 'upper' endpoint can fall
# below the exact result by a fraction of an ulp (observable for exp of
# tiny arguments, where the omitted x^2/2 term hides beyond the guard
# bits).  Basic arithmetic and sqrt are integer-exact and need no cushion.
# Transcendentals are therefore evaluated with extra guard bits and their
# endpoints pushed outward by a couple of guard-precision ulps, which
# restores strict containment at a negligible cost in width.
_TRANSCENDENTAL_GUARD_BITS = 8
_TRANSCENDENTAL_PAD_ULPS = 2


def _pad_raw(raw, prec: int, ulps: int, upward: bool):
    """Move a raw mpf outward by `ulps` units in the last place at `prec` bits.

    The ulp is taken relative to the value's magnitude (raw exponent plus
    mantissa bit count), not the normalized mantissa: short-mantissa values
    like 1.0 would otherwise be padded by whole units.
    """
    if raw[1] == 0:  # zero or a special value: nothing meaningful to pad
        return raw
    delta = _lm.from_man_exp(ulps, raw[2] + raw[3] - prec)
    if upward:
        return _lm.mpf_add(raw, delta, prec + 16, "c")
    return _lm.mpf_sub(raw, delta, prec + 16, "f")


def _guarded_transcendental(fn, lo_raw, hi_raw):
    prec = current_precision() + _TRANSCENDENTAL_GUARD_BITS
    lo = _pad_raw(fn(lo_raw, prec, "f"), prec, _TRANSCENDENTAL_PAD_ULPS, upward=False)
    hi = _pad_raw(fn(hi_raw, prec, "c"), prec, _TRANSCENDENTAL_PAD_ULPS, upward=True)
    return lo, hi


class Enclosure:
    """A certified interval [lo, hi] under outward rounding.

    Construct from a point value (int, float, exact mpf, Fraction or a
    decimal string, the latter two enclosed outward) or from a pair of
    endpoints.  Arithmetic operators return new enclosures containing the
    exact image of their operands.
    """

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo, hi=None):
        prec = current_precision()
        lo_d, lo_u = _to_raw_pair(lo, prec)
        if hi is None:
            self._lo, self._hi = lo_d, lo_u
        else:
            hi_d, hi_u = _to_raw_pair(hi, prec)
            self._lo, self._hi = lo_d, hi_u
        if _lm.fnan in (self._lo, self._hi):
            raise ValueError("an enclosure endpoint cannot be NaN")
        if _lm.mpf_cmp(self._lo, self._hi) > 0:
            raise ValueError(f"invalid enclosure endpoints: lo={_mpf(self._lo)} > hi={_mpf(self._hi)}")

    @classmethod
    def _from_mpi(cls, mpi) -> "Enclosure":
        out = object.__new__(cls)
        out._lo, out._hi = mpi
        return out

    @classmethod
    def pi(cls) -> "Enclosure":
        """Enclosure of pi at the working precision (cached per precision)."""
        prec = current_precision()
        raws = _PI_CACHE.get(prec)
        if raws is None:
            guard = prec + _TRANSCENDENTAL_GUARD_BITS
            raws = (
                _pad_raw(_lm.mpf_pi(guard, "f"), guard, _TRANSCENDENTAL_PAD_ULPS, upward=False),
                _pad_raw(_lm.mpf_pi(guard, "c"), guard, _TRANSCENDENTAL_PAD_ULPS, upward=True),
            )
            _PI_CACHE[prec] = raws
        return cls._from_mpi(raws)

    # -- accessors ---------------------------------------------------------

    @property
    def lo(self):
        return _mpf(self._lo)

    @property
    def hi(self):
        return _mpf(self._hi)

    @property
    def mid(self):
        """Midpoint as an mpf (convenience only, not a certified value)."""
        return _mpf(_lm.mpi_mid((self._lo, self._hi), current_precision()))

    @property
    def width(self):
        """Upper bound on hi - lo."""
        return _mpf(_lm.mpf_sub(self._hi, self._lo, current_precision(), "u"))

    # -- predicates --------------------------------------------------------

    def is_strictly_positive(self) -> bool:
        return _lm.mpf_cmp(self._lo, _lm.fzero) > 0

    def is_strictly_negative(self) -> bool:
        return _lm.mpf_cmp(self._hi, _lm.fzero) < 0

    def contains_zero(self) -> bool:
        return (
            _lm.mpf_cmp(self._lo, _lm.fzero) <= 0
            and _lm.mpf_cmp(self._hi, _lm.fzero) >= 0
        )

    def contains(self, other) -> bool:
        """True if this enclosure contains `other` (scalar or enclosure) entirely."""
        o = as_enclosure(other)
        return (
            _lm.mpf_cmp(self._lo, o._lo) <= 0 and _lm.mpf_cmp(o._hi, self._hi) <= 0
        )

    def intersects(self, other) -> bool:
        o = as_enclosure(other)
        return (
            _lm.mpf_cmp(self._lo, o._hi) <= 0 and _lm.mpf_cmp(o._lo, self._hi) <= 0
        )

    def hull(self, other) -> "Enclosure":
        o = as_enclosure(other)
        lo = self._lo if _lm.mpf_cmp(self._lo, o._lo) <= 0 else o._lo
        hi = self._hi if _lm.mpf_cmp(self._hi, o._hi) >= 0 else o._hi
        return Enclosure._from_mpi((lo, hi))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = as_enclosure(other)
        return Enclosure._from_mpi(
            _lm.mpi_add((self._lo, self._hi), (o._lo, o._hi), current_precision())
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = as_enclosure(other)
        return Enclosure._from_mpi(
            _lm.mpi_sub((self._lo, self._hi), (o._lo, o._hi), current_precision())
        )

    def __rsub__(self, other):
        return as_enclosure(other).__sub__(self)

    def __mul__(self, other):
        o = as_enclosure(other)
        return Enclosure._from_mpi(
            _lm.mpi_mul((self._lo, self._hi), (o._lo, o._hi), current_precision())
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = as_enclosure(other)
        if o.contains_zero():
            raise DomainError("division by an enclosure containing zero")
        return Enclosure._from_mpi(
            _lm.mpi_div((self._lo, self._hi), (o._lo, o._hi), current_precision())
        )

    def __rtruediv__(self, other):
        return as_enclosure(other).__truediv__(self)

    def __neg__(self):
        return Enclosure._from_mpi(_lm.mpi_neg((self._lo, self._hi), current_precision()))

    def __abs__(self):
        return Enclosure._from_mpi(_lm.mpi_abs((self._lo, self._hi), current_precision()))

    def _scaled(self, k: int) -> "Enclosure":
        """self * 2^k rounded as a product by the exact 2^k, by shifts: no multiplication."""
        prec, shift, pos = current_precision(), _lm.mpf_shift, _lm.mpf_pos
        return Enclosure._from_mpi((shift(pos(self._lo, prec, "f"), k),
                                    shift(pos(self._hi, prec, "c"), k)))

    def __pow__(self, p):
        """Power with an exact rational exponent.

        Integer exponents work on any enclosure (negative integers require
        the base not to contain 0); fractional exponents require a strictly
        positive base.  A half-integer n/2 is the square root of the integer
        power y^n, 32 bits above the working precision (two exact-rounded
        operations, no log or exp); other fractions go through exp(p*log).
        """
        if isinstance(p, float):
            p = Fraction(p)  # binary floats convert exactly
        if isinstance(p, int) or (isinstance(p, Fraction) and p.denominator == 1):
            n = int(p)
            if n < 0 and self.contains_zero():
                raise DomainError("negative power of an enclosure containing zero")
            return Enclosure._from_mpi(
                _lm.mpi_pow_int((self._lo, self._hi), n, current_precision())
            )
        if not isinstance(p, Fraction):
            raise TypeError("exponent must be an int, float or Fraction")
        if not self.is_strictly_positive():
            raise DomainError("fractional power requires a strictly positive enclosure")
        if p.denominator == 2:
            prec = current_precision() + 32
            return Enclosure._from_mpi(
                _lm.mpi_sqrt(_lm.mpi_pow_int((self._lo, self._hi), p.numerator, prec), prec))
        return (self.log() * Enclosure(p)).exp()

    def exp(self) -> "Enclosure":
        return Enclosure._from_mpi(_guarded_transcendental(_lm.mpf_exp, self._lo, self._hi))

    def log(self) -> "Enclosure":
        if not self.is_strictly_positive():
            raise DomainError("log requires a strictly positive enclosure")
        return Enclosure._from_mpi(_guarded_transcendental(_lm.mpf_log, self._lo, self._hi))

    def sqrt(self) -> "Enclosure":
        if _lm.mpf_cmp(self._lo, _lm.fzero) < 0:
            raise DomainError("sqrt requires a nonnegative enclosure")
        return Enclosure._from_mpi(_lm.mpi_sqrt((self._lo, self._hi), current_precision()))

    # -- comparisons and formatting -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Enclosure):
            return NotImplemented
        return self._lo == other._lo and self._hi == other._hi

    def __hash__(self):
        return hash((self._lo, self._hi))

    def __repr__(self):
        dps = 20
        return f"Enclosure[{_lm.to_str(self._lo, dps)}, {_lm.to_str(self._hi, dps)}]"


def as_enclosure(value) -> Enclosure:
    """Coerce a scalar (int, float, str, Fraction, mpf) to an Enclosure."""
    if isinstance(value, Enclosure):
        return value
    return Enclosure(value)


def _below(a, b) -> bool | None:
    """a < b as a Check outcome: True when it holds on the whole enclosures, False when
    a > b does, None when they overlap."""
    a, b = as_enclosure(a), as_enclosure(b)
    return True if a.hi < b.lo else False if a.lo > b.hi else None


def _sign(v: Enclosure) -> int | None:
    """+1 or -1 for a strictly signed enclosure, None when it contains 0."""
    return 1 if v.is_strictly_positive() else -1 if v.is_strictly_negative() else None


#: a ball's midpoint carries this many bits above the working precision
_BALL_GUARD_BITS = 32


class Ball:
    """A midpoint-radius ball [(m - r) 2^e, (m + r) 2^e]: Python integers m and r >= 0 over one
    binary exponent e (van der Hoeven, *Ball arithmetic*, 2009; Johansson's Arb, 2017).

    The thin passes of the series run on Balls: an operation costs a few integer products and
    shifts where libmp's interval operations cost several normalized roundings.  Every
    operation keeps |m| and r below 2^prec, prec the working precision plus _BALL_GUARD_BITS:
    a truncation floors m and rounds r up past the dropped bits, so a result contains the exact
    image of its operands.  The `_ball_*` functions take prec explicitly, with libmp's
    signatures; the operators take it from the working precision and accept Balls, ints,
    binary floats and Fractions (all exact but non-dyadic Fractions).  A Ball comes from a thin
    Enclosure exactly (:meth:`of`) and returns to one by outward rounding (:meth:`enclosure`);
    pi comes from :meth:`Enclosure.pi`, exp and log from one kernel call each at the midpoint
    (:func:`_ball_transcendental`), so the trusted base is Python's integers and mpmath's exp,
    log and pi, trusted as the guarded Enclosure forms trust them.
    """

    __slots__ = ("m", "r", "e")

    def __init__(self, m: int, r: int, e: int):
        self.m, self.r, self.e = m, r, e

    @classmethod
    def of(cls, enc: Enclosure) -> "Ball":
        """The ball of an Enclosure: exact for a thin one."""
        return _ball_of(enc._lo, enc._hi, current_precision() + _BALL_GUARD_BITS)

    @classmethod
    def pi(cls) -> "Ball":
        """pi from :meth:`Enclosure.pi` at the ball's precision (cached per precision)."""
        prec = current_precision() + _BALL_GUARD_BITS
        ball = _PI_BALLS.get(prec)
        if ball is None:
            with precision(prec):
                pi = Enclosure.pi()
            ball = _PI_BALLS[prec] = _ball_of(pi._lo, pi._hi, prec)
        return ball

    def enclosure(self) -> Enclosure:
        """The outward-rounded Enclosure at the working precision."""
        prec, m, r = current_precision(), self.m, self.r
        return Enclosure._from_mpi((_lm.from_man_exp(m - r, self.e, prec, "f"),
                                    _lm.from_man_exp(m + r, self.e, prec, "c")))

    def exp(self) -> "Ball":
        """e^self: e^(m + t) - e^m = e^m (e^t - 1), and e^d - 1 <= 2d for |t| <= d <= 1/2."""
        return _ball_transcendental(self, _lm.mpf_exp,
                                    lambda v, unit: _ceil_shift(self.r * v, self.e + 1))

    def log(self) -> "Ball":
        """log self: |log(m + t) - log m| <= d/(m - d) for |t| <= d < m."""
        if self.m <= self.r:
            raise DomainError("log requires a strictly positive ball")
        return _ball_transcendental(
            self, _lm.mpf_log, lambda v, unit: -(-_ceil_shift(self.r, -unit) // (self.m - self.r)))

    def _scaled(self, k: int) -> "Ball":
        """self * 2^k, exactly."""
        return Ball(self.m, self.r, self.e + k)

    def is_strictly_positive(self) -> bool:
        return self.m > self.r

    def __neg__(self):
        return Ball(-self.m, self.r, self.e)

    def __pow__(self, n: int):
        """self^n for an int n, by repeated squaring."""
        return _ball_pow_int(self, n, current_precision() + _BALL_GUARD_BITS)

    def __repr__(self):
        return "Ball" + repr(self.enclosure())[len("Enclosure"):]


_PI_BALLS: dict[int, Ball] = {}
_new = object.__new__  # the hot paths' constructor, without __init__'s frame


def _ball(m: int, r: int, e: int, prec: int) -> Ball:
    """The ball (m +- r) 2^e with m and r cut to `prec` bits: its ends rounded outward, the
    lower one down and the upper one up, at the unit that leaves the midpoint prec bits."""
    s, t = m.bit_length(), r.bit_length()
    s = (s if s > t else t) + 1 - prec
    if s > 0:
        lo, hi = (m - r) >> s, -((-m - r) >> s)
        m, r, e = lo + hi, hi - lo, e + s - 1
    out = _new(Ball)
    out.m, out.r, out.e = m, r, e
    return out


def _ball_of(lo, hi, prec: int) -> Ball:
    """The ball of raw libmp endpoints lo <= hi: the ends at the finer exponent, exactly when
    that leaves at most `prec` bits, else outward at the unit prec bits below the larger top;
    then mid (lo + hi)/2 and radius (hi - lo)/2, cut to prec bits."""
    (ls, lm, le, lbc), (hs, hm, he, hbc) = lo, hi
    if lbc < 0 or hbc < 0:
        raise DomainError("a ball needs finite endpoints")
    lm, hm = -lm if ls else lm, -hm if hs else hm
    le, he = le if lm else he, he if hm else le  # 0 takes the other end's exponent
    e = max(min(le, he), max(le + lbc, he + hbc) - prec)
    lm = lm << (le - e) if le >= e else lm >> (e - le)
    hm = hm << (he - e) if he >= e else -(-hm >> (e - he))
    return _ball(lm + hm, hm - lm, e - 1, prec)


def _ball_const(value, prec: int) -> Ball:
    """An int or a dyadic Fraction or float is exact, another Fraction rounded."""
    if isinstance(value, float):
        value = Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Ball(value, 0, 0)
    if not isinstance(value, Fraction):
        raise TypeError(f"cannot build a ball from {type(value).__name__}")
    n, d = value.numerator, value.denominator
    if not d & (d - 1):
        return Ball(n, 0, 1 - d.bit_length())
    k = max(prec + d.bit_length() - n.bit_length(), 0)
    return _ball((n << k) // d, 1, -k, prec)


def _ball_mul(a: Ball, b: Ball, prec: int) -> Ball:
    am, ar, bm, br = a.m, a.r, b.m, b.r
    m, e = am * bm, a.e + b.e
    # |(am + s)(bm + t) - am bm| <= (|am| + ar) br + |bm| ar for |s| <= ar, |t| <= br
    r = ((am if am >= 0 else -am) + ar) * br + (bm if bm >= 0 else -bm) * ar if ar or br else 0
    s, t = m.bit_length(), r.bit_length()
    s = (s if s > t else t) - prec
    if s > 0:  # m floored, r rounded up and one unit more where m drops nonzero bits
        q = m >> s
        m, r, e = q, -(-r >> s) + (q << s != m), e + s
    out = _new(Ball)
    out.m, out.r, out.e = m, r, e
    return out


def _ball_add(a: Ball, b: Ball, prec: int) -> Ball:
    if a.e < b.e:
        a, b = b, a
    d = a.e - b.e  # b has the finer unit
    if d <= 4 * prec:  # exact at b's unit, a short shift, then cut
        return _ball((a.m << d) + b.m, (a.r << d) + b.r, b.e, prec)
    if not (a.m or a.r):  # an exact 0 has no magnitude to align to
        return b
    if not (b.m or b.r):
        return a
    # far apart: take the ends to the unit `prec` bits below the larger top, outward, so that
    # no shift is long
    top = max(a.e + a.m.bit_length(), a.e + a.r.bit_length(), b.e + b.m.bit_length(),
              b.e + b.r.bit_length())
    e, lo, hi = max(b.e, top - prec), 0, 0
    for x in (a, b):
        k = x.e - e
        if k >= 0:
            lo, hi = lo + ((x.m - x.r) << k), hi + ((x.m + x.r) << k)
        else:
            lo, hi = lo + ((x.m - x.r) >> -k), hi - ((-x.m - x.r) >> -k)
    return _ball(lo + hi, hi - lo, e - 1, prec)


def _ball_sub(a: Ball, b: Ball, prec: int) -> Ball:
    return _ball_add(a, Ball(-b.m, b.r, b.e), prec)


def _ball_div(a: Ball, b: Ball, prec: int) -> Ball:
    bm, br = b.m, b.r
    den = abs(bm)
    if den <= br:
        raise DomainError("division by a ball containing zero")
    am, ar = a.m, a.r
    k = max(prec + den.bit_length() - am.bit_length(), 0)  # a quotient of about prec bits
    # |(am + s)/(bm + t) - am/bm| <= (ar |bm| + |am| br) / (|bm| (|bm| - br)), in units of
    # 2^(a.e - b.e - k), rounded up; the floored midpoint takes one unit more if inexact
    m, rest = divmod(am << k, bm)
    r = -(-((ar * den + abs(am) * br) << k) // (den * (den - br)))
    return _ball(m, r + (rest != 0), a.e - b.e - k, prec)


#: the exact constants of the thin passes, built once: a pass's start sums and its tail's 1 - r,
#: and f's 1 + Q, 1/y, f' + 1/2 and the 2 of y^2's second derivative
_BALL_ZERO, _BALL_ONE = Ball(0, 0, 0), Ball(1, 0, 0)
_BALL_TWO, _BALL_HALF = Ball(2, 0, 0), Ball(1, 0, -1)


def _ceil_shift(n: int, k: int) -> int:
    """The least integer >= n 2^k."""
    return n << k if k >= 0 else -(-n >> -k)


def _ball_transcendental(x: Ball, fn, spread) -> Ball:
    """fn(x), fn = mpf_exp or mpf_log: one kernel call at x's midpoint m, to nearest at the
    Enclosure forms' guard bits, trusted to _TRANSCENDENTAL_PAD_ULPS + 1 ulps as they trust it,
    then spread(v, unit) units of 2^unit more, v >= |fn(m)| in them: a bound on |fn(m + t) -
    fn(m)| for |t| <= x's radius r <= 1/2.  A wider x (thin y past 2^(prec - 3) or below its
    inverse make pi y or pi/y that wide) takes the Enclosure form, two calls."""
    prec = _PRECISION.get() + _BALL_GUARD_BITS
    if x.r and (x.e >= 0 or x.r > 1 << (-1 - x.e)):
        with precision(prec):
            wide = x.enclosure()
            return _ball_of(*_guarded_transcendental(fn, wide._lo, wide._hi), prec)
    wp = prec + _TRANSCENDENTAL_GUARD_BITS
    sign, man, exp, bc = fn(_lm.from_man_exp(x.m, x.e), wp, "n")
    unit, pad = exp + bc - wp, _TRANSCENDENTAL_PAD_ULPS + 1  # one ulp of the value at wp
    m = man << (wp - bc)
    return _ball(-m if sign else m, pad + spread(m + pad, unit), unit, prec)


def _ball_pow_int(a: Ball, n: int, prec: int) -> Ball:
    """a^n by repeated squaring (the factors taken as independent balls), of 1/a for n < 0:
    one division, by a ball that excludes 0, where a ball of a^|n| could reach it."""
    if n < 0:
        a, n = _ball_div(_BALL_ONE, a, prec), -n
    out = None
    while n:
        if n & 1:
            out = a if out is None else _ball_mul(out, a, prec)
        n >>= 1
        if n:
            a = _ball_mul(a, a, prec)
    return _BALL_ONE if out is None else out


def _ball_exceeds(b: Ball, t, lower: bool) -> bool:
    """Whether b's lower end (`lower`) or upper end is above the positive raw mpf t."""
    u = b.m - b.r if lower else b.m + b.r
    if u <= 0:
        return False
    _, tm, te, tbc = t
    top, t_top = u.bit_length() + b.e, tbc + te
    if top != t_top:
        return top > t_top
    d = b.e - te  # equal tops: both shifts are short
    return (u << d if d >= 0 else u) > (tm if d >= 0 else tm << -d)


def _thin_ball(y: Enclosure, cfg: EvalConfig) -> Ball | None:
    """The Ball of a thin y (width <= cfg.tol, read off the Ball's integers); None for a box."""
    ball = Ball.of(y)
    return None if _ball_exceeds(Ball(ball.r, 0, ball.e + 1), cfg.tol._mpf_, False) else ball


def _ball_operator(fn, swap=False):
    """A Ball operator for fn(a, b, prec), at the working precision's ball precision."""
    def operator(self, other):
        prec = _PRECISION.get() + _BALL_GUARD_BITS
        if type(other) is not Ball:
            other = _ball_const(other, prec)
        return fn(other, self, prec) if swap else fn(self, other, prec)
    return operator


Ball.__add__ = Ball.__radd__ = _ball_operator(_ball_add)
Ball.__mul__ = Ball.__rmul__ = _ball_operator(_ball_mul)
Ball.__sub__, Ball.__rsub__ = _ball_operator(_ball_sub), _ball_operator(_ball_sub, swap=True)
Ball.__truediv__ = _ball_operator(_ball_div)
Ball.__rtruediv__ = _ball_operator(_ball_div, swap=True)


class Jet:
    """A function of one variable to second order: (value, first, second derivative),
    each an Enclosure, or each a Ball or an exact int.

    ``*`` and ``/`` of two Jets apply the product and quotient rules (forward-mode
    differentiation), so a product or quotient of Jets encloses its own derivatives.
    ``Jet(y, 1)`` is the variable y and ``Jet(c)`` a constant.  Unpacks as (v, d1, d2).
    A Jet whose value is a Ball keeps its other entries as they are, so ints stay exact.
    """

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1=0, d2=0):
        if type(v) is Ball:
            self.v, self.d1, self.d2 = v, d1, d2
        else:
            self.v, self.d1, self.d2 = as_enclosure(v), as_enclosure(d1), as_enclosure(d2)

    def __iter__(self):
        return iter((self.v, self.d1, self.d2))

    def __mul__(self, other: "Jet") -> "Jet":
        return Jet(
            self.v * other.v,
            self.d1 * other.v + self.v * other.d1,
            self.d2 * other.v + (self.d1 + self.d1) * other.d1 + self.v * other.d2,
        )

    def __truediv__(self, other: "Jet") -> "Jet":
        q = self.v / other.v
        q1 = (self.d1 - q * other.d1) / other.v
        return Jet(q, q1, (self.d2 - (q1 + q1) * other.d1 - q * other.d2) / other.v)


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings threaded through all certified routines.

    precision_bits: working precision for enclosure arithmetic (>= 53).
    tail_tolerance: absolute bound each truncated series tail must reach
        before a sum is accepted; a float, or a decimal string such as
        "1e-900" for magnitudes a float cannot express.
    max_terms: hard cap on series/product terms; exceeding it raises
        ConvergenceError rather than returning an unverified value.
    tol: tail_tolerance as an mpf, parsed once, when the config is made.
    """

    precision_bits: int = 128
    tail_tolerance: float | str = 2.0 ** -100
    max_terms: int = 10 ** 6

    def __post_init__(self):
        if self.precision_bits < 53:
            raise ValueError("precision_bits must be at least 53")
        object.__setattr__(self, "tol", mp.mpf(self.tail_tolerance))  # parsed once, here
        if not self.tol > 0:
            raise ValueError("tail_tolerance must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")

    def scope(self):
        """Context manager installing this config's working precision."""
        return precision(self.precision_bits)


DEFAULT_CONFIG = EvalConfig()
