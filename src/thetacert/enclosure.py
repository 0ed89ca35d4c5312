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
being differentiated by hand.

Working precision is scoped with :func:`precision`::

    with precision(256):
        x = Enclosure("0.1") + Enclosure(1, 2)

All values are immutable; operations are pure functions of their inputs
and the ambient precision, so enclosures can be shared freely between
threads.
"""

from __future__ import annotations

import contextlib
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


@contextlib.contextmanager
def precision(bits: int):
    """Scope the working precision for enclosure arithmetic."""
    if bits < 53:
        raise ValueError("precision below 53 bits is not supported")
    token = _PRECISION.set(int(bits))
    try:
        yield
    finally:
        _PRECISION.reset(token)


def _mpf(raw):
    return mp.make_mpf(raw)


def _to_raw_pair(value, prec):
    """Exact or outward-rounded raw endpoints for a scalar."""
    if isinstance(value, Enclosure):
        return value._lo, value._hi
    if isinstance(value, bool):
        raise TypeError("bool is not a valid enclosure endpoint")
    if isinstance(value, int):
        raw = _lm.from_int(value)
        return raw, raw
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


class Jet:
    """A function of one variable to second order: (value, first, second derivative),
    each an Enclosure.

    ``*`` and ``/`` of two Jets apply the product and quotient rules (forward-mode
    differentiation), so a product or quotient of Jets encloses its own derivatives.
    ``Jet(y, 1)`` is the variable y and ``Jet(c)`` a constant.  Unpacks as (v, d1, d2).
    """

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1=0, d2=0):
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
        before a sum is accepted; a float, or a decimal string for
        magnitudes a float cannot express (e.g. "1e-900" for comparisons
        whose margins decay like e^{-6 pi y}).
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

    def escalated(self) -> "EvalConfig":
        """Copy with doubled working precision (used by sign certification)."""
        return EvalConfig(
            precision_bits=2 * self.precision_bits,
            tail_tolerance=self.tail_tolerance,
            max_terms=self.max_terms,
        )


DEFAULT_CONFIG = EvalConfig()
