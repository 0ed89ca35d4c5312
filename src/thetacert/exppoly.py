"""Exponential polynomials  sum_k p_k(x) e^{k r x}  with enclosure coefficients.

One type holds the theta2 envelopes, the envelope-product bracket (rate r =
pi/4) and every half-line bracket of the verifier; each p_k is a polynomial of
any degree.  :meth:`ExpPoly.sign_from` decides every half-line claim: the
zero-sign-change case of the rule of signs for exponential sums (Polya-Szego
II, Part V), and for a decaying sum one enclosure of sum/x^deg past the corner.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .enclosure import (DEFAULT_CONFIG, Enclosure, EnclosureError, EvalConfig, as_enclosure,
                        current_precision, precision)

__all__ = ["ExpPoly", "DegreeError"]


class DegreeError(EnclosureError):
    """A sum has a coefficient of higher degree than its derivation allows."""


#: the zero coefficient; exact at any precision
_ZERO = Enclosure(0)


def _add(p, q):
    """p + q on ascending coefficient tuples of any lengths."""
    short, long = sorted((p, q), key=len)
    return tuple(a + b for a, b in zip(long, short)) + long[len(short):]


def _mul(p, q):
    return tuple(reduce(add, (a * q[i - j] for j, a in enumerate(p) if 0 <= i - j < len(q)))
                 for i in range(len(p) + len(q) - 1))


def _collect(pairs) -> dict:
    """{k: sum of the p with key k} over (k, p) pairs, in their order."""
    out = {}
    for k, p in pairs:
        out[k] = _add(out[k], p) if k in out else p
    return out


def _taylor(p, corner: Enclosure) -> list[Enclosure]:
    """The coefficients of p(corner + u) in ascending powers of u (repeated Horner steps)."""
    a = list(p)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] = a[j] + corner * a[j + 1]
    return a


class ExpPoly:
    """Immutable map  k -> p_k (ascending coefficients) standing for  sum_k p_k(x) e^{k r x};
    the rate r is a rational, or an enclosure such as pi/4 built in the evaluating scope.
    Trailing exact-zero coefficients are dropped, and keys left without any, so `degree`
    counts only coefficients that are there; the zero sum has no keys and evaluates to 0."""

    __slots__ = ("_terms", "rate")

    def __init__(self, terms, rate=1):
        self._terms = {}
        for k, p in terms.items():
            p = tuple(map(as_enclosure, p))
            while p and p[-1] == _ZERO:
                p = p[:-1]
            if p:
                self._terms[int(k)] = p
        self.rate = as_enclosure(rate)

    @classmethod
    def exponential(cls, k: int, coeff=1, rate=1) -> "ExpPoly":
        """coeff * e^{k r x} as an ExpPoly."""
        return cls({k: (coeff,)}, rate)

    def terms(self):
        return dict(self._terms)

    def exponents(self):
        return sorted(self._terms)

    @property
    def degree(self) -> int:
        return max(map(len, self._terms.values()), default=1) - 1

    def coefficient(self, k: int) -> tuple[Enclosure, ...]:
        """(c_0, ..., c_degree) of p_k, padded with zeros; all zeros when k is absent."""
        p = self._terms.get(k, ())
        return p + (_ZERO,) * (self.degree + 1 - len(p))

    def _rate_with(self, other: "ExpPoly") -> Enclosure:
        if self.rate != other.rate:
            raise ValueError(f"sums of rates {self.rate!r} and {other.rate!r} do not combine")
        return self.rate

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        pairs = [*self._terms.items(), *other._terms.items()]
        return ExpPoly(_collect(pairs), self._rate_with(other))

    def __neg__(self) -> "ExpPoly":
        return ExpPoly({k: [-c for c in p] for k, p in self._terms.items()}, self.rate)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __radd__(self, other) -> "ExpPoly":  # an int or Fraction constant on the left
        return ExpPoly.exponential(0, other, self.rate) + self

    def __rsub__(self, other) -> "ExpPoly":
        return ExpPoly.exponential(0, other, self.rate) - self

    def scale(self, factor) -> "ExpPoly":
        f = as_enclosure(factor)
        return ExpPoly({k: [c * f for c in p] for k, p in self._terms.items()}, self.rate)

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        pairs = [(k1 + k2, _mul(p1, p2)) for k1, p1 in self._terms.items()
                 for k2, p2 in other._terms.items()]
        return ExpPoly(_collect(pairs), self._rate_with(other))

    __rmul__ = scale

    def mul_y(self) -> "ExpPoly":
        """Multiply by the variable."""
        return ExpPoly({k: (_ZERO, *p) for k, p in self._terms.items()}, self.rate)

    def shift(self, dk: int) -> "ExpPoly":
        """Multiply by e^{dk r x} (exact on exponent keys)."""
        return ExpPoly({k + dk: p for k, p in self._terms.items()}, self.rate)

    def derivative(self) -> "ExpPoly":
        """d/dx: p_k' + k r p_k for each key k (exact on integer coefficients at rate 1)."""
        return ExpPoly({k: _add(tuple(i * c for i, c in enumerate(p) if i),
                                tuple(k * self.rate * c for c in p))
                        for k, p in self._terms.items()}, self.rate)

    def _exponentials(self, x: Enclosure, exps: dict) -> dict:
        """exps with e^{k r x} for every key k, each the power b^(-k) of b = e^{-r x}, which is
        exps[-1]: one exp carried 32 bits above the working precision, as the series kernel's q."""
        missing = [k for k in self._terms if k not in exps]
        with precision(current_precision() + 32):
            if any(missing) and -1 not in exps:
                exps[-1] = (-(self.rate * x)).exp()
            exps.update((k, exps[-1] ** -k if k else 1) for k in missing)
        return exps

    def _at(self, x, w, exps) -> Enclosure:
        """sum_i (sum_k p_{k,i} E_k) x^i w^(deg-i), E_k = exps[k], key 0 first: the sum at x
        for (x, 1, e^{k r x}); the sum divided by x^deg for (1, 1/x, e^{k r x})."""
        if not self._terms:
            return _ZERO
        deg = self.degree
        keys = sorted(self._terms, key=lambda k: (k != 0, k))
        parts = [reduce(add, (exps[k] * self._terms[k][i] for k in keys if i < len(self._terms[k])))
                 for i in range(deg + 1)]
        if deg == 0:
            return parts[0]
        return reduce(add, (part * x ** i * w ** (deg - i) for i, part in enumerate(parts)))

    def eval(self, x, cfg: EvalConfig = DEFAULT_CONFIG, shared: dict | None = None) -> Enclosure:
        """The sum at x, from one exponential at x.  `shared` maps k to e^{k r x} and is filled
        as needed, so sums of one rate evaluated at one x can share that exponential."""
        with cfg.scope():
            x = as_enclosure(x)
            return self._at(x, 1, self._exponentials(x, {} if shared is None else shared))

    def _past(self, corner: Enclosure) -> Enclosure:
        """The sum over x^degree for every x >= corner > 0: 1/x in [0, 1/corner] and
        e^{k r x} in [0, e^{k r corner}], which needs keys k <= 0 and rate > 0."""
        exps = {k: 1 if k == 0 else Enclosure(0, e.hi)
                for k, e in self._exponentials(corner, {}).items()}
        return self._at(1, Enclosure(0, (1 / corner).hi), exps)

    def sign_from(self, corner, sign: int) -> bool | None:
        """The sum has `sign` on x >= corner: True when every coefficient of every p_k(corner + u)
        has it and one constant coefficient strictly (sufficient, not necessary), or, for a
        decaying sum (keys k <= 0, rate > 0) and corner > 0, when one enclosure of sum/x^degree
        over all x >= corner has it strictly; False when the sum has the opposite strict sign at
        the corner, or a decaying sum's limit of sum/x^degree (the key-0 leading coefficient)
        does; else None.  Call inside a precision scope."""
        corner = as_enclosure(corner)
        signed = [[sign * c for c in _taylor(p, corner)] for p in self._terms.values()]
        strict = any(p[0].is_strictly_positive() for p in signed)
        if strict and all(c.lo >= 0 for p in signed for c in p):
            return True
        at_corner = self._at(corner, 1, self._exponentials(corner, {}))
        if (sign * at_corner).is_strictly_negative():
            return False
        if max(self._terms, default=0) > 0 or not self.rate.is_strictly_positive():
            return None
        if corner.is_strictly_positive() and (sign * self._past(corner)).is_strictly_positive():
            return True
        return False if (sign * self.coefficient(0)[self.degree]).is_strictly_negative() else None

    def __repr__(self):
        return f"ExpPoly[rate {self.rate!r}; {self._terms!r}]"
