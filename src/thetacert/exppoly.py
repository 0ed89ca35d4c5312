"""Finite sums  sum_k (a_k y + b_k) e^{k pi y / 4}  with enclosure coefficients.

This is the exact vehicle for collecting the envelope-product bracket: the
two-term envelopes are ExpPolys with constant coefficients, products add
exponents exactly and multiply coefficients with enclosure arithmetic, and
the single allowed multiplication by y promotes constants to linear
coefficients.  Coefficients of degree 2 in y can never legitimately arise
in that derivation, so any product that would create one raises
:class:`DegreeError` -- it means a formula was transcribed wrongly.
"""

from __future__ import annotations

from mpmath.libmp import fzero

from .enclosure import DEFAULT_CONFIG, Enclosure, EnclosureError, EvalConfig, as_enclosure

__all__ = ["ExpPoly", "DegreeError"]


class DegreeError(EnclosureError):
    """A product tried to create a y^2 coefficient."""


#: the zero coefficient; exact at any precision
_ZERO = Enclosure(0)


def _is_exact_zero(e: Enclosure) -> bool:
    return e._lo == fzero and e._hi == fzero


class ExpPoly:
    """Immutable map  k -> (a_k, b_k)  representing sum (a_k y + b_k) e^{k pi y/4}."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {}
        if terms:
            for k, (a, b) in terms.items():
                self._terms[int(k)] = (as_enclosure(a), as_enclosure(b))

    @classmethod
    def exponential(cls, k: int, coeff=1) -> "ExpPoly":
        """coeff * e^{k pi y / 4} as an ExpPoly."""
        return cls({k: (_ZERO, as_enclosure(coeff))})

    def terms(self):
        return dict(self._terms)

    def exponents(self):
        return sorted(self._terms)

    def coefficient(self, k: int) -> tuple[Enclosure, Enclosure]:
        """(a_k, b_k); zeros when the exponent is absent."""
        return self._terms.get(k, (_ZERO, _ZERO))

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        out = dict(self._terms)
        for k, (a, b) in other._terms.items():
            if k in out:
                oa, ob = out[k]
                out[k] = (oa + a, ob + b)
            else:
                out[k] = (a, b)
        return ExpPoly(out)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly({k: (-a, -b) for k, (a, b) in self._terms.items()})

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def scale(self, factor) -> "ExpPoly":
        f = as_enclosure(factor)
        return ExpPoly({k: (a * f, b * f) for k, (a, b) in self._terms.items()})

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        out: dict[int, tuple[Enclosure, Enclosure]] = {}
        for k1, (a1, b1) in self._terms.items():
            for k2, (a2, b2) in other._terms.items():
                if not (_is_exact_zero(a1) or _is_exact_zero(a2)):
                    raise DegreeError(
                        "product of two linear-in-y coefficients would have degree 2"
                    )
                k = k1 + k2
                a = a1 * b2 + a2 * b1
                b = b1 * b2
                if k in out:
                    oa, ob = out[k]
                    out[k] = (oa + a, ob + b)
                else:
                    out[k] = (a, b)
        return ExpPoly(out)

    def mul_y(self) -> "ExpPoly":
        """Multiply by y; requires every coefficient to be constant."""
        out = {}
        for k, (a, b) in self._terms.items():
            if not _is_exact_zero(a):
                raise DegreeError("multiplying a linear-in-y coefficient by y gives degree 2")
            out[k] = (b, _ZERO)
        return ExpPoly(out)

    def shift(self, dk: int) -> "ExpPoly":
        """Multiply by e^{dk pi y / 4} (exact on exponents)."""
        return ExpPoly({k + dk: ab for k, ab in self._terms.items()})

    def eval(self, y, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
        with cfg.scope():
            y = as_enclosure(y)
            pi = Enclosure.pi()
            total = Enclosure(0)
            for k, (a, b) in sorted(self._terms.items()):
                total = total + (a * y + b) * (Enclosure(k) * pi * y / 4).exp()
            return total

    def __repr__(self):
        bits = []
        for k in self.exponents():
            a, b = self._terms[k]
            bits.append(f"({a!r}*y + {b!r})*e^({k}pi y/4)")
        return "ExpPoly[" + " + ".join(bits) + "]"
