"""Rigorous evaluation of theta_2, theta_4 and the log-derivative series.

Every sum is truncated adaptively by one kernel, ``certified_sum``: terms are
accumulated until a *proved* bound on the omitted tail is at most
``cfg.tail_tolerance``, and that bound is attached to the result.  The kernel
owns the ``cfg.max_terms`` cap, every comparison with ``cfg.tol``, the retry
while a tail ratio is not yet below 1, and the tail's sign: [0, b], [-b, 0]
or [-b, b], negating b exactly.  Two callers own the term and tail formulas.
``_quadratic_series`` sums w_n (-c a(n))^r e^{-c (a(n) - a0) y} for an integer
quadratic a(n), several orders r at one exp per term: theta4 (a = k^2,
alternating), theta2 (a = (2k-1)^2, c = pi/4), the modular Q-series
(a = j(j+1)) and the envelope excess sum (a = (2k+3)^2); the offset a0 keeps
e^{-c a0 y}, which swings by orders of magnitude across a box, out of the sum.
As a(n+1) - a(n) grows and a(n+1)/a(n) falls, every term ratio past term n is
at most (a(n+2)/a(n+1))^r e^{-c (a(n+2) - a(n+1)) y.lo}, whatever a0, which
bounds the tail geometrically from the first omitted term at y.lo; it is tried
once the first requested order's term is below tol/4.  ``_lambert_sum`` sums
the Lambert terms, every requested order at one exp per term, with one tail
bound per order tried once the largest term is below tol/16.
``theta4_product`` keeps its own loop: it is a product, and the tests use it
as an independent reference for ``theta4_series``.

Evaluators:

  theta4_series(y, nu)   nu-th derivative of theta4(y) = sum (-1)^k exp(-pi k^2 y);
                         _theta4(y, orders) gives several orders in one pass
  theta4_product(y)      theta4 via prod (1-q^(2n))(1-q^(2n-1))^2, q = exp(-pi y)
  theta2_series(y, nu)   nu-th derivative of theta2(y) = sum exp(-pi y (n+1/2)^2);
                         _theta2(y, orders) gives several orders in one pass
  psi(s, k)              the Lambert term psi(s) = s^2/(e^s - 1) and its derivatives
                         psi^(k)(s) = u N_k(s, 1-u, u)/(1-u)^(k+1), u = e^{-s}, k <= 2
  _lambert_sum(y, orders) f^(k)(y) for f(y) = y^2 theta4'(y)/theta4(y), as the Lambert-type
                         sum f^(k)(y) = sum_{m>=1} w_m (m pi)^(k-1) psi^(k)(m pi y),
                         w_m = 2 (m odd), 1 (m even): one term formula, several orders in
                         one pass; f_eval/f_prime/f_second take it on boxes in [1, oo), on
                         thin y > 8 and with route="lambert" (a thin y in [1, 8]: _theta4)

The direct series are primitives valid for any y > 0 but converge slowly
as y -> 0; public dispatch for small y lives in :mod:`thetacert.modular` (theta4)
and :mod:`thetacert.verifier` (f).
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import libmp as _lm

from .enclosure import (
    DEFAULT_CONFIG,
    ConvergenceError,
    DomainError,
    Enclosure,
    EvalConfig,
    as_enclosure,
)

__all__ = [
    "theta4_series",
    "theta4_product",
    "theta2_series",
    "psi",
    "DERIVATIVE_ORDERS",
]

DERIVATIVE_ORDERS = (0, 1, 2, 3)


def _check_order(nu: int) -> int:
    if nu not in DERIVATIVE_ORDERS:
        raise ValueError(f"derivative order must be one of {DERIVATIVE_ORDERS}, got {nu}")
    return nu


def _check_positive(y: Enclosure, what: str) -> Enclosure:
    if not y.is_strictly_positive():
        raise DomainError(f"{what} requires y > 0, got {y!r}")
    return y


def geometric_tail(first: Enclosure, ratio: Enclosure) -> Enclosure:
    """Upper bound for first * (1 + r + r^2 + ...) given an enclosed ratio < 1.

    Raises ConvergenceError if the ratio cannot be certified below 1.
    """
    one = Enclosure(1)
    if not (one - ratio).is_strictly_positive():
        raise ConvergenceError("tail ratio not certified below 1")
    return first / (one - ratio)


def _tail_enclosure(b, sign: int) -> Enclosure:
    """[0, b], [-b, 0] or [-b, b] for a raw b; negating an mpf would round to 53 bits."""
    neg = _lm.mpf_neg(b)
    return Enclosure._from_mpi((_lm.fzero if sign > 0 else neg, _lm.fzero if sign < 0 else b))


def certified_sum(what: str, cfg: EvalConfig, start, step, tail, signs, gate_divisor: int = 1):
    """The series kernel; its contract is in the module docstring.

    start: the partial sums before term 1.  step(k) for k = 1 ..
    cfg.max_terms: (terms, gate), the k-th term of each sum and a number;
    the tails are tried once gate <= tol / gate_divisor.  tail(k):
    enclosures whose upper ends bound the omitted |tails| past term k.
    signs: +1 or -1 where every omitted term has that sign, 0 where signs mix.
    """
    tol = cfg.tol
    gate_tol = tol / gate_divisor
    sums = start
    for k in range(1, cfg.max_terms + 1):
        terms, gate = step(k)
        sums = [s + t for s, t in zip(sums, terms)]
        if gate <= gate_tol:
            try:
                bounds = tail(k)
            except ConvergenceError:
                continue
            if all(b.hi <= tol for b in bounds):
                return [s + _tail_enclosure(b._hi, sign) for s, b, sign in zip(sums, bounds, signs)]
    raise ConvergenceError(f"{what} did not reach tail tolerance within {cfg.max_terms} terms")


def _quadratic_series(what, y, a, orders: range, cfg, scale=1, weight=1, alternating=False, start=0,
                      a0=0):
    """start + sum_{n>=1} w_n (-c a(n))^r e^{-c (a(n) - a0) y} for each order r (start: r = 0).

    c = pi * scale with a dyadic scale, so y * scale is exact; a(n) is an integer with
    a(n+1) - a(n) increasing and a(n+1)/a(n) decreasing; w_n = weight, times (-1)^n if
    `alternating`.  The offset a0 <= a(1) multiplies every term by e^{c a0 y}; with
    a0 = a(1) the first term is exact and takes no exp.  Each order after the first is the
    previous term times c a(n), so the orders must be consecutive.  Call inside cfg.scope().
    """
    if tuple(orders) != tuple(range(orders[0], orders[-1] + 1)):
        raise ValueError(f"{what}: orders must be consecutive, got {tuple(orders)}")
    pi, s, w = Enclosure.pi(), Enclosure(scale), Enclosure(weight)
    ys = y * s
    ylos = Enclosure._from_mpi((ys._lo, ys._lo))

    def step(n):
        an = a(n)
        pa = pi * an
        pe = pi * (an - a0) if a0 else pa  # a0 = 0 costs no multiply
        mag = w if an == a0 else w * (-(pe * ys)).exp()
        ca = pa * s
        if orders[0]:
            mag = mag * ca ** orders[0]
        terms = [mag]
        for _ in orders[1:]:
            terms.append(terms[-1] * ca)
        return [-t if (r + n * alternating) % 2 else t for r, t in zip(orders, terms)], mag.hi

    def tail(n):
        a1, a2 = a(n + 1), a(n + 2)
        pa1 = pi * a1
        first = w * (-(pi * (a1 - a0) * ylos)).exp()
        decay = (-(pi * (a2 - a1) * ylos)).exp()
        growth = Enclosure(Fraction(a2, a1))
        return [geometric_tail(first * (pa1 * s) ** r, growth ** r * decay) for r in orders]

    sums = [Enclosure(start if r == 0 else 0) for r in orders]
    signs = [0 if alternating else (-1) ** r for r in orders]
    return certified_sum(what, cfg, sums, step, tail, signs, gate_divisor=4)


def theta4_series(y, nu: int = 0, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """Enclosure of theta4^(nu)(y) by the termwise-differentiated sum.

    The nu-th derivative term at index k is (-1)^k (-pi k^2)^nu exp(-pi k^2 y);
    the symmetric sum over all integers collapses to 1 (for nu = 0) plus twice
    the k >= 1 terms.
    """
    nu = _check_order(nu)
    return _theta4(y, range(nu, nu + 1), cfg)[0]


def _theta4(y, orders: range, cfg: EvalConfig) -> list[Enclosure]:
    """theta4^(r)(y) for each order r of `orders`, in one pass over the terms."""
    with cfg.scope():
        y = _check_positive(as_enclosure(y), "theta4_series")
        return _quadratic_series("theta4_series", y, lambda k: k * k, orders, cfg,
                                 weight=2, alternating=True, start=1)


def theta4_product(y, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """Enclosure of theta4(y) via the infinite product.

    theta4(y) = prod_{n>=1} (1 - e^{-2n pi y}) (1 - e^{-(2n-1) pi y})^2.
    The log of the omitted tail is enclosed using
    -x/(1-x_max) <= log(1-x) <= -x and exact geometric sums of the omitted
    exponentials, then exponentiated back.
    """
    with cfg.scope():
        y = _check_positive(as_enclosure(y), "theta4_product")
        pi = Enclosure.pi()
        one = Enclosure(1)
        ylo = Enclosure._from_mpi((y._lo, y._lo))
        prod = one
        for n in range(1, cfg.max_terms + 1):
            even = (-(Enclosure(2 * n) * pi * y)).exp()
            odd = (-(Enclosure(2 * n - 1) * pi * y)).exp()
            prod = prod * (one - even) * (one - odd) ** 2
            if odd.hi <= cfg.tol / 8:
                # Sum of omitted exponents: geometric with ratio e^{-2 pi y}.
                r = (-(2 * pi * ylo)).exp()
                e_even = (-(Enclosure(2 * n + 2) * pi * ylo)).exp()
                e_odd = (-(Enclosure(2 * n + 1) * pi * ylo)).exp()
                ssum = (e_even + 2 * e_odd) / (one - r)
                xmax = e_odd
                if not (one - xmax).is_strictly_positive():
                    continue
                log_lo = -(ssum / (one - xmax))
                if abs(log_lo).hi <= cfg.tol:
                    tail = Enclosure(log_lo.lo, 0)
                    return prod * tail.exp()
        raise ConvergenceError(
            f"theta4_product did not reach tail tolerance within {cfg.max_terms} terms"
        )


def _theta2(y, orders: range, cfg: EvalConfig) -> list[Enclosure]:
    """theta2^(r)(y) for each order r of `orders`, in one pass over the terms."""
    with cfg.scope():
        y = _check_positive(as_enclosure(y), "theta2_series")
        return _quadratic_series("theta2_series", y, lambda k: (2 * k - 1) ** 2, orders, cfg,
                                 scale=Fraction(1, 4), weight=2)


def theta2_series(y, nu: int = 0, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """Enclosure of theta2^(nu)(y) from the half-integer Gaussian sum.

    Over odd m = 2n+1 the nu-th derivative is
    (-1)^nu * (2 pi^nu / 4^nu) * sum m^(2 nu) e^{-pi m^2 y / 4}:
    every term of the nu-th derivative carries the sign (-1)^nu, so the
    returned enclosure is strictly signed and the positive tail bound is
    attached on the correct side.
    """
    nu = _check_order(nu)
    return _theta2(y, range(nu, nu + 1), cfg)[0]


#: N_k(s, v, u) with psi^(k)(s) = u N_k / v^(k+1), u = e^{-s}, v = 1 - u; each |N_k| <= 2(1+s)^2.
#: Written by hand rather than as a Jet of s^2 u/(1 - u): on s in pi [1, 1.01] that Jet's psi''
#: is 0.054 wide against 0.018 here, and at 128 bits it takes 238 us against 109 us (one core
#: of a 2-core x86 machine, Python 3.11, pure-Python mpmath 1.3)
_PSI_NUMERATORS = (
    lambda s, v, u: s * s,
    lambda s, v, u: s * (2 * v - s),
    lambda s, v, u: 2 * v * v - 4 * s * v + s * s * (1 + u),
)


def _psi(s: Enclosure, orders: range) -> list[Enclosure]:
    """psi^(k)(s) for each order k of `orders` at the working precision, for an enclosure
    s > 0; one exp serves every order."""
    u = (-s).exp()
    v = 1 - u
    return [u * _PSI_NUMERATORS[k](s, v, u) / v ** (k + 1) for k in orders]


def psi(s, order: int = 0, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """The Lambert term psi(s) = s^2/(e^s - 1) (order 0) or its derivative of order 1 or 2.
    Sound for s > 0 but wide as s -> 0, as v = 1 - e^-s is off by ~2^-prec: at 128 bits psi''
    is 4.6e-20 wide at s = 1e-10 and 4.6e20 at s = 1e-30.  The Lambert sums use s >= pi y."""
    if order not in range(len(_PSI_NUMERATORS)):
        raise ValueError(f"psi order must be 0, 1 or 2, got {order}")
    with cfg.scope():
        return _psi(_check_positive(as_enclosure(s), "psi"), range(order, order + 1))[0]


def _lambert_sum(y, orders: range, cfg: EvalConfig) -> list[Enclosure]:
    """f^(k) = sum_m w_m (m pi)^(k-1) psi^(k)(m pi y) for each order k of `orders`, in one
    pass; w_m is 2 for odd m, else 1.  Each order has its own tail bound, and the tails are
    tried once the largest requested |term| is small."""
    with cfg.scope():
        y = _check_positive(as_enclosure(y), "lambert series")
        pi = Enclosure.pi()
        piy = pi * y
        ylo = Enclosure._from_mpi((y._lo, y._lo))
        scales = [pi ** (k - 1) for k in orders]

        def step(m):
            terms = [Enclosure(Fraction((2 if m % 2 else 1) * m ** k, m)) * scale * psi_k
                     for k, scale, psi_k in zip(orders, scales, _psi(m * piy, orders))]
            return terms, max(abs(term).hi for term in terms)

        def tail(n):
            # for m > n: u <= r^m, 1/v <= d and |N_k| <= 2(1+m pi y)^2 <= 2 m^2 (1+pi y)^2, so
            # with p = k + 1 and w_m <= 2 a term is at most 4 scale d^p (1+pi y)^2 m^p r^m and
            # a term ratio at most ((n+2)/(n+1))^p r
            r = (-(pi * ylo)).exp()
            rn = r ** (n + 1)
            d = geometric_tail(Enclosure(1), rn)
            spread = (1 + piy) ** 2
            return [geometric_tail(4 * scale * d ** p * spread * Enclosure((n + 1) ** p) * rn,
                                   Enclosure(Fraction(n + 2, n + 1)) ** p * r)
                    for p, scale in zip((k + 1 for k in orders), scales)]

        what = f"lambert series (orders {orders[0]}..{orders[-1]})"
        signs = [1 if k == 0 else 0 for k in orders]  # psi > 0, so all terms of f are positive
        return certified_sum(what, cfg, [Enclosure(0)] * len(orders), step, tail, signs,
                             gate_divisor=16)
