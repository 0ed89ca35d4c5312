"""Rigorous evaluation of theta_2, theta_4 and the log-derivative series.

Every sum is truncated adaptively by one kernel, ``certified_sum``: terms are
accumulated until a *proved* bound on the omitted tail is at most
``cfg.tail_tolerance``, and that bound is attached to the result.  The kernel
owns the ``cfg.max_terms`` cap, every comparison with ``cfg.tol``, the retry
while a tail ratio is not yet below 1, and the tail's sign: [0, b], [-b, 0]
or [-b, b], negating b exactly.  A box takes terms until the upper ends of its
gate and tail bounds pass, as y.lo would, so it can take more terms than a
point of the box; in a sum whose terms share one sign those terms would carry
the box's near-zero end past the point's.  So that end stops where the lower
ends pass the same tests: they are inclusion isotone in y, so a box stops that
end no later than any of its points, and its enclosure contains theirs.
Two callers own the term and tail formulas.
``_quadratic_series`` sums w_n (-c a(n))^r e^{-c (a(n) - a0) y} for an integer a(n) of degree
at most 2, several orders r in one pass: theta4 (a = k^2, alternating), theta2 (a = (2k-1)^2,
c = pi/4, stated once in _THETA2; the envelopes' admissibility sums its terms from the third)
and the modular Q-series (a = j(j+1)); the offset a0 keeps e^{-c a0 y}, which swings by orders
of magnitude across a box, out of the sum.  As a(n+1) - a(n) never falls and
a(n+1)/a(n) never rises, every term ratio past term n is at most (a(n+2)/a(n+1))^r
e^{-c (a(n+2) - a(n+1)) y.lo}, whatever a0, which bounds the top order R's tail geometrically
from the first omitted term at y.lo; it is tried once the first requested order's term is
below tol/4.  A lower order r's tail is at most that bound over (c a(n+1))^(R-r), as
c a(m) >= c a(n+1) for every omitted m; c = pi * scale, with a scale 2^k, is formed once per
pass by shifting pi's endpoints.
``_lambert_sum`` sums the Lambert terms from m = 2, every requested order in one pass,
with one tail bound per order tried once the largest term is below tol/16.
Both take every exponential of a pass from one exp, q = e^{-c y} or u_1 = e^{-pi y}
(a Lambert pass takes one more, at the midpoint of its mean-value form for m = 1),
by q^{a(n+1)} = q^{a(n)} q^{a(n+1) - a(n)} (u_m = u_{m-1} u_1).  Every factor is a
positive enclosure decreasing in y, so an outward-rounded product's lower end bounds
its value at y.hi from below and its upper end its value at y.lo from above: it
encloses the exact range on any box, and its upper end bounds the omitted terms.
Term steps, gates, tail bounds and the kernel's partial sums are raw values of one of two
arithmetics, which the type of y picks (``_arithmetic``), under the same stopping rule, tail
formulas, gates and near-end contract.  For an Enclosure y they run on raw libmp interval pairs
at one precision read per pass, rounding each operation as its Enclosure form: the same bits;
only the kernel's `settle` makes Enclosures, one per result.  For a Ball y, the thin passes of
verifier._f
(width <= cfg.tol), they run on midpoint-radius Balls of Python integers 32 bits above the
working precision: every truncation floors the midpoint and rounds the radius up, so each
operation's result contains the exact image of its operands, and the results stay Balls until
their caller rounds them outward into Enclosures, once.  The Ball path trusts Python's
integers, mpmath's pi as Enclosure.pi encloses it, and one mpmath exp per pass, at q's midpoint
(Ball.exp).

Evaluators:

  _theta4(y, orders)     derivatives of theta4(y) = sum (-1)^k exp(-pi k^2 y), several orders
                         in one pass; modular.theta4_eval is the public theta4
  theta2_series(y, nu)   nu-th derivative of theta2(y) = sum exp(-pi y (n+1/2)^2);
                         _theta2(y, orders) gives several orders in one pass
  psi(s, k)              the Lambert term psi(s) = s^2/(e^s - 1) and its derivatives
                         psi^(k)(s) = u N_k(s, 1-u, u)/(1-u)^(k+1), u = e^{-s}, k <= 3;
                         _numerators(s, v, u, orders, ar) is the one transcription of N_k,
                         which the g-chain anchor also runs, on ExpPoly
  _lambert_sum(y, orders) f^(k)(y) for f(y) = y^2 theta4'(y)/theta4(y), as the Lambert-type
                         sum f^(k)(y) = sum_{m>=1} w_m (m pi)^(k-1) psi^(k)(m pi y),
                         w_m = 2 (m odd), 1 (m even): one term formula, several orders in
                         one pass; f_eval/f_prime/f_second take it on boxes in [1, oo) and
                         with route="lambert" (a thin y above 1 takes _theta4's Jet); every
                         pass encloses its m = 1 term by a mean-value form met with its natural
                         form, from one more exp

The direct series are primitives valid for any y > 0 but converge slowly
as y -> 0; public dispatch for small y lives in :mod:`thetacert.modular` (theta4)
and :mod:`thetacert.verifier` (f).
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

from mpmath import libmp as _lm

from .enclosure import (
    _BALL_GUARD_BITS,
    DEFAULT_CONFIG,
    Ball,
    ConvergenceError,
    DomainError,
    Enclosure,
    EvalConfig,
    _ball_add,
    _ball_const,
    _ball_div,
    _ball_exceeds,
    _ball_mul,
    _ball_pow_int,
    _ball_sub,
    _to_raw_pair,
    as_enclosure,
    current_precision,
    precision,
)

__all__ = [
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


_ONE = (_lm.fone, _lm.fone)


def _arithmetic(element) -> SimpleNamespace:
    """The arithmetic of a kernel element or a series argument: Balls for a Ball, else pairs."""
    return _BALLS if type(element) is Ball else _PAIRS


def _geometric_tail(first, ratio, prec: int) -> tuple:
    """first * (1 + r + r^2 + ...) on raw intervals or Balls, rounded as first / (1 - r), for a
    ratio r certified below 1; raises ConvergenceError when 1 - r's lower end is not positive."""
    ar = _arithmetic(ratio)
    rest = ar.sub(ar.const(1, prec), ratio, prec)
    if not ar.positive(rest):
        raise ConvergenceError("tail ratio not certified below 1")
    return ar.div(first, rest, prec)


def certified_sum(what: str, cfg: EvalConfig, start, step, tail, signs, gate_divisor: int = 1,
                  tol_shift: int = 0):
    """The series kernel; its contract is in the module docstring.

    start: the partial sums before term 1.  step(k) for k = 1 .. cfg.max_terms: (terms,
    gate), the k-th term of each sum and a positive value; the tails are tried once gate's
    upper end is at most tol / gate_divisor, a power of two, where tol = cfg.tol 2^-tol_shift.
    tail(k), called right after step(k): values whose upper ends bound the omitted |tails|
    past term k, which must reach tol.  Gate and tails must be inclusion isotone in y, and
    tail raises ConvergenceError on a box wherever it does on a point.
    signs: +1 or -1 where every term has that sign, 0 where signs mix.
    Raw values of one arithmetic in, summed on libmp pairs at one precision read, rounding as
    Enclosure addition does, or on Balls; `settle` alone makes each result, an Enclosure or a Ball.
    """
    ar = _arithmetic(start[0])
    prec, add, exceeds = current_precision() + ar.guard, ar.add, ar.exceeds
    tol = _lm.mpf_shift(cfg.tol._mpf_, -tol_shift)
    gate_tol = _lm.mpf_shift(tol, 1 - gate_divisor.bit_length())  # tol / gate_divisor, exact
    sums = near = start
    near_open = any(signs)  # near: the sums up to where the near-zero ends stop
    for k in range(1, cfg.max_terms + 1):
        terms, gate = step(k)
        sums = [add(s, t, prec) for s, t in zip(sums, terms)]
        if near_open:
            near = sums
        if exceeds(gate, gate_tol, near_open):
            continue
        try:
            bounds = tail(k)
        except ConvergenceError:  # a box raises wherever its points do: stop with them
            near_open = False
            continue
        if near_open:
            near_open = any(exceeds(b, tol, True) for b in bounds)
        if not exceeds(gate, gate_tol, False) and not any(exceeds(b, tol, False) for b in bounds):
            return [ar.settle(s, b, n, sign, prec)
                    for s, n, b, sign in zip(sums, near, bounds, signs)]
    raise ConvergenceError(f"{what} did not reach tail tolerance within {cfg.max_terms} terms")


def _settle(total: tuple, bound: tuple, near: tuple, sign: int, prec: int) -> Enclosure:
    """total + [0, b], [-b, 0] or [-b, b] on raw pairs, b the bound's upper end (negating an
    mpf b would round to 53 bits), with the near-zero end of a one-signed sum taken from its
    shorter partial sum `near`; the terms between them share the sign, so the true sum lies
    beyond near's end."""
    b = bound[1]
    tail = (_lm.fzero if sign > 0 else _lm.mpf_neg(b), _lm.fzero if sign < 0 else b)
    lo, hi = _lm.mpi_add(total, tail, prec)
    if sign > 0 and _lm.mpf_cmp(near[0], lo) < 0:
        lo = near[0]
    if sign < 0 and _lm.mpf_cmp(near[1], hi) > 0:
        hi = near[1]
    return Enclosure._from_mpi((lo, hi))


def _ball_settle(total: Ball, bound: Ball, near: Ball, sign: int, prec: int) -> Ball:
    """_settle on Balls: the tail [0, b], [-b, 0] or [-b, b] is a ball, and a one-signed sum's
    near-zero end moves out by the gap to near's, where near's lies beyond it."""
    u, e = bound.m + bound.r, bound.e
    out = _ball_add(total, Ball(sign * u, u, e - 1) if sign else Ball(0, u, e), prec)
    if sign and near is not total:  # sign * m - r: the near-zero end, times sign, exactly
        gap = _ball_sub(Ball(sign * out.m - out.r, 0, out.e),
                        Ball(sign * near.m - near.r, 0, near.e), prec)
        g = gap.m + gap.r
        if g > 0:
            out = _ball_add(out, Ball(-sign * g, g, gap.e - 1), prec)
    return out


#: The raw operations of the kernel, a quadratic pass and `_numerators`, with libmp's signatures,
#: on libmp interval pairs or on Balls, at the working precision plus `guard` bits.  unwrap: pi's
#: or a q power's raw value; positive(v): v's lower end is above 0; exceeds(x, t, lower): x's
#: lower (or upper) end is above the positive raw mpf t; top(v): an integer with 2^(top - 1) <=
#: v's upper end; scaled(v, k, prec): a chain value v times 2^k, rounded outward to prec bits as
#: that product rounds (a Ball chain value has no more, so is only shifted); settle: the result.
_PAIRS = SimpleNamespace(
    guard=0, mul=_lm.mpi_mul, add=_lm.mpi_add, sub=_lm.mpi_sub, div=_lm.mpi_div,
    neg=_lm.mpi_neg, pow_int=_lm.mpi_pow_int, const=_to_raw_pair,
    shift=lambda x, k, f=_lm.mpf_shift: (f(x[0], k), f(x[1], k)),
    scaled=lambda x, k, prec, f=_lm.mpf_shift, pos=_lm.mpf_pos: (f(pos(x[0], prec, "f"), k),
                                                                 f(pos(x[1], prec, "c"), k)),
    unwrap=lambda x: (x._lo, x._hi), positive=lambda x: _lm.mpf_sign(x[0]) > 0,
    exceeds=lambda x, t, lower: _lm.mpf_cmp(x[0] if lower else x[1], t) > 0,
    top=lambda x: x[1][2] + x[1][3], settle=_settle)
_BALLS = SimpleNamespace(
    guard=_BALL_GUARD_BITS, mul=_ball_mul, add=_ball_add, sub=_ball_sub, div=_ball_div,
    neg=lambda x, prec: -x, pow_int=_ball_pow_int, const=_ball_const, shift=Ball._scaled,
    scaled=lambda x, k, prec: Ball(x.m, x.r, x.e + k),
    unwrap=lambda x: x, positive=Ball.is_strictly_positive,
    exceeds=_ball_exceeds, top=lambda b: (b.m + b.r).bit_length() + b.e, settle=_ball_settle)


def _largest(sizes: list[tuple]) -> tuple:
    """[largest lower end, largest upper end] of raw intervals: inclusion isotone in each."""
    lo, hi = sizes[0]
    for a, b in sizes[1:]:
        lo = a if _lm.mpf_cmp(a, lo) > 0 else lo
        hi = b if _lm.mpf_cmp(b, hi) > 0 else hi
    return lo, hi


#: `_quadratic_series` constants by (a(1), a(2), a(3), scale shift, precision, first and top
#: order), then by index: a thin pass at 128 bits stops by index 6; _BALL_CONSTANTS holds those
#: of the Ball passes, by their precision
_SERIES_CONSTANTS: dict[tuple, dict[int, tuple]] = {}
_BALL_CONSTANTS: dict[tuple, dict[int, tuple]] = {}
_TABLED_INDICES = 8


def _quadratic_series(what, y, a, orders: range, cfg, scale=1, weight=1, alternating=False, start=0,
                      a0=0, relative=False):
    """start + sum_{n>=1} w_n (-c a(n))^r e^{-c (a(n) - a0) y} for each order r (start: r = 0).

    c = pi * scale with a scale 2^k, so y * scale and c are exact shifts; a(n) is an integer
    polynomial of degree at most 2 with a(n+1) - a(n) non-decreasing and a(n+1)/a(n)
    non-increasing, as the geometric tail bound needs; w_n = weight, times (-1)^n if
    `alternating`, for a weight 2^j: w_n E_n is E_n rounded to the working precision and shifted
    by j, the product's bits without an interval product.  The offset a0 <= a(1) multiplies every
    term by e^{c a0 y}; with a0 = a(1) the first term is exact.  Each order after the first is the
    previous term times c a(n), so the orders must be consecutive.  Call inside cfg.scope().
    One exp per call: q = e^{-c y}, E_n = q^(a(n) - a0), R_n = q^(a(n+1) - a(n)), and
    E_{n+1} = E_n R_n, R_{n+1} = R_n D with D = q^(a(3) - 2 a(2) + a(1)), the constant second
    difference (D = 1 for a linear a).  These positive factors decrease in y, so each
    outward-rounded product encloses the exact range on a box, and the upper ends of E_{n+1}
    and R_{n+1} bound the tail, geometric at the top order R: tail_r = tail_R / (c a(n+1))^(R-r).
    The y-independent factors c a(k), (c a(k))^first, (c a(k))^R, (a(k+1)/a(k))^R and
    (c a(k))^(R-r) come from _SERIES_CONSTANTS up to index _TABLED_INDICES, with the bits of a
    fresh computation, each index stored on its own; past it a step forms c a(n) alone.
    `relative`: the sums go to tol times a power of two at most E_1 (gate and tails), as
    sums of size 1 go to tol, and not to tol itself.
    An Enclosure y runs on raw pairs and returns Enclosures; a Ball y (a thin pass) runs on
    Balls, 32 bits above the working precision throughout, and returns Balls.
    """
    if tuple(orders) != tuple(range(orders[0], orders[-1] + 1)):
        raise ValueError(f"{what}: orders must be consecutive, got {tuple(orders)}")
    num, den = scale.as_integer_ratio()
    if num <= 0 or num & (num - 1) or den & (den - 1):
        raise ValueError(f"{what}: the scale must be a power of two, got {scale}")
    if type(weight) is not int or weight <= 0 or weight & (weight - 1):
        raise ValueError(f"{what}: the weight must be a power of two, got {weight}")
    a1, a2, a3 = a(1), a(2), a(3)
    if a(4) - 3 * a3 + 3 * a2 - a1:
        raise ValueError(f"{what}: the exponents a(n) must be quadratic in n")
    ar = _arithmetic(y)
    shift, pi = num.bit_length() - den.bit_length(), type(y).pi()  # scale = 2^shift
    c = ar.shift(ar.unwrap(pi), shift)
    # q^a(n) has a(n) times q's relative width and the products' roundings add up to about
    # n^2/2 ulps: 32 more bits keep both below a working ulp while a(n) < 2^24 (theta2 at 1e-5);
    # a Ball carries them already
    prec = current_precision() + ar.guard
    chain_bits = current_precision() + 32
    with precision(chain_bits - ar.guard):
        q = (-(type(y).pi() * y._scaled(shift))).exp()
        powers = (q ** (a1 - a0), q ** (a2 - a1), q ** (a3 - 2 * a2 + a1))
    e, ratio, d = map(ar.unwrap, powers)  # E_1, R_1, D as raw intervals or Balls
    mul, pow_int, raw, div, neg, scaled = ar.mul, ar.pow_int, ar.const, ar.div, ar.neg, ar.scaled
    first, top, w_shift = orders[0], orders[-1], weight.bit_length() - 1  # weight = 2^w_shift
    table = _BALL_CONSTANTS if ar is _BALLS else _SERIES_CONSTANTS
    known = table.setdefault((a1, a2, a3, shift, prec, first, top), {})

    def constants(k):  # c a(k), (c a(k))^first, (c a(k))^R, (a(k+1)/a(k))^R, (c a(k))^(R-r)
        entry = known.get(k)
        if entry is None:
            ca = mul(c, raw(a(k), prec), prec)
            entry = (ca, pow_int(ca, first, prec), pow_int(ca, top, prec),
                     pow_int(raw(Fraction(a(k + 1), a(k)), prec), top, prec),
                     [pow_int(ca, top - r, prec) for r in orders])
            if k <= _TABLED_INDICES:
                known[k] = entry  # the same bits whichever thread stores them
        return entry

    def step(n):  # on raw intervals, as w * E_n * (c * a(n))^r would round
        nonlocal e, ratio
        mag = scaled(e, w_shift, prec)
        e, ratio = mul(e, ratio, chain_bits), mul(ratio, d, chain_bits)
        if n <= _TABLED_INDICES:
            ca, ca_first = constants(n)[:2]
        elif top:  # past the table, c a(n) alone; order 0 alone needs none
            ca = mul(c, raw(a(n), prec), prec)
            ca_first = pow_int(ca, first, prec) if first else None
        if first:
            mag = mul(mag, ca_first, prec)
        terms = [mag]
        for _ in orders[1:]:
            terms.append(mul(terms[-1], ca, prec))
        return [neg(t, prec) if (r + n * alternating) % 2 else t
                for r, t in zip(orders, terms)], mag

    def tail(n):  # right after step(n), e and ratio hold E_{n+1} and R_{n+1}; on raw intervals,
        # the geometric tail of w * E_{n+1} * (c * a(n+1))^R, ratio growth^R * R_{n+1}
        _, _, ca_top, growth_top, lower = constants(n + 1)
        b = _geometric_tail(mul(scaled(e, w_shift, prec), ca_top, prec),
                            mul(growth_top, ratio, prec), prec)
        return [div(b, power, prec) for power in lower]

    sums = [raw(start if r == 0 else 0, prec) for r in orders]
    signs = [0 if alternating else (-1) ** r for r in orders]
    shift = 1 - ar.top(e) if relative else 0  # 2^-shift <= E_1's upper end
    return certified_sum(what, cfg, sums, step, tail, signs, gate_divisor=4, tol_shift=shift)


def _theta4(y, orders: range, cfg: EvalConfig) -> list[Enclosure]:
    """theta4^(r)(y) for each order r of `orders`, in one pass over the terms (Balls for a
    Ball y): the r-th derivative term at index k is (-1)^k (-pi k^2)^r e^{-pi k^2 y}, and the
    symmetric sum over all integers is 1 (at r = 0) plus twice the k >= 1 terms."""
    with cfg.scope():
        y = _check_positive(y if type(y) is Ball else as_enclosure(y), "theta4 series")
        return _quadratic_series("theta4 series", y, lambda k: k * k, orders, cfg,
                                 weight=2, alternating=True, start=1)


#: theta2(y) = sum_{k>=1} weight e^{-pi scale a(k) y} = sum 2 e^{-pi (2k - 1)^2 y/4}, stated
#: once: `_theta2` sums it, and :mod:`thetacert.envelopes` reads it at call time for the
#: envelopes (its terms 1 and 2) and for their admissibility (its terms from 3 on)
_THETA2 = SimpleNamespace(a=lambda k: (2 * k - 1) ** 2, scale=Fraction(1, 4), weight=2)


def _theta2(y, orders: range, cfg: EvalConfig) -> list[Enclosure]:
    """theta2^(r)(y) for each order r of `orders`, in one pass over the terms of `_THETA2`."""
    with cfg.scope():
        y = _check_positive(as_enclosure(y), "theta2_series")
        return _quadratic_series("theta2_series", y, _THETA2.a, orders, cfg,
                                 scale=_THETA2.scale, weight=_THETA2.weight)


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


def _numerators(s, v, u, orders: range, ar, prec: int) -> list:
    """N_k(s, v, u) for each order k of `orders`, in the arithmetic `ar`: psi^(k)(s) = u N_k /
    v^(k+1), u = e^{-s}, v = 1 - u, and N_{k+1} = v(N_k' - N_k) - (k+1) u N_k; the triangle
    inequality gives |N_k| <= 2(1+s)^2 for k <= 2, which the Lambert tails use.  The one
    transcription: `_psi` runs it on raw pairs, the g-chain anchor (g = e^{2s} N_2) and the tests
    of the recursion on ExpPoly, reading it here at call time.  2v and 4s are exact shifts, and
    each constant is formed in the numerator that needs it.  Written by hand rather than as a Jet
    of s^2 u/(1 - u): on s in pi [1, 1.01] that Jet's psi'' is 0.054 wide against 0.018 here,
    and at 128 bits it takes 238 us against 109 us (one core of a 2-core x86 machine, Python
    3.11, pure-Python mpmath 1.3).  A call forms only the requested numerators."""
    mul, add, sub, const = ar.mul, ar.add, ar.sub, ar.const
    v2, s4 = ar.shift(v, 1), ar.shift(s, 2)
    out = []
    for k in orders:
        if k == 0:  # s^2
            out.append(mul(s, s, prec))
        elif k == 1:  # s(2v - s)
            out.append(mul(s, sub(v2, s, prec), prec))
        elif k == 2:  # 2v^2 - 4sv + s^2(1 + u)
            out.append(add(sub(mul(v2, v, prec), mul(s4, v, prec), prec),
                           mul(mul(s, s, prec), add(u, const(1, prec), prec), prec), prec))
        else:  # 6s - 6 - s^2 + u(12 - 4s^2) - u^2(6s + 6 + s^2)
            s6, ss = mul(s, const(6, prec), prec), mul(s, s, prec)
            lead = add(sub(add(s6, const(-6, prec), prec), ss, prec),
                       mul(u, sub(const(12, prec), mul(s4, s, prec), prec), prec), prec)
            out.append(sub(lead, mul(mul(u, u, prec), add(add(s6, const(6, prec), prec), ss, prec),
                                     prec), prec))
    return out


def _psi(s, u, orders: range, prec: int) -> list[tuple]:
    """psi^(k)(s) = u N_k / v^(k+1) for each order k of `orders` as raw intervals at `prec` bits,
    for raw s > 0 and u of e^{-s} over s; one u serves every order, and N_k is `_numerators`."""
    v = _lm.mpi_sub(_ONE, u, prec)
    if _lm.mpf_sign(v[0]) <= 0:  # v's upper end 1 - u.lo is positive, as u.lo < 1
        raise DomainError("division by an enclosure containing zero")
    mul, div, pow_int = _lm.mpi_mul, _lm.mpi_div, _lm.mpi_pow_int
    return [div(mul(u, n, prec), pow_int(v, k + 1, prec), prec)
            for k, n in zip(orders, _numerators(s, v, u, orders, _PAIRS, prec))]


def psi(s, order: int = 0, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """The Lambert term psi(s) = s^2/(e^s - 1) (order 0) or its derivative of order 1, 2 or 3,
    from the raw-interval `_psi` of the Lambert sums.
    Sound for s > 0 but wide as s -> 0, as v = 1 - e^-s is off by ~2^-prec: at 128 bits psi''
    is 4.6e-20 wide at s = 1e-10 and 4.6e20 at s = 1e-30.  The Lambert sums use s >= pi y."""
    if order not in DERIVATIVE_ORDERS:
        raise ValueError(f"psi order must be one of {DERIVATIVE_ORDERS}, got {order}")
    with cfg.scope():
        s = _check_positive(as_enclosure(s), "psi")
        u = (-s).exp()
        (value,) = _psi((s._lo, s._hi), (u._lo, u._hi), (order,), current_precision())
        return Enclosure._from_mpi(value)


def _lambert_sum(y, orders: range, cfg: EvalConfig) -> list[Enclosure]:
    """f^(k) = sum_{m >= 1} w_m (m pi)^(k-1) psi^(k)(m pi y) for each order k of `orders`,
    in one pass for any y, thin or a box; w_m is 2 for odd m, else 1.  Two exps per pass:
    u_1 = e^{-pi y}, with u_m = u_{m-1} u_1, positive factors decreasing in y, so the
    outward-rounded product encloses e^{-m pi y} on a box and u_1's upper end bounds the tails;
    and one at s0 = pi times y's midpoint rounded to nearest.  The m = 1 term 2 pi^(k-1)
    psi^(k)(S), S = pi y, comes apart: its natural form (s, u, v taken as independent) met with
    the mean-value form psi^(k)(s0) + psi^(k+1)(S)(S - s0), from one `_psi` pass over S (the
    natural form and the slope) and one at s0; on a thin y, s0 = S and the lead is its natural
    form.  The kernel then sums from m = 2 on raw intervals: s_m = pi y times the exact m, and the
    term w_m m^(k-1) * pi^(k-1) * psi^(k), each order with its own tail bound, tried once the
    largest requested |term| is small.  The pass takes pi y as its hull with s0: pi y itself, as
    rounding is monotone, unless y's endpoints carry more bits than the working precision."""
    if max(orders) > 2:  # the tails take |N_k| <= 2(1+s)^2, see _numerators
        raise ValueError(f"lambert series: orders must be at most 2, got {tuple(orders)}")
    with cfg.scope():
        y = _check_positive(as_enclosure(y), "lambert series")
        prec, pi = current_precision(), Enclosure.pi()
        mid = _lm.mpi_mid((y._lo, y._hi), prec)
        s0 = pi * Enclosure._from_mpi((mid, mid))
        piy = (pi * y).hull(s0)
        r, u0 = (-piy).exp(), (-s0).exp()  # u_1 = e^{-pi y}; u_m = u_{m-1} u_1 = e^{-m pi y}
        mul, raw, pow_int, cmp = _lm.mpi_mul, _to_raw_pair, _lm.mpi_pow_int, _lm.mpf_cmp
        piy_r, s0_r, r_r = (piy._lo, piy._hi), (s0._lo, s0._hi), (r._lo, r._hi)
        scale_rs = [(c._lo, c._hi) for c in (pi ** (k - 1) for k in orders)]
        spread = pow_int(_lm.mpi_add(piy_r, _ONE, prec), 2, prec)  # (1 + pi y)^2
        bases = [mul(c, raw(4, prec), prec) for c in scale_rs]  # 4 scale
        u = r_r

        def step(k):  # the kernel's term k is m = k + 1
            nonlocal u
            m, u = k + 1, mul(u, r_r, prec)
            w = 2 if m % 2 else 1  # w_m m^(k-1): exact for k >= 1, w_m/m rounded outward for k = 0
            psis = _psi(mul(piy_r, raw(m, prec), prec), u, orders, prec)
            terms = [mul(mul(raw(w * m ** (k - 1) if k else Fraction(w, m), prec), scale, prec),
                         psi_k, prec) for k, scale, psi_k in zip(orders, scale_rs, psis)]
            return terms, _largest([_lm.mpi_abs(t, prec) for t in terms])

        def tail(j):
            # for m > n = j + 1: u <= r^m, 1/v <= d and |N_k| <= 2(1+m pi y)^2 <= 2 m^2 (1+pi y)^2,
            # so with p = k + 1 and w_m <= 2 a term is at most 4 scale d^p (1+pi y)^2 m^p r^m and
            # a term ratio at most ((n+2)/(n+1))^p r, all at r's upper end e^{-pi y.lo}; on raw
            # intervals, each product rounded left to right as on Enclosures
            n = j + 1
            rn = pow_int(r_r, n + 1, prec)
            d, growth = _geometric_tail(_ONE, rn, prec), raw(Fraction(n + 2, n + 1), prec)
            tails = []
            for p, first in zip((k + 1 for k in orders), bases):
                for factor in (pow_int(d, p, prec), spread, raw((n + 1) ** p, prec), rn):
                    first = mul(first, factor, prec)
                tails.append(_geometric_tail(first, mul(pow_int(growth, p, prec), r_r, prec), prec))
            return tails

        # m = 1 apart, on raw pairs rounded as on Enclosures: psi^(k) and its slope over S, and
        # psi^(k) at s0
        natural = _psi(piy_r, r_r, range(orders[0], orders[-1] + 2), prec)
        centre = _psi(s0_r, (u0._lo, u0._hi), orders, prec)
        ds, two, lead = _lm.mpi_sub(piy_r, s0_r, prec), raw(2, prec), []
        for scale, n, slope, c in zip(scale_rs, natural, natural[1:], centre):
            m = _lm.mpi_add(c, mul(slope, ds, prec), prec)  # holds psi^(k)(S)
            meet = (m[0] if cmp(m[0], n[0]) > 0 else n[0], m[1] if cmp(m[1], n[1]) < 0 else n[1])
            lead.append(Enclosure._from_mpi(mul(mul(two, scale, prec), meet, prec)))
        what = f"lambert series (orders {orders[0]}..{orders[-1]})"
        signs = [1 if k == 0 else 0 for k in orders]  # psi > 0, so all terms of f are positive
        rest = certified_sum(what, cfg, [(_lm.fzero, _lm.fzero)] * len(orders), step, tail, signs,
                             gate_divisor=16)
        return [t + part for t, part in zip(lead, rest)]
