"""Mechanical verification of the convexity/monotonicity proof chains.

The target statement is that f(y) = y^2 theta4'(y)/theta4(y) is strictly
convex and strictly decreasing on (0, oo).  The proof splits at y = 1:

* large y (Lambert route): f''(y) = sum_m w_m m pi psi''(m pi y), psi(s) =
  s^2/(e^s - 1); its m = 1 term is positive because
  g(y) = 2(E-1)^2 - 4 y pi E (E-1) + pi^2 y^2 E (E+1) = (E-1)^3 psi''(pi y),
  E = e^{pi y}, is positive for y >= 1 (psi'' > 0 on [pi, oo)), every other
  term by an elementary bracket.  Each termwise bracket depends on n and y
  only through t = n pi y or s = (2n-1) pi y, so one claim in that
  variable covers every n;

* small y (modular route): f''(y) = h(y)/theta4(y)^3 and h(1/y) is a
  five-term combination of theta2 derivatives which the envelope bounds
  reduce to an exponential polynomial
  y^{9/2} e^{-27 pi y/4} ( e^{4 pi y}(alpha y - beta)
                         + e^{2 pi y}(-gamma y - delta) - eps y - zeta )
  whose positivity for y >= 1 follows from integer-rounded coefficients
  and one final bracket, derived from the rounded one by two computed
  weakening steps;

* decreasing: termwise negativity of f' for y >= 2/pi, again one claim per
  bracket in its scaled variable, extended to all of (0, oo) by convexity.

Every bracket is an ExpPoly, and every claim that must hold for all x past a
corner (the termwise brackets, g'', the small-y final bracket, a dropped
summand, a weakening step) is one :meth:`ExpPoly.sign_from` call, with no
subdivision; a bracket's record is :func:`_certify_bracket`.  Every step is
certified with enclosures; nothing is trusted from a printout.  The adaptive
engine behind interval claims is :func:`thetacert.certify.certify_sign`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from types import SimpleNamespace

from . import envelopes, theta
from .certify import CertificationReport, Check, certify_sign
from .enclosure import (_BALL_TWO, DEFAULT_CONFIG, Ball, Enclosure, EvalConfig, Jet, _ball_exceeds,
                        _below, _thin_ball, as_enclosure)
from .envelopes import _envelope_poly, check_c_admissible
from .exppoly import DegreeError, ExpPoly
from .modular import _f_modular
from .theta import _ONE, _lambert_sum, _theta2, _theta4

__all__ = [
    "g_second",
    "verify_g_chain",
    "verify_even_terms_large_y",
    "verify_odd_terms_large_y",
    "greek_bracket",
    "checked_greek_constants",
    "small_y_bracket",
    "verify_small_y_chain",
    "h_reciprocal",
    "f_eval",
    "f_prime",
    "f_second",
    "QUANTITIES",
    "verify_convexity",
    "verify_decreasing_argument",
]


# ---------------------------------------------------------------------------
# half-line claims: a bracket in one variable, certified past a corner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Bracket:
    """An exponential polynomial claimed to have `sign` past a corner.  For the termwise
    brackets the variable is t = n pi y or s = (2n-1) pi y, so one claim covers every n."""

    name: str
    var: str
    sign: int
    poly: ExpPoly


def _certify_bracket(bracket: _Bracket, corner, cfg: EvalConfig, *premises: Check):
    """Prove `bracket` has its sign for every x >= corner, given `premises`: one check,
    decided by :meth:`ExpPoly.sign_from`."""
    with cfg.scope():
        corner = as_enclosure(corner)
        passed = bracket.poly.sign_from(corner, bracket.sign)
    claim = f"bracket {'>' if bracket.sign > 0 else '<'} 0 for {bracket.var} >= corner"
    detail = (f"{bracket.var} from {corner!r}: coefficient signs at the corner, else "
              f"bracket/{bracket.var}^{bracket.poly.degree} enclosed past it")
    return CertificationReport.chain(bracket.name, [*premises, Check(claim, passed, detail)])


# ---------------------------------------------------------------------------
# the auxiliary function g and its chain (large-y route, n = 1 odd term)
# ---------------------------------------------------------------------------


#: x = pi y and e = e^x, the variable and the exponential of the g-chain
_X, _E = ExpPoly({0: (0, 1)}), ExpPoly.exponential(1)
#: theta._numerators' arithmetic on ExpPoly (a precision argument ignored): exact at rate 1
_EXPPOLYS = SimpleNamespace(mul=lambda a, b, _: a * b, add=lambda a, b, _: a + b,
                            sub=lambda a, b, _: a - b, shift=lambda a, k: a.scale(2 ** k),
                            const=lambda c, _: ExpPoly.exponential(0, c))


def _g_polys() -> tuple[ExpPoly, ExpPoly, ExpPoly]:
    """g, g' and g'' in x: g = 2(1-e)^2 + 4x e(1-e) + x^2 e(1+e) = (e-1)^3 psi''(x), written
    once, and its derivatives by :meth:`ExpPoly.derivative`; integer coefficients at rate 1
    make all three exact at any precision."""
    g = 2 * (1 - _E) * (1 - _E) + 4 * _X * _E * (1 - _E) + _X * _X * _E * (1 + _E)
    gp = g.derivative()
    return g, gp, gp.derivative()


#: g, g', g'' in x, read by the g-chain and g_second at call time
_G = _g_polys()

#: the fixed six-term grouping of g'' used by the positivity argument,
#: 2 E pi^2 + 2 E^2 pi^2 + 4 E^2 pi(-4 pi + 2 pi^2 y) + 2 E pi(4 pi + 2 pi^2 y)
#: + 4 E^2 pi^2 (2 - 4 pi y + pi^2 y^2) + E pi^2 (-4 + 4 pi y + pi^2 y^2), over pi^2 in x
_G_DISPLAY = (2 * _E + 2 * _E * _E + 4 * _E * _E * (-4 + 2 * _X) + 2 * _E * (4 + 2 * _X)
              + 4 * _E * _E * (2 - 4 * _X + _X * _X) + _E * (-4 + 4 * _X + _X * _X))


def _in_y(poly: ExpPoly, order: int, y, cfg: EvalConfig) -> Enclosure:
    """pi^order poly(pi y): an order-th x-derivative `poly` as the y-derivative, d/dy = pi d/dx."""
    with cfg.scope():
        pi = Enclosure.pi()
        return pi ** order * poly.eval(pi * as_enclosure(y), cfg)


def g_second(y, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """g''(y) from ExpPoly.derivative."""
    return _in_y(_G[2], 2, y, cfg)


#: the displayed grouping collected in x = pi y: g'' = pi^2 e^{2x} B(x) with
#: B(x) = 4x^2 - 8x - 6 + e^{-x}(x^2 + 8x + 6)
_G_BRACKET = _Bracket("g-second-positive", "x", +1, ExpPoly({0: (-6, -8, 4), -1: (6, 8, 1)}))


def verify_g_chain(cfg: EvalConfig = DEFAULT_CONFIG) -> CertificationReport:
    """Certify the whole g-argument: g''(y) > 0 for pi y >= 1 + sqrt 3,
    g'(1) > 0, g(1) > 0, hence g(y) > 0 for all y >= 1: psi'' > 0 on [pi, oo)."""
    g, gp, gpp = _G
    # transcription anchor, exact in x: g is e^{2x} N_2 = (e^x - 1)^3 psi''(x), N_2 from the
    # Lambert evaluator's own theta._numerators, and its g'' is both the display and e^{2x} B,
    # B certified below (a corrupted g or B breaks this, not the positivity, which would only
    # get easier)
    u = ExpPoly.exponential(-1)
    n2 = theta._numerators(_X, 1 - u, u, (2,), _EXPPOLYS, 0)[0].shift(2)
    gaps = (g - n2, gpp - _G_DISPLAY, gpp - _G_BRACKET.poly.shift(2))
    checks = [Check("g'' matches its displayed grouping", not any(gap.terms() for gap in gaps),
                    "g - e^{2x} N_2, g'' - display, g'' - e^{2x} B: every coefficient exactly 0")]
    with cfg.scope():
        pi = Enclosure.pi()
        corner = 1 + Enclosure(3).sqrt()
        checks.append(
            Check(
                "corner 1 + sqrt 3 below pi",
                _below(corner, pi),
                f"y >= 1 gives x = pi y >= {pi!r} > {corner!r}",
            )
        )
        g1, gp1 = _in_y(g, 0, 1, cfg), _in_y(gp, 1, 1, cfg)
        checks.append(Check("g'(1) > 0", _below(0, gp1), f"g'(1) = {gp1!r}"))
        checks.append(Check("g(1) > 0", _below(0, g1), f"g(1) = {g1!r}"))

    subreports = [_certify_bracket(_G_BRACKET, corner, cfg)]
    return CertificationReport.chain("g-chain", checks, subreports, (
        "conclusion: g > 0 on [1, oo)",
        "g'' > 0 on [1, oo) makes g' increasing; g'(1) > 0 makes g increasing; g(1) > 0 finishes"))


# ---------------------------------------------------------------------------
# termwise large-y brackets, each in its scaled variable
# ---------------------------------------------------------------------------

#: f'' even index: t(1+e^{-2t}) - 2(1-e^{-2t}) = t - 2 + e^{-2t}(t + 2) > 0 for t >= 2
_EVEN_CONVEX = _Bracket("even-terms-large-y", "t", +1, ExpPoly({0: (-2, 1), -2: (2, 1)}))
#: f'' odd index n >= 2: s - 4 > 0 for s >= 3 pi
_ODD_CONVEX = _Bracket("odd-terms-large-y", "s", +1, ExpPoly({0: (-4, 1)}))
#: f' even index: 1 - t - e^{-2t} < 0 for t >= 2
_EVEN_DECREASING = _Bracket("decreasing-even-bracket", "t", -1, ExpPoly({0: (1, -1), -2: (-1,)}))
#: f' odd index: 2 - s - 2 e^{-s} < 0 for s >= 2
_ODD_DECREASING = _Bracket("decreasing-odd-bracket", "s", -1, ExpPoly({0: (2, -1), -1: (-2,)}))


def verify_even_terms_large_y(cfg: EvalConfig = DEFAULT_CONFIG) -> CertificationReport:
    """Certify the even-index f'' bracket for every n >= 1 and y >= 2/pi.

    In t = n pi y the bracket is t(1+e^{-2t}) - 2(1-e^{-2t}), and y >= 2/pi
    gives t >= 2 for every n, so one claim on t >= 2 covers all terms.
    """
    return _certify_bracket(_EVEN_CONVEX, 2, cfg)


def verify_odd_terms_large_y(cfg: EvalConfig = DEFAULT_CONFIG) -> CertificationReport:
    """Certify the odd-index f'' chain for every n >= 2 and y >= 1.

    With s = (2n-1) pi y >= 3 pi the chain drops the summand s + 4, positive by
    the coefficient-sign rule, and then needs s e^{w} - 4 e^{w} > 0, i.e. s - 4 > 0
    for s >= 3 pi.
    """
    with cfg.scope():
        corner = 3 * Enclosure.pi()
        drop = Check("dropped summand positive", ExpPoly({0: (4, 1)}).sign_from(corner, +1),
                     "s + 4 = (3 pi + 4) + u, u = s - 3 pi >= 0, has coefficients of one sign, "
                     "so dropping it only weakens the bracket")
    return _certify_bracket(_ODD_CONVEX, corner, cfg, drop)


# ---------------------------------------------------------------------------
# the exponential-polynomial bracket and its six constants
# ---------------------------------------------------------------------------


#: h(1/y) = y^{9/2} sum_terms coeff y^power a_i a_j a_k over (coeff, power, (i, j, k)), with
#: a_nu = (-1)^nu theta2^(nu)(y) > 0: :func:`h_reciprocal` sums it on theta2 values,
#: :func:`greek_bracket` on envelopes
_H_TERMS = ((2, 0, (1, 1, 0)), (-2, 0, (2, 0, 0)), (2, 1, (1, 1, 1)), (-3, 1, (2, 1, 0)),
            (1, 1, (3, 0, 0)))


def greek_bracket(cfg: EvalConfig = DEFAULT_CONFIG) -> ExpPoly:
    """The five-product envelope lower bound for h(1/y), divided by y^{9/2}: _H_TERMS with
    lower envelopes in its positive terms and upper ones in its negative terms:

    2 l1^2 l0 - 2 u2 u0^2 + y (2 l1^3 - 3 u2 u1 u0 + l3 l0^2), expanded over
    exponents e^{k pi y/4}, k in {-3, -11, -19, -27}.  These products make no y^2
    coefficient, so one raises :class:`DegreeError`: a formula was mistranscribed.  The upper
    envelopes take envelopes.PAPER_CONSTANTS as it stands at the call: the table that the
    admissibility premises of the small-y chain certify.
    """
    with cfg.scope():
        lower = [_envelope_poly(nu) for nu in range(4)]
        upper = [_envelope_poly(nu, envelopes.PAPER_CONSTANTS.for_order(nu)) for nu in range(4)]
        terms = []
        for coeff, power, (i, j, k) in _H_TERMS:
            env = lower if coeff > 0 else upper
            term = (env[i] * env[j] * env[k]).scale(coeff)
            terms.append(term.mul_y() if power else term)
        poly = reduce(add, terms)
    if poly.degree > 1:
        raise DegreeError(f"the envelope-product bracket has a y^{poly.degree} coefficient")
    return poly


_CANCEL_WIDTH = 2.0 ** -80


def _cancellation_check(poly: ExpPoly) -> Check:
    """The e^{6 pi y} coefficients (exponent key -3) vanish in exact
    arithmetic: an enclosure that misses 0 disproves the transcription, one
    wider than _CANCEL_WIDTH leaves it undecided at this precision."""
    coeffs = poly.coefficient(-3)
    passed = all(c.contains_zero() for c in coeffs) and (
        True if all(c.width <= _CANCEL_WIDTH for c in coeffs) else None
    )
    return Check(
        "leading e^(6 pi y) cancellation",
        passed,
        "y coefficient {!r}, constant coefficient {!r}".format(*reversed(coeffs)),
    )


#: the sign convention: where greek_bracket() holds each constant, as (exponent key,
#: power of y, sign), so that past the cancelled e^{-3 pi y/4} term the bracket is
#: e^{-11 pi y/4}(alpha y - beta) - e^{-19 pi y/4}(gamma y + delta) - e^{-27 pi y/4}(eps y + zeta)
_SLOTS = {"alpha": (-11, 1, +1), "beta": (-11, 0, -1), "gamma": (-19, 1, -1),
          "delta": (-19, 0, -1), "epsilon": (-27, 1, -1), "zeta": (-27, 0, -1)}


def _greek_checks(poly: ExpPoly) -> tuple[list[Check], dict[str, Enclosure] | None]:
    """The e^{6 pi y} cancellation, then the constants read off the bracket by _SLOTS, keyed and
    ordered as there, and their sign/order invariants; None unless every check passed."""
    checks = [_cancellation_check(poly)]
    if not checks[0].passed:
        return checks, None
    greek = {name: sign * poly.coefficient(k)[i] for name, (k, i, sign) in _SLOTS.items()}
    checks += [Check(f"{name} strictly positive", _below(0, value), "")
               for name, value in greek.items()]
    checks.append(Check("alpha < gamma", _below(greek["alpha"], greek["gamma"]), ""))
    checks.append(Check("beta < delta", _below(greek["beta"], greek["delta"]), ""))
    return checks, greek if all(c.passed for c in checks) else None


def checked_greek_constants(
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> tuple[list[Check], dict[str, Enclosure] | None]:
    """Expand the envelope-product bracket and collect its six constants, with their checks:
    the e^{6 pi y} cancellation (False when the coefficients miss 0, a transcription error;
    None when they enclose 0 too widely to confirm it), then the six "strictly positive"
    checks, alpha < gamma and beta < delta; the constants, {name: value} in _SLOTS order,
    come back None when a check did not pass."""
    with cfg.scope():
        return _greek_checks(greek_bracket(cfg))


#: the constants rounded in the weakening direction: down where _SLOTS signs +1 (alpha), else up
_ROUNDED = {
    "alpha": 1984,
    "beta": 632,
    "gamma": 1986,
    "delta": 632,
    "epsilon": 2,
    "zeta": Fraction(2, 25),
}
#: an integer below e^{2 pi}, which bounds e^{2 pi y} from below on y >= 1
_E2PI_FLOOR = 535


def _absorbed(r) -> tuple:
    """The paper's e^{2 pi y} polynomial (E-2) alpha y - (E-1) beta, E = _E2PI_FLOOR, on the
    constants `r`, as (constant, y coefficient)."""
    return -(_E2PI_FLOOR - 1) * r["beta"], (_E2PI_FLOOR - 2) * r["alpha"]


def _small_y_brackets() -> tuple[ExpPoly, _Bracket]:
    """The rounded bracket (_ROUNDED placed by _SLOTS) and the final bracket derived from it.

    e^{27 pi y/4} times the rounded bracket is e^{4 pi y} A + e^{2 pi y} B + C, A = alpha y
    - beta; the final bracket over e^{2 pi y} is P + e^{-2 pi y} C, P = _absorbed, which
    :func:`_weakening_checks` justifies.  Call inside a precision scope.
    """
    terms: dict[int, list] = {}
    for name, (k, i, sign) in _SLOTS.items():
        terms.setdefault(k, [0, 0])[i] = sign * _ROUNDED[name]
    rounded = ExpPoly(terms, Enclosure.pi() / 4)
    final = ExpPoly({-19: _absorbed(_ROUNDED), -27: rounded.coefficient(-27)}, rounded.rate)
    return rounded, _Bracket("small-y-final-bracket", "y", +1, final.shift(19))


def _weakening_checks(rounded: ExpPoly, final: _Bracket) -> list[Check]:
    """The computed steps from the rounded bracket to the final one.  A >= 0 and e^{2 pi y} > E
    on y >= 1 shrink e^{4 pi y} A to e^{2 pi y} E A; E A + B - P >= 0 there (P the final
    bracket's e^{2 pi y} polynomial) replaces E A + B by P.  Call inside a precision scope."""
    e2pi = (2 * Enclosure.pi()).exp()
    quartic, square = (ExpPoly({0: rounded.coefficient(k)}) for k in (-11, -19))
    surplus = quartic.scale(_E2PI_FLOOR) + square - ExpPoly({0: final.poly.coefficient(0)})
    return [
        Check(f"e^(2 pi) > {_E2PI_FLOOR}", _below(_E2PI_FLOOR, e2pi), f"e^(2 pi) = {e2pi!r}"),
        Check("e^(4 pi y) coefficient positive", quartic.sign_from(1, +1),
              f"alpha y - beta = {quartic.coefficient(0)} (ascending) keeps its sign from y = 1, "
              f"so multiplying it by e^(2 pi y) >= {_E2PI_FLOOR} only shrinks the e^(4 pi y) term"),
        Check("integer absorption", surplus.sign_from(1, +1),
              f"the surplus {surplus.coefficient(0)} of {_E2PI_FLOOR}(alpha y - beta) - gamma y "
              "- delta over (E-2) alpha y - (E-1) beta keeps its sign from y = 1"),
    ]


def small_y_bracket(y, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """The integer-rounded final bracket e^{2 pi y}(533*1984 y - 534*632) - 2y - 0.08."""
    with cfg.scope():
        y = as_enclosure(y)
        return (2 * Enclosure.pi() * y).exp() * _small_y_brackets()[1].poly.eval(y, cfg)


def verify_small_y_chain(cfg: EvalConfig = DEFAULT_CONFIG) -> CertificationReport:
    """Certify h(1/y) > 0 for y >= 1 (equivalently f'' > 0 on (0, 1]).

    Chain: envelope admissibility (four orders) -> exponential-polynomial
    bracket with constants enclosed -> integer rounding in the weakening
    direction -> multiply the e^{4 pi y} term down by e^{2 pi y} > 535 ->
    integer absorption -> positive final bracket for every y >= 1; the
    weakening steps are :func:`_weakening_checks`.
    """
    subreports = [check_c_admissible(nu, cfg) for nu in range(4)]
    checks, greek = checked_greek_constants(cfg)
    if greek is None:
        return CertificationReport.chain("small-y-chain", checks, subreports)

    r = _ROUNDED
    with cfg.scope():
        for name, value in greek.items():
            down = _SLOTS[name][2] > 0
            checks.append(
                Check(
                    f"rounding direction {name} {'>=' if down else '<='} {r[name]}",
                    _below(r[name], value) if down else _below(value, r[name]),
                    f"{name} = {value!r}; integer rounding must weaken the lower bound",
                )
            )
        rounded, final = _small_y_brackets()
        checks += _weakening_checks(rounded, final)
        subreports.append(_certify_bracket(final, 1, cfg))
    return CertificationReport.chain("small-y-chain", checks, subreports, (
        "conclusion: f'' > 0 on (0, 1]",
        "h(1/y) >= y^(9/2) e^(-27 pi y/4) * bracket > 0 for y >= 1 and "
        "f''(y) = h(y)/theta4(y)^3 with theta4 > 0"))


# ---------------------------------------------------------------------------
# h(1/y)
# ---------------------------------------------------------------------------


def h_reciprocal(y, cfg: EvalConfig = DEFAULT_CONFIG) -> Enclosure:
    """h(1/y) as the five-term theta2 combination _H_TERMS at y (valid for y > 0,
    intended for y >= 1 where the envelope bound applies)."""
    with cfg.scope():
        y = as_enclosure(y)
        a = [-t if nu % 2 else t for nu, t in enumerate(_theta2(y, range(4), cfg))]
        powers = (y ** Fraction(9, 2), y ** Fraction(11, 2))
        return reduce(add, (coeff * powers[power] * a[i] * a[j] * a[k]
                            for coeff, power, (i, j, k) in _H_TERMS))


# ---------------------------------------------------------------------------
# dispatching f evaluators and the certified-quantity registry
# ---------------------------------------------------------------------------


def _f_jet(y: Enclosure | Ball, t) -> Jet:
    """f = y^2 theta4'/theta4 as a Jet in y, from t = (theta4, theta4', ...) at y; its
    entries are f, f', f'' up to order len(t) - 2.  y^2 is the exact Jet (y^2, 2y, 2): the bits of
    Jet(y, 1) * Jet(y, 1), without its products by 0 and 1.  Call inside a precision scope."""
    return Jet(y * y, y + y, _BALL_TWO if type(y) is Ball else 2) * (Jet(*t[1:]) / Jet(*t[:3]))


#: the working interval of the desk-scale convexity certification
_INTERVAL = ("0.05", 20)
#: the window on which both evaluation routes are certified separately
_OVERLAP = ("0.8", "1.25")
#: the boundary of `auto`'s routes: modular on y <= 1, Lambert on y >= 1
_ROUTE_CUT = 1


def _f(y, orders: range, cfg: EvalConfig, route: str = "auto") -> list:
    """f^(k)(y) for each order k of `orders`, from one series pass per route.  `auto` takes a box
    modular on y <= _ROUTE_CUT = 1 and Lambert (:func:`_lambert_sum`) on y >= 1, so a box [lo, hi]
    around 1 is, entry by entry, the hull of the routes on [lo, 1] and [1, hi].  A thin y (width
    <= cfg.tol) runs on its Ball, routed by the Ball's integers: modular up to 1, else
    :func:`_f_jet` on one theta4 pass, 5 terms at y = 1 to Lambert's 28 and, past 8, cheaper and
    35 (128 bits) to 10^33 (256) times narrower.  A Ball returns Balls, a thin Enclosure
    its Ball's results rounded outward once."""
    if route == "modular":
        return _f_modular(y, orders, cfg)
    if route not in ("auto", "lambert"):
        raise ValueError(f"unknown route {route!r}")
    with cfg.scope():
        if route == "lambert":
            return _lambert_sum(y, orders, cfg)
        given = type(y) is Ball
        ball = y if given else _thin_ball(y := as_enclosure(y), cfg)
        if ball is not None:
            if not _ball_exceeds(ball, _ONE[1], False):  # at most 1
                return _f_modular(y, orders, cfg)
            jet = tuple(_f_jet(ball, _theta4(ball, range(orders[-1] + 2), cfg)))
            return [jet[k] if given else jet[k].enclosure() for k in orders]
        if y.hi <= _ROUTE_CUT:
            return _f_modular(y, orders, cfg)
        if y.lo >= _ROUTE_CUT:
            return _lambert_sum(y, orders, cfg)
        below = _f_modular(Enclosure(y.lo, _ROUTE_CUT), orders, cfg)
        above = _lambert_sum(Enclosure(_ROUTE_CUT, y.hi), orders, cfg)
        return [m.hull(lam) for m, lam in zip(below, above)]


def f_eval(y, cfg: EvalConfig = DEFAULT_CONFIG, route: str = "auto") -> Enclosure:
    """f(y) = y^2 theta4'(y)/theta4(y) routed as :func:`_f`: modular below 1, Lambert above
    (a thin y from the theta4 Jet), a box across 1 split there and hulled."""
    return _f(y, range(1), cfg, route)[0]


def f_prime(y, cfg: EvalConfig = DEFAULT_CONFIG, route: str = "auto") -> Enclosure:
    """f'(y), routed as :func:`f_eval`; f' < 0 on (0, oo) is one of the two claims."""
    return _f(y, range(1, 2), cfg, route)[0]


def f_second(y, cfg: EvalConfig = DEFAULT_CONFIG, route: str = "auto") -> Enclosure:
    """f''(y), routed as :func:`f_eval`; f'' > 0 on (0, oo) is the convexity claim."""
    return _f(y, range(2, 3), cfg, route)[0]


#: quantities available to sign certification (CLI and tests)
QUANTITIES = {
    "f_second": lambda box, cfg: f_second(box, cfg),
    "f_prime": lambda box, cfg: f_prime(box, cfg),
    "h_reciprocal": lambda box, cfg: h_reciprocal(box, cfg),
    "g_second": lambda box, cfg: g_second(box, cfg),
    "bracket": lambda box, cfg: small_y_bracket(box, cfg),
}


def verify_convexity(cfg: EvalConfig = DEFAULT_CONFIG) -> CertificationReport:
    """Desk-scale convexity: f'' > 0 and f' < 0 on the working interval, each record cut at
    _ROUTE_CUT = 1 so that no box straddles the route boundary ([0.05, 1] is modular, [1, 20]
    Lambert), with the two evaluation routes certified independently on the overlap window."""
    subreports = [
        certify_sign(QUANTITIES["f_second"], _INTERVAL, +1, cfg, name="f-second-positive",
                     cuts=(_ROUTE_CUT,)),
        certify_sign(QUANTITIES["f_prime"], _INTERVAL, -1, cfg, name="f-prime-negative",
                     cuts=(_ROUTE_CUT,)),
        certify_sign(
            lambda b, c: f_second(b, c, route="lambert"),
            _OVERLAP,
            +1,
            cfg,
            name="f-second-positive-lambert-overlap",
        ),
        certify_sign(
            lambda b, c: f_second(b, c, route="modular"),
            _OVERLAP,
            +1,
            cfg,
            name="f-second-positive-modular-overlap",
        ),
    ]
    checks = [Check(r.name, r.status.passed, r.summary()) for r in subreports]
    return CertificationReport.chain("convexity-desk-scale", checks, subreports,
                                     interval=subreports[0].interval)


def verify_decreasing_argument(
    cfg: EvalConfig = DEFAULT_CONFIG,
    *,
    convexity_report: CertificationReport,
) -> CertificationReport:
    """Certify that f is strictly decreasing on (0, oo).

    Termwise, the even f' bracket 1 - t - e^{-2t} (t = n pi y) and the odd
    one 2 - s - 2 e^{-s} (s = (2n-1) pi y) are negative for t, s >= 2, which
    y >= 2/pi gives for every n >= 1.  Convexity (f'' > 0: `convexity_report`,
    a small-y chain, cited by report id) makes f' increasing, so negativity
    on [2/pi, oo) forces negativity on all of (0, oo).
    """
    premise = Check("convexity input", convexity_report.status.passed,
                    f"uses report {convexity_report.report_id}")
    subreports = [_certify_bracket(b, 2, cfg) for b in (_EVEN_DECREASING, _ODD_DECREASING)]
    return CertificationReport.chain("decreasing-argument", [premise], subreports, (
        "conclusion: f strictly decreasing on (0, oo)",
        "f' < 0 termwise on [2/pi, oo); f'' > 0 makes f' increasing, so "
        "f'(y) <= f'(t) < 0 for y <= t in [2/pi, 1]"))
