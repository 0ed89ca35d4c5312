"""Shared fixtures and frozen oracle values.

The decimal strings below were produced by independent oracles before the
library was written: theta values come from mpmath.jtheta (a separate
implementation of the same functions) evaluated at 60 significant digits
with derivatives by mpmath.diff; g comes from direct high-precision
evaluation of its closed form; the six
bracket constants come from an exact symbolic expansion of the envelope
products (rational coefficients times powers of pi, recorded here as
exact Fractions).  Tests assert that the library's enclosures contain
these values; they are never fed back into the library.  Above them,
`count_calls` counts the calls of one function, and `count_arithmetic` the Enclosure
arithmetic, for the work-count tests; `n2_mutant` is the one psi numerator transcription with a
mutated N_2, for the tests that require the g-chain anchor to catch it.
Past them, plain-mpmath oracles at any precision: mp_scalar differentiates
numerically, mp_f_modular sums f's Q-series form directly, mp_lambert sums
its Lambert form, and mp_admissibility_factor sums theta2's omitted odd terms.

Below them are the library's own routes by other means, which the tests compare
it against: the theta4 product, h = f'' theta4^3, and handles on private routes
(the modular flip, the Q-series, g and its displayed g''); last, the whole
`verify all --json` report of one in-process run.
"""

import json
from fractions import Fraction

import pytest
from mpmath import mp

from thetacert import ConvergenceError, Enclosure, EvalConfig, precision, theta
from thetacert.cli import main as cli_main
from thetacert.enclosure import DEFAULT_CONFIG, as_enclosure
from thetacert.modular import _theta4_flipped
from thetacert.theta import _check_positive, _quadratic_series, _theta4
from thetacert.verifier import _E, _G, _G_DISPLAY, _X, _f_jet, _in_y


@pytest.fixture
def cfg():
    return EvalConfig()


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap owner.name for the test so that each call appends its arguments to the returned
    list, then runs the original."""
    calls, inner = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_arithmetic(monkeypatch) -> list:
    """Count every Enclosure arithmetic operation for the test, by operator name."""
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__pow__"):
        def counting(self, *args, _inner=getattr(Enclosure, name), _name=name):
            calls.append(_name)
            return _inner(self, *args)

        monkeypatch.setattr(Enclosure, name, counting)
    return calls


def n2_mutant(sv_shift=2, u_coefficient=1):
    """theta._numerators with N_2 = 2v^2 - 2^sv_shift s v + s^2 (1 + u_coefficient u) in its
    grouping, in any arithmetic; the defaults give the true N_2, and the other orders are kept."""
    inner = theta._numerators

    def numerators(s, v, u, orders, ar, prec):
        out = inner(s, v, u, orders, ar, prec)
        if 2 in orders:
            mul, add, sub, const = ar.mul, ar.add, ar.sub, ar.const
            out[list(orders).index(2)] = add(
                sub(mul(ar.shift(v, 1), v, prec), mul(ar.shift(s, sv_shift), v, prec), prec),
                mul(mul(s, s, prec), add(mul(const(u_coefficient, prec), u, prec), const(1, prec),
                                         prec), prec), prec)
        return out
    return numerators


# transcribed from a standard 50-digit table of pi, independent of this code
PI_50 = "3.14159265358979323846264338327950288419716939937510"

# mpmath.jtheta oracles (60 dps), frozen before the build
THETA4_AT_1 = "0.91357913815611682140724259340122208970196391639347"
THETA4_AT_10 = "0.99999999999995457797863351812322641449521812904911"
THETA4_AT_HALF = "0.58797428289171205873317245878220994155912125891491"
THETA2_AT_2 = "0.41576060259602703231450713628474392464887307352961"

THETA4_DERIVS_AT_1 = {
    1: "0.2714334098572979044123093910061595864483",
    2: "-0.851907158546229427374568425696497632166",
    3: "2.665964859758449633590251108171232043109",
}
THETA2_DERIVS_AT_1 = {
    1: "-0.7282229789353563151159306877067706312993",
    2: "0.6475774246427519019177916923728976944553",
    3: "-1.043247915599049393058048426894086567599",
}

F_AT_1 = "0.2971099038066191597091924851761161358148"
F_PRIME_AT_1 = "-0.4265485898799569804978276875359467589682"
F_SECOND_AT_1 = "0.312914517985627062342440253996542395308"
F_SECOND_AT_HALF = "0.0116376024292205823934736311076146301529"
F_SECOND_AT_2 = "0.1966432529180508006373651066771513225227"
F_AT_10 = "1.426974886361445672171820689643526053081e-11"

G_AT_1 = "55.50873816051832654793942009437783179004"
G_PRIME_AT_1 = "3584.503671164381534525486909581056000761"
G_SECOND_AT_1 = "53472.16190675611214814675065349407607647"
QUAD_ROOT = "0.8696387816055827210490940250579981654663"

LOWER_ENVELOPE_1_0 = "0.9135791322176027896035474960472590103731"

H_AT_1 = "0.2385965910918037786180493797"
H_AT_HALF = "0.00236558473909953920992181933675"

# exact values of the six bracket constants: rational multiples of pi^2/pi^3
GREEK_EXACT = {
    "alpha": (Fraction(12799493, 200000), 3),
    "beta": (Fraction(128013, 2000), 2),
    "gamma": (Fraction(5122635254513, 80000000000), 3),
    "delta": (Fraction(640146001297, 10000000000), 2),
    "epsilon": (Fraction(32805956819061, 10 ** 15), 3),
    "zeta": (Fraction(1012517212581, 125 * 10 ** 12), 2),
}

# the printed approximations these constants are reported as
GREEK_PRINTED = {
    "alpha": "1984.32",
    "beta": "631.718",
    "gamma": "1985.41",
    "delta": "631.798",
    "epsilon": "1.01719",
    "zeta": "0.0799451",
}

WITNESS_21_Y = 0.05
WITNESS_21_VALUE = "-21.770330759747983"


def _print_ulp(decimal: str) -> float:
    """One unit in the last printed place of a decimal literal."""
    from decimal import Decimal

    d = Decimal(decimal)
    digits = len(d.as_tuple().digits)
    return float(Decimal(1).scaleb(d.adjusted() - digits + 1))


def assert_contains(enc: Enclosure, decimal: str, slack: float = 0.0):
    """The enclosure must contain the oracle decimal up to its print rounding."""
    with precision(256):
        oracle = Enclosure(decimal)
        pad = Enclosure(max(slack, 2 * _print_ulp(decimal)))
        widened = Enclosure((oracle - pad).lo, (oracle + pad).hi)
        assert enc.intersects(widened), f"{enc!r} misses oracle {decimal}"


def assert_within(enc: Enclosure, decimal: str, tol: float):
    """|midpoint - oracle| <= tol and enclosure width <= tol."""
    with precision(256):
        oracle = Enclosure(decimal)
        diff = abs(enc - oracle)
        assert diff.hi <= tol, f"{enc!r} differs from {decimal} by {diff.hi} > {tol}"


def mp_scalar(fn, y, n=0, dps=40):
    """High-precision scalar oracle via mpmath numerical differentiation."""
    old = mp.dps
    try:
        mp.dps = dps
        y = mp.mpf(y)
        return fn(y) if n == 0 else mp.diff(fn, y, n)
    finally:
        mp.dps = old


def mp_f_modular(y, prec):
    """f, f', f'' at y > 0 by plain mpmath at `prec` bits, from direct sums of Q^(r)(x),
    Q(x) = sum_{j>=0} e^{-pi j(j+1) x} at x = 1/y: with G = Q'/Q, f = pi/4 - y/2 - G,
    f' = -1/2 + x^2 G' and f'' = -x^3 (2 G' + x G'').  No interval arithmetic and no
    e^{-2 pi x} factored out, so it reaches y far below the theta4-based mp_scalar oracle."""
    with mp.workprec(prec):
        y = mp.mpf(y)
        x, q, j = 1 / y, [mp.mpf(0)] * 4, 0
        while True:
            c = mp.pi * j * (j + 1)
            terms = [(-c) ** r * mp.exp(-c * x) for r in range(4)]
            q = [s + t for s, t in zip(q, terms)]
            if c * x > 3 and all(abs(t) <= abs(s) * mp.mpf(2) ** -prec for s, t in zip(q, terms)):
                break
            j += 1
        g = q[1] / q[0]
        g1 = q[2] / q[0] - g * g
        g2 = q[3] / q[0] - 3 * q[1] * q[2] / q[0] ** 2 + 2 * g ** 3
        return mp.pi / 4 - y / 2 - g, x * x * g1 - mp.mpf(1) / 2, -x ** 3 * (2 * g1 + x * g2)


def mp_lambert(y, k):
    """f^(k)(y) = sum_{m >= 1} w_m (m pi)^(k-1) psi^(k)(m pi y), w_m = 2 (m odd), 1 (m even), at
    50 digits, psi^(k) by mpmath's numerical differentiation of s^2/expm1(s): good to about
    1e-45 relative."""
    with mp.workdps(50):
        total, m = mp.mpf(0), 1
        while True:
            s = m * mp.pi * mp.mpf(y)
            term = (2 if m % 2 else 1) * (m * mp.pi) ** (k - 1) * mp.diff(
                lambda t: t * t / mp.expm1(t), s, k)
            total += term
            if s > 10 and abs(term) < mp.mpf(10) ** -60 * abs(total):
                return total
            m += 1


def mp_theta4(y):
    return mp.jtheta(4, 0, mp.e ** (-mp.pi * y))


def mp_theta2(y):
    return mp.jtheta(2, 0, mp.e ** (-mp.pi * y))


def mp_admissibility_factor(nu, y):
    """e^{9 pi y/4} 9^-nu sum_{m >= 5 odd} m^(2 nu) e^{-pi m^2 y/4}, theta2's omitted terms over
    the envelopes' second, by mpmath's nsum at the ambient precision."""
    y = mp.mpf(y)
    def term(j):
        m = 2 * j + 1
        return m ** (2 * nu) * mp.exp(-mp.pi * (m * m - 9) * y / 4)
    return mp.nsum(term, [2, mp.inf]) / 9 ** nu


# --- the library's routes by other means ---


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


def h_direct(y, cfg):
    """h(y) = f''(y) theta4(y)^3, with f'' from the f Jet on one theta4 pass, routed as
    theta4_eval routes y: flipped below 0.2, direct above."""
    with cfg.scope():
        y = as_enclosure(y)
        t = (_theta4_flipped if y.hi * 5 < 1 else _theta4)(y, range(4), cfg)
        return _f_jet(y, t).d2 * t[0] ** 3


def theta4_via_modular(y, nu, cfg):
    """theta4^(nu)(y) by the modular flip alone, at any y > 0."""
    with cfg.scope():
        return _theta4_flipped(as_enclosure(y), range(nu, nu + 1), cfg)[0]


def q_series_derivatives(x, cfg):
    """Q, Q', Q'', Q''' for Q(x) = 1 + sum_{j>=1} e^{-pi j(j+1) x}, in one pass."""
    with cfg.scope():
        return _quadratic_series("Q-series", as_enclosure(x), lambda j: j * (j + 1), range(4),
                                 cfg, start=1)


def g_eval(y, cfg):
    """g(y) = 2(E-1)^2 - 4 y pi E(E-1) + pi^2 y^2 E(E+1) = (E-1)^3 psi''(pi y), E = e^{pi y}."""
    return _in_y(_G[0], 0, y, cfg)


def g_prime(y, cfg):
    """g'(y); it equals -6 pi^2 y E(E-1) + pi^3 y^2 E(2E+1)."""
    return _in_y(_G[1], 1, y, cfg)


def g_second_display(y, cfg):
    """g''(y) by the paper's displayed six-term grouping."""
    return _in_y(_G_DISPLAY, 2, y, cfg)


def g_polys_with_middle_term_flipped():
    """verifier._G with the sign of g's middle term 4x e(1-e) flipped, x = pi y and e = e^x:
    a transcription error that the g-chain's anchor against psi'' must catch."""
    g = _G[0] - 8 * _X * _E * (1 - _E)
    gp = g.derivative()
    return g, gp, gp.derivative()


def verify_all_document(path, precision_bits: int = 128) -> dict:
    """The `verify all --json` document of one in-process run at `precision_bits`, written to
    `path`, without its started_at/finished_at timestamps: all that two runs must share."""
    assert cli_main(["--precision", str(precision_bits), "verify", "all", "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    del doc["started_at"], doc["finished_at"]
    return doc
