"""The proof chains: g, termwise brackets, Greek constants, h, sign certification."""

from fractions import Fraction

import pytest
from mpmath import mp

from thetacert import (
    Enclosure,
    EnvelopeConstants,
    ExpPoly,
    QUANTITIES,
    Status,
    certify_sign,
    checked_greek_constants,
    f_a_second,
    f_eval,
    f_prime,
    f_second,
    g_second,
    h_reciprocal,
    precision,
    small_y_bracket,
    theta4_eval,
    verify_convexity,
    verify_decreasing_argument,
    verify_even_terms_large_y,
    verify_g_chain,
    verify_odd_terms_large_y,
    verify_small_y_chain,
)
from thetacert.enclosure import EvalConfig
from thetacert.envelopes import log_grid
from thetacert.verifier import (_EVEN_CONVEX, _ODD_CONVEX, _Bracket, _certify_bracket, _f,
                                greek_bracket)

from conftest import (
    G_AT_1,
    G_PRIME_AT_1,
    G_SECOND_AT_1,
    GREEK_EXACT,
    H_AT_1,
    H_AT_HALF,
    QUAD_ROOT,
    assert_contains,
    count_arithmetic,
    count_calls,
    g_eval,
    g_polys_with_middle_term_flipped,
    n2_mutant,
    g_prime,
    g_second_display,
    h_direct,
    mp_scalar,
)


# -- g and its chain ---------------------------------------------------------


def test_g_checkpoints(cfg):
    assert_contains(g_eval(1, cfg), G_AT_1)
    assert_contains(g_prime(1, cfg), G_PRIME_AT_1)
    assert_contains(g_second(1, cfg), G_SECOND_AT_1)
    # the printed 3-digit approximations
    assert abs(float(g_eval(1, cfg).mid) - 55.5) < 0.05
    assert abs(float(g_prime(1, cfg).mid) - 3584.5) < 0.05


def test_g_vanishes_at_zero(cfg):
    e = g_eval(Enclosure(0), cfg)
    assert e.contains(0)
    assert e.width < 1e-35


def test_g_prime_against_finite_difference(cfg):
    # crude higher-derivative bounds from the independent scalar oracle
    def g_scalar(y):
        e = mp.e ** (mp.pi * y)
        return 2 * (e - 1) ** 2 - 4 * y * mp.pi * e * (e - 1) + mp.pi ** 2 * y ** 2 * e * (e + 1)

    h = mp.mpf(2) ** -20
    with precision(320):
        for y in ("0.7", "1", "2"):
            ye = Enclosure(y)
            fd = (g_eval(ye + Enclosure(h), cfg) - g_eval(ye - Enclosure(h), cfg)) / Enclosure(2 * h)
            err = abs(fd - g_prime(ye, cfg)).hi
            m3 = abs(mp_scalar(g_scalar, mp.mpf(y), 3, dps=30))
            assert err <= 10 * h ** 2 * max(m3, mp.mpf(1))
            fd2 = (g_prime(ye + Enclosure(h), cfg) - g_prime(ye - Enclosure(h), cfg)) / Enclosure(2 * h)
            m4 = abs(mp_scalar(g_scalar, mp.mpf(y), 4, dps=30))
            assert abs(fd2 - g_second(ye, cfg)).hi <= 10 * h ** 2 * max(m4, mp.mpf(1))


def test_g_derivatives_keep_no_dead_constant_term():
    # g's constant 2 differentiates to exact zeros, which ExpPoly drops
    from thetacert import verifier

    assert verifier._G[2].exponents() == [1, 2]


def test_g_second_display_equivalence(cfg):
    for y in ("0.87", "1", "3", "10"):
        assert g_second(Enclosure(y), cfg).intersects(g_second_display(Enclosure(y), cfg))


def test_g_chain_certifies(cfg):
    report = verify_g_chain(cfg)
    assert report.status is Status.CERTIFIED, report.summary()


def test_g_chain_root_enclosure(cfg):
    with precision(256):
        root = (1 + Enclosure(3).sqrt()) / Enclosure.pi()
    assert_contains(root, QUAD_ROOT)


def test_g_chain_mutation_detected(cfg, monkeypatch):
    # flipping the middle-term sign of g must break the chain
    from thetacert import verifier

    monkeypatch.setattr(verifier, "_G", g_polys_with_middle_term_flipped())
    report = verify_g_chain(cfg)
    assert report.status is Status.FAILED
    broken = [c for c in report.checks if c.passed is False]
    assert any("displayed grouping" in c.name for c in broken)


# -- termwise large-y brackets ----------------------------------------------


def test_even_terms_certify(cfg):
    report = verify_even_terms_large_y(cfg=cfg)
    assert report.status is Status.CERTIFIED


def test_even_bracket_boundary_collapse(cfg):
    # at n = 1 and y = 2/pi the bracket collapses to exactly 4
    with precision(256):
        pi = Enclosure.pi()
        y = 2 / pi
        x = 2 * pi * y  # encloses 4
        bracket = Enclosure(1) * pi * y * (x.exp() + 1) - 2 * (x.exp() - 1)
        assert bracket.contains(4)
        assert bracket.width < 1e-30


def test_even_bracket_negative_below_corner(cfg):
    # the 2/pi condition matters: at y = 0.1 the n = 1 bracket is negative
    with precision(cfg.precision_bits):
        t = Enclosure("0.1") * Enclosure.pi()
    val = _EVEN_CONVEX.poly.eval(t, cfg)
    assert val.is_strictly_negative()


def test_scaled_brackets_certified_from_exact_corners(cfg):
    decreasing = verify_decreasing_argument(cfg, convexity_report=verify_small_y_chain(cfg))
    claims = [
        verify_even_terms_large_y(cfg=cfg),
        verify_odd_terms_large_y(cfg=cfg),
        *decreasing.subreports[:2],
    ]
    with precision(cfg.precision_bits):
        three_pi = 3 * Enclosure.pi()
    corners = [("t", Enclosure(2)), ("s", three_pi), ("t", Enclosure(2)), ("s", Enclosure(2))]
    for report, (var, corner) in zip(claims, corners):
        assert report.status is Status.CERTIFIED, report.summary()
        assert report.interval is None and report.boxes_examined == 0
        (claim,) = _half_line_checks(report)
        assert claim.passed is True
        assert claim.name.endswith(f"0 for {var} >= corner")
        assert claim.detail.startswith(f"{var} from {corner!r}:")
        assert all(c.passed is True for c in report.checks)


def test_even_bracket_from_below_its_root_fails(cfg):
    # the bracket's root sits near t = 1.92, so starting at t = 1 is false: the
    # bracket is negative at the corner itself
    report = _certify_bracket(_EVEN_CONVEX, 1, cfg)
    assert report.status is Status.FAILED
    assert [c.passed for c in report.checks] == [False]
    assert _EVEN_CONVEX.poly.eval(1, cfg).is_strictly_negative()


def test_past_cap_check_catches_late_sign_change(cfg):
    # 20 - t is positive at the corner 2 but not past 20: its limit -1 of
    # bracket/t has the wrong sign, so the claim is disproved
    report = _certify_bracket(_Bracket("late-change", "t", +1, ExpPoly({0: (20, -1)})), 2, cfg)
    assert report.status is Status.FAILED
    assert [c.passed for c in report.checks] == [False]


def test_odd_terms_certify(cfg):
    report = verify_odd_terms_large_y(cfg=cfg)
    assert report.status is Status.CERTIFIED


def test_odd_corner_value(cfg):
    with precision(256):
        corner = 3 * Enclosure.pi() - 4
        assert corner.is_strictly_positive()
        assert abs(float(corner.mid) - 5.42) < 0.01


def test_odd_final_bracket_negative_below_condition(cfg):
    # (2n-1) pi y - 4 at n = 2, y = 0.4 < 4/(3 pi): negative
    with precision(cfg.precision_bits):
        s = Enclosure("1.2") * Enclosure.pi()
    val = _ODD_CONVEX.poly.eval(s, cfg)
    assert val.is_strictly_negative()


# -- Greek constants ---------------------------------------------------------


def test_greek_constants_equal_exact_rationals(cfg):
    greek = checked_greek_constants(cfg)[1]
    with precision(256):
        pi = Enclosure.pi()
        for name, (rational, pi_power) in GREEK_EXACT.items():
            exact = Enclosure(rational) * pi ** pi_power
            got = greek[name]
            assert got.intersects(exact), f"{name}: {got!r} vs exact {exact!r}"
            assert got.width < 1e-8


def test_greek_constants_are_keyed_and_ordered_as_the_slots(cfg):
    from thetacert.verifier import _SLOTS

    greek = checked_greek_constants(cfg)[1]
    assert list(greek) == list(_SLOTS) == ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


def test_greek_leading_cancellation(cfg):
    poly = greek_bracket(cfg)
    b3, a3 = poly.coefficient(-3)
    assert a3.contains(0) and b3.contains(0)
    assert a3.width < 2.0 ** -80 and b3.width < 2.0 ** -80


def test_greek_order_invariants(cfg):
    greek = checked_greek_constants(cfg)[1]
    assert greek["alpha"].hi < greek["gamma"].lo
    assert greek["beta"].hi < greek["delta"].lo
    for value in greek.values():
        assert value.is_strictly_positive()


def test_greek_transcription_guard(cfg):
    # perturbing the expanded bracket at the leading exponent destroys the
    # e^{6 pi y} cancellation: a disproof, and no constants come back
    from thetacert import ExpPoly
    from thetacert.verifier import _greek_checks

    with precision(cfg.precision_bits):
        poly = greek_bracket(cfg)
        corrupted = poly + ExpPoly.exponential(-3, Enclosure("0.001"), poly.rate)
        checks, greek = _greek_checks(corrupted)
        assert checks[0].passed is False and greek is None
        # a wide-but-zero-containing coefficient is undecided, not disproved
        fuzzy = poly + ExpPoly.exponential(-3, Enclosure("-1e-10", "1e-10"), poly.rate)
        checks, greek = _greek_checks(fuzzy)
        assert checks[0].passed is None and greek is None


def test_straddling_greek_constant_is_inconclusive(cfg, monkeypatch):
    # adding [-2 alpha, 0] y e^{-11 pi y/4} to the bracket leaves alpha's enclosure
    # around 0: undecided, so the small-y chain is inconclusive, not disproved
    from thetacert import ExpPoly, verifier

    with precision(cfg.precision_bits):
        poly = greek_bracket(cfg)
        alpha = poly.coefficient(-11)[1]
        straddle = poly + ExpPoly({-11: (0, Enclosure(-2 * alpha.hi, 0))}, poly.rate)
    monkeypatch.setattr(verifier, "greek_bracket", lambda cfg: straddle)
    checks, greek = verifier.checked_greek_constants(cfg)
    assert greek is None
    assert {c.name: c.passed for c in checks}["alpha strictly positive"] is None
    assert all(c.passed is not False for c in checks)
    assert verify_small_y_chain(cfg).status is Status.INCONCLUSIVE


def test_greek_bracket_reads_the_envelope_constants_at_call_time(monkeypatch):
    # the small-y chain certifies the admissibility of envelopes.PAPER_CONSTANTS, so its
    # bracket must be built from that same table
    from thetacert import envelopes

    before = greek_bracket().coefficient(-19)
    monkeypatch.setattr(envelopes, "PAPER_CONSTANTS", EnvelopeConstants(*[Fraction(1, 10)] * 4))
    assert greek_bracket().coefficient(-19) != before


def test_envelope_lower_bound_is_really_lower(cfg):
    # at 20 points on [1, 10] the exponential-polynomial bound must sit
    # strictly below h(1/y)
    bracket = greek_bracket(cfg)
    for y in log_grid(1.0, 10.0, 20):
        with cfg.scope():
            bound = y ** Fraction(9, 2) * bracket.eval(y, cfg)
        hv = h_reciprocal(y, cfg)
        assert bound.hi < hv.lo, f"bound not below h(1/y) at y={y.lo}"


# -- the small-y chain -------------------------------------------------------


def test_small_y_chain_certifies(cfg):
    report = verify_small_y_chain(cfg)
    assert report.status is Status.CERTIFIED, report.summary()


def test_small_y_integer_step():
    assert 533 * 1984 == 1057472
    assert 534 * 632 == 337488


def test_small_y_bracket_value(cfg):
    val = small_y_bracket(1, cfg)
    assert val.is_strictly_positive()
    assert 3.8e8 < float(val.mid) < 3.9e8


def test_small_y_bracket_decides_a_wide_box_in_one_enclosure(cfg):
    # e^{2 pi y} times the final bracket, not its expansion over e^{2 pi y}: the
    # expanded form splits 533*1984 y e^{2 pi y} from -534*632 e^{2 pi y} and straddles 0
    # on [1, 20], so `certify --quantity bracket` would need 113 boxes instead of 1
    assert small_y_bracket(Enclosure(1, 20), cfg).is_strictly_positive()


# -- h in both variables ------------------------------------------------------


def test_h_consistency_at_fixed_point(cfg):
    a = h_direct(1, cfg)
    b = h_reciprocal(1, cfg)
    assert a.intersects(b)
    assert_contains(a, H_AT_1)


def test_h_direct_at_half_matches_reciprocal_at_2(cfg):
    a = h_direct(Enclosure("0.5"), cfg)
    b = h_reciprocal(2, cfg)
    assert a.intersects(b)
    assert_contains(a, H_AT_HALF)


def test_h_reciprocal_positive_at_2(cfg):
    assert h_reciprocal(2, cfg).is_strictly_positive()


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda cfg: f_a_second(2.5, 0.5, cfg),
        lambda cfg: f_a_second(2.5, 3, cfg),
        lambda cfg: h_direct(1, cfg),
        lambda cfg: h_direct(0.1, cfg),
        lambda cfg: f_a_second(2.5, Enclosure(3, "3.03"), cfg),
    ],
    ids=["f_a_second-modular", "f_a_second-lambert", "h_direct-theta4", "h_direct-flipped",
         "f_a_second-lambert-box"],
)
def test_every_order_comes_from_one_series_pass(cfg, monkeypatch, evaluate):
    # f, f', f'' (or theta4 and its first three derivatives) share one series pass
    from thetacert import theta

    calls = []
    inner = theta.certified_sum

    def counting(what, *args, **kwargs):
        calls.append(what)
        return inner(what, *args, **kwargs)

    monkeypatch.setattr(theta, "certified_sum", counting)
    evaluate(cfg)
    assert len(calls) == 1, calls


def test_a_thin_f_does_enclosure_arithmetic_independent_of_its_terms(cfg, monkeypatch):
    # the thin routes run on balls end to end: the modular one at y = 0.01 and 0.5, the theta4
    # Jet at 2 and 7.9, in two or four terms, with the same (no) Enclosure arithmetic
    from thetacert import theta
    from thetacert.verifier import _f

    steps, inner = [], theta.certified_sum

    def counting_steps(what, cfg, start, step, tail, signs, **kwargs):
        return inner(what, cfg, start, lambda k: steps.append(k) or step(k), tail, signs,
                     **kwargs)

    monkeypatch.setattr(theta, "certified_sum", counting_steps)
    calls = count_arithmetic(monkeypatch)
    counts, terms = [], []
    for y in ("0.01", "0.5", 2, "7.9"):
        with cfg.scope():
            y = Enclosure(y)
        calls.clear()
        steps.clear()
        _f(y, range(3), cfg)
        counts.append(len(calls))
        terms.append(len(steps))
    assert terms == [2, 4, 4, 2], terms
    assert counts == [0] * 4, counts


def test_h_over_theta4_cubed_equals_f_second(cfg):
    yvals = log_grid(0.3, 5.0, 20)
    with precision(256):
        for y in yvals:
            lhs = h_direct(y, cfg) / theta4_eval(y, 0, cfg) ** 3
            rhs = f_second(y, cfg, route="lambert")
            assert lhs.intersects(rhs), f"mismatch at y={y.lo}"
            assert (lhs.width + rhs.width) < mp.mpf(2) ** -60


# -- sign certification of the theorem ----------------------------------------


def test_certify_wrong_sign_fails_with_witness(cfg):
    report = certify_sign(QUANTITIES["f_second"], ("0.5", "1"), -1, cfg, name="wrong-sign")
    assert report.status is Status.FAILED
    assert report.witness is not None
    assert report.witness.value.is_strictly_positive()


def test_convexity_report(cfg):
    report = verify_convexity(cfg)
    assert report.status is Status.CERTIFIED, report.summary()
    assert len(report.subreports) == 4
    assert all(r.certified for r in report.subreports)


def test_decreasing_argument(cfg):
    small_y = verify_small_y_chain(cfg)
    report = verify_decreasing_argument(cfg, convexity_report=small_y)
    assert report.status is Status.CERTIFIED, report.summary()
    # the conclusion references the convexity certification it uses
    ref = [c for c in report.checks if c.name == "convexity input"]
    assert ref and small_y.report_id in ref[0].detail


def test_route_dispatch_consistency(cfg):
    for y in ("0.9", "1", "1.1"):
        a = f_second(Enclosure(y), cfg, route="lambert")
        b = f_second(Enclosure(y), cfg, route="modular")
        assert a.intersects(b)
    # straddling boxes combine both routes
    box = Enclosure("0.9", "1.1")
    both = f_second(box, cfg, route="auto")
    assert both.contains(f_second(Enclosure(1), cfg))


def test_f_dispatch_orders(cfg):
    for fn, name in ((f_eval, "f"), (f_prime, "f'"), (f_second, "f''")):
        lam = fn(Enclosure("1.5"), cfg, route="lambert")
        mod = fn(Enclosure("1.5"), cfg, route="modular")
        assert lam.intersects(mod), name


# -- every half-line claim is a scaled bracket ---------------------------------


def _half_line_checks(report):
    return [c for c in report.checks if c.name.endswith(">= corner")]


def test_g_second_is_a_bracket_record_from_the_corner(cfg):
    report = verify_g_chain(cfg)
    (sub,) = [r for r in report.subreports if r.name == "g-second-positive"]
    with precision(cfg.precision_bits):
        corner = 1 + Enclosure(3).sqrt()
    assert sub.status is Status.CERTIFIED, sub.summary()
    assert sub.interval is None and sub.boxes_examined == 0
    (claim,) = _half_line_checks(sub)
    assert claim.passed is True and claim.detail.startswith(f"x from {corner!r}:")
    assert not any("y_cap" in c.name for r in (report, sub) for c in r.checks)


def test_g_chain_wrong_bracket_coefficient_breaks_anchor(cfg, monkeypatch):
    # B with d2 = 2 instead of 1 is still positive past the corner, so only
    # the transcription anchor can catch it
    from dataclasses import replace

    from thetacert import verifier

    wrong = ExpPoly({0: (-6, -8, 4), -1: (6, 8, 2)})
    monkeypatch.setattr(verifier, "_G_BRACKET", replace(verifier._G_BRACKET, poly=wrong))
    report = verify_g_chain(cfg)
    assert report.status is Status.FAILED
    broken = [c.name for c in report.checks if c.passed is False]
    assert any("displayed grouping" in name for name in broken)
    assert all(r.certified for r in report.subreports)


def test_small_y_final_bracket_is_a_bracket_record(cfg):
    report = verify_small_y_chain(cfg)
    (sub,) = [r for r in report.subreports if r.name == "small-y-final-bracket"]
    assert sub.status is Status.CERTIFIED, sub.summary()
    assert sub.interval is None and sub.boxes_examined == 0
    (claim,) = _half_line_checks(sub)
    assert claim.passed is True and claim.detail.startswith(f"y from {Enclosure(1)!r}:")
    assert not any("y_cap" in c.name for c in report.checks)


def _weakening_outcomes(report):
    names = ("e^(4 pi y) coefficient positive", "integer absorption")
    return {c.name: c.passed for c in report.checks if c.name in names}


def test_small_y_weakening_steps_are_computed(cfg):
    report = verify_small_y_chain(cfg)
    assert _weakening_outcomes(report) == {
        "e^(4 pi y) coefficient positive": True,
        "integer absorption": True,
    }


def test_too_strong_final_bracket_fails_absorption(cfg, monkeypatch):
    # the final e^(2 pi y) polynomial typed with constant -532*632 instead of -534*632 is
    # still positive, so only the computed absorption step can refuse it
    from thetacert import verifier

    monkeypatch.setattr(verifier, "_absorbed", lambda r: (-532 * 632, 533 * r["alpha"]))
    report = verify_small_y_chain(cfg)
    assert report.status is Status.FAILED
    assert _weakening_outcomes(report)["integer absorption"] is False
    assert report.subreports[-1].status is Status.CERTIFIED


def test_rounded_gamma_too_large_fails_absorption(cfg, monkeypatch):
    from thetacert import verifier

    monkeypatch.setitem(verifier._ROUNDED, "gamma", 3970)
    report = verify_small_y_chain(cfg)
    assert report.status is Status.FAILED
    assert _weakening_outcomes(report)["integer absorption"] is False


def test_rounded_beta_too_large_fails_e4pi_step(cfg, monkeypatch):
    from thetacert import verifier

    monkeypatch.setitem(verifier._ROUNDED, "beta", 2000)
    report = verify_small_y_chain(cfg)
    assert report.status is Status.FAILED
    assert _weakening_outcomes(report)["e^(4 pi y) coefficient positive"] is False


def test_quadratic_bracket_past_cap_check_catches_late_sign_change(cfg):
    # 20 x - x^2 is positive at the corner 2 but not past 20: the limit -1 of
    # the degree-2 bracket/x^2 must see it
    report = _certify_bracket(_Bracket("late-change", "x", +1, ExpPoly({0: (0, 20, -1)})), 2, cfg)
    assert report.status is Status.FAILED
    assert [c.passed for c in report.checks] == [False]


def test_straddling_past_cap_enclosure_is_inconclusive(cfg):
    # x^2 - 34x + 289.75 = (x - 17)^2 + 0.75 > 0 everywhere, but from 2 its
    # coefficients change sign and its enclosure of bracket/x^2 past 2 straddles 0:
    # undecided, not a disproof
    probe = _Bracket("probe", "x", +1, ExpPoly({0: (Fraction(1159, 4), -34, 1)}))
    report = _certify_bracket(probe, 2, cfg)
    assert report.status is Status.INCONCLUSIVE
    assert [c.passed for c in report.checks] == [None]


def test_wrong_signed_bracket_fails(cfg):
    # -1 - x < 0 everywhere: its value at the corner disproves "> 0"
    report = _certify_bracket(_Bracket("wrong-sign", "x", +1, ExpPoly({0: (-1, -1)})), 2, cfg)
    assert report.status is Status.FAILED
    assert [c.passed for c in report.checks] == [False]


def test_interior_dip_is_inconclusive(cfg):
    # (x - 5)^2 - 1 is negative on (4, 6) only: positive at the corner 2 and in the limit,
    # so no rule disproves "> 0 from 2", and none may prove it
    dip = _Bracket("dip", "x", +1, ExpPoly({0: (24, -10, 1)}))
    report = _certify_bracket(dip, 2, cfg)
    assert report.status is Status.INCONCLUSIVE
    assert [c.passed for c in report.checks] == [None]


def test_past_corner_enclosure_takes_an_enclosure_corner(cfg):
    # x - 2 - e^{-x} from 3 pi: the e^{-x} coefficient is negative, so only the enclosure
    # of bracket/x over x >= 3 pi (an enclosed corner, not a rational) can decide it
    bracket = _Bracket("enclosed-corner", "x", +1, ExpPoly({0: (-2, 1), -1: (-1,)}))
    with precision(cfg.precision_bits):
        corner = 3 * Enclosure.pi()
    report = _certify_bracket(bracket, corner, cfg)
    assert report.status is Status.CERTIFIED, report.summary()


def test_small_y_final_bracket_is_certified_by_the_past_corner_enclosure(cfg, monkeypatch):
    # e^{-2 pi y}(-2y - 0.08) has negative coefficients, so the coefficient-sign rule cannot
    # decide the final bracket: the one enclosure of bracket/y over y >= 1 does, and a
    # straddling enclosure leaves the record undecided
    past, seen = ExpPoly._past, []

    def recording(self, corner):
        seen.append(past(self, corner))
        return seen[-1]

    def final_record():
        report = verify_small_y_chain(cfg)
        (sub,) = [r for r in report.subreports if r.name == "small-y-final-bracket"]
        return report, sub

    monkeypatch.setattr(ExpPoly, "_past", recording)
    report, sub = final_record()
    assert sub.status is Status.CERTIFIED and report.status is Status.CERTIFIED
    assert len(seen) == 1 and seen[0].is_strictly_positive()
    monkeypatch.setattr(ExpPoly, "_past", lambda self, corner: Enclosure(-1, 1))
    report, sub = final_record()
    assert sub.status is Status.INCONCLUSIVE and report.status is Status.INCONCLUSIVE


def test_half_line_chains_make_no_certify_sign_call(cfg, monkeypatch):
    from thetacert import certify, verifier

    calls = []

    def recording(fn, interval, *args, **kwargs):
        calls.append(interval)
        return certify.certify_sign(fn, interval, *args, **kwargs)

    monkeypatch.setattr(verifier, "certify_sign", recording)
    small_y = verify_small_y_chain(cfg)
    reports = [verify_g_chain(cfg), verify_even_terms_large_y(cfg), verify_odd_terms_large_y(cfg),
               small_y, verify_decreasing_argument(cfg, convexity_report=small_y)]
    assert all(r.status is Status.CERTIFIED for r in reports)
    assert calls == []


def test_bracket_quantity_runs_no_weakening_check(cfg, monkeypatch):
    # `verify --quantity bracket` evaluates the final bracket only: the e^(2 pi) and
    # coefficient-sign checks belong to the small-y chain
    calls = []
    sign_from = ExpPoly.sign_from

    def recording(self, corner, sign):
        calls.append(corner)
        return sign_from(self, corner, sign)

    monkeypatch.setattr(ExpPoly, "sign_from", recording)
    value = QUANTITIES["bracket"](Enclosure(1, 2), cfg)
    assert calls == []
    assert [mp.nstr(value.lo, 50), mp.nstr(value.hi, 50)] == [
        "385545422.03134221404641146851484054590349605400447",
        "509687842038.54322755455550860371457565160588334805",
    ]


def test_convexity_inconclusive_part_is_inconclusive(monkeypatch):
    from thetacert import CertificationReport, verifier

    def fake(fn, interval, sign, cfg, name="", **kwargs):
        status = Status.INCONCLUSIVE if name == "f-prime-negative" else Status.CERTIFIED
        return CertificationReport(name=name, status=status)

    monkeypatch.setattr(verifier, "certify_sign", fake)
    report = verify_convexity()
    assert report.status is Status.INCONCLUSIVE
    assert [c.passed for c in report.checks] == [True, None, True, True]


def _assert_only_the_anchor_breaks(report):
    assert report.status is Status.FAILED
    broken = [c.name for c in report.checks if c.passed is False]
    assert broken == ["g'' matches its displayed grouping", "conclusion: g > 0 on [1, oo)"]
    assert all(c.passed for c in report.checks if c.name in ("g'(1) > 0", "g(1) > 0"))


def test_g_chain_anchor_ties_g_to_the_psi_numerator(monkeypatch, cfg):
    # g = e^{2x} N_2 with N_2 the Lambert evaluator's own psi'' numerator, theta._numerators:
    # s^2(1 + 2u) in place of s^2(1 + u) breaks the anchor, and the unmutated copy does not
    from thetacert import theta

    monkeypatch.setattr(theta, "_numerators", n2_mutant())
    assert verify_g_chain(cfg).status is Status.CERTIFIED
    monkeypatch.setattr(theta, "_numerators", n2_mutant(u_coefficient=2))
    _assert_only_the_anchor_breaks(verify_g_chain(cfg))


def test_g_chain_anchor_ties_g_second_to_the_display(monkeypatch, cfg):
    # a display with an extra x e^x no longer equals g''
    from thetacert import verifier

    extra = ExpPoly({1: (0, 1)})
    monkeypatch.setattr(verifier, "_G_DISPLAY", verifier._G_DISPLAY + extra)
    _assert_only_the_anchor_breaks(verify_g_chain(cfg))


def test_g_second_certifies_in_few_boxes(cfg):
    # g'' on ExpPoly groups by powers of x, which keeps its boxes narrow
    report = certify_sign(QUANTITIES["g_second"], ("1", "3"), +1, cfg)
    assert report.status is Status.CERTIFIED
    assert report.boxes_examined <= 60, report.boxes_examined


# -- the auto route splits a box that straddles 1 ------------------------------


def _record_route_arguments(monkeypatch):
    """Record the y of every Lambert sum and the x = 1/y of every modular G."""
    from thetacert import verifier

    lambert_ys, modular_xs = [], []
    lambert_sum, f_modular = verifier._lambert_sum, verifier._f_modular

    def lambert(y, orders, cfg, *rest):
        lambert_ys.append(Enclosure(y))
        return lambert_sum(y, orders, cfg, *rest)

    def modular(y, orders, cfg):
        modular_xs.append(1 / Enclosure(y))
        return f_modular(y, orders, cfg)

    monkeypatch.setattr(verifier, "_lambert_sum", lambert)
    monkeypatch.setattr(verifier, "_f_modular", modular)
    return lambert_ys, modular_xs


def test_auto_route_runs_each_route_on_its_side_of_one(monkeypatch, cfg):
    # a box across 1 is modular on [lo, 1] and Lambert on [1, hi]: the
    # Lambert sum never sees y < 1, the modular G never sees x = 1/y < 1
    lambert_ys, modular_xs = _record_route_arguments(monkeypatch)
    box = Enclosure("0.05", "20")
    for fn in (f_eval, f_prime, f_second):
        value = fn(box, cfg)
        for y in ("0.5", "1", "5"):
            assert value.contains(fn(Enclosure(y), cfg)), f"{fn.__name__} misses y = {y}"
    assert lambert_ys and all(y.lo >= 1 for y in lambert_ys)
    assert modular_xs and all(x.lo >= 1 for x in modular_xs)


def test_convexity_overlap_still_cross_checks_both_routes(monkeypatch, cfg):
    # the auto records cover the working interval, and the Lambert overlap
    # still runs the Lambert sum below 1, where auto no longer takes it
    lambert_ys, _ = _record_route_arguments(monkeypatch)
    report = verify_convexity(cfg)
    assert report.status is Status.CERTIFIED, report.summary()
    covers = {
        "f-second-positive": ("0.05", 20),
        "f-prime-negative": ("0.05", 20),
        "f-second-positive-lambert-overlap": ("0.8", "1.25"),
        "f-second-positive-modular-overlap": ("0.8", "1.25"),
    }
    assert [r.name for r in report.subreports] == list(covers)
    with cfg.scope():
        for r in report.subreports:
            assert Enclosure(*r.interval).contains(Enclosure(*covers[r.name])), r.name
    assert any(y.lo < 1 for y in lambert_ys)


# -- thin points above 1 take the theta4 Jet, boxes never do -----------------------


def _record_theta4_jet(monkeypatch):
    """Record the y of every f read off the theta4 Jet."""
    from thetacert import verifier

    jet_ys = []
    f_jet = verifier._f_jet

    def recording(y, t):
        jet_ys.append(y)
        return f_jet(y, t)

    monkeypatch.setattr(verifier, "_f_jet", recording)
    return jet_ys


def test_auto_route_takes_every_thin_point_above_one_from_the_theta4_jet(monkeypatch, cfg):
    from thetacert import verifier

    jet_ys = _record_theta4_jet(monkeypatch)
    lambert = count_calls(monkeypatch, verifier, "_lambert_sum")
    modular = count_calls(monkeypatch, verifier, "_f_modular")
    ys = ("1.000000000000000000001", 8, "8.000000000000000000001", 30, "1e5", 1e300)
    for y in ys:
        f_second(Enclosure(y), cfg)
    assert len(jet_ys) == len(ys) and not lambert and not modular
    f_second(Enclosure(1), cfg)  # exactly 1 stays modular
    assert len(jet_ys) == len(ys) and len(modular) == 1
    f_second(Enclosure(8, 9), cfg)  # a box takes the Lambert sum
    assert len(jet_ys) == len(ys) and len(lambert) == 1


@pytest.mark.parametrize("y", [9, 30, "1e5"])
def test_a_thin_f_past_eight_takes_the_jet_and_one_exp_kernel_call(monkeypatch, cfg, y):
    import mpmath.libmp

    from thetacert import verifier

    jet_ys = _record_theta4_jet(monkeypatch)
    exps = count_calls(monkeypatch, mpmath.libmp, "mpf_exp")
    verifier._f(Enclosure(y), range(3), cfg)
    assert len(jet_ys) == 1 and len(exps) == 1


@pytest.mark.parametrize("bits", [128, 256])
def test_thin_f_past_eight_has_full_relative_precision(bits):
    # f, f', f'' at 25 log-spaced y in (8, 1e8], each no wider than 2^-(bits - 40) relative
    # (the thin Lambert sum gave 4.4e-46 at y = 8.5 and 256 bits)
    cfg = EvalConfig(precision_bits=bits)
    for y in log_grid(8.5, 1e8, 25):
        for k, value in enumerate(_f(y, range(3), cfg)):
            assert not value.contains_zero(), (bits, y, k)
            size = min(abs(value.lo), abs(value.hi))
            assert value.width <= size * mp.mpf(2) ** (40 - bits), (bits, y, k, value)


def test_convexity_sign_records_never_straddle_the_route_boundary(monkeypatch, cfg):
    # f'' > 0 and f' < 0 are cut at y = 1, so no box of theirs pays for _f's hull of both
    # routes; the overlap records name their route and are left out
    from thetacert import verifier

    auto, f = [], verifier._f

    def recording(y, orders, cfg, route="auto"):
        if route == "auto":
            auto.append(y)
        return f(y, orders, cfg, route)

    monkeypatch.setattr(verifier, "_f", recording)
    report = verify_convexity(cfg)
    assert report.status is Status.CERTIFIED, report.summary()
    assert len(auto) == sum(r.boxes_examined for r in report.subreports[:2])
    assert not [y for y in auto if y.lo < 1 < y.hi]


def test_boxes_never_take_the_theta4_jet(monkeypatch, cfg):
    # the Lambert sum's termwise enclosures certify in far fewer boxes; the modular
    # f'' with e^{-2 pi/y} factored out decides [0.05, 1] in one box
    jet_ys = _record_theta4_jet(monkeypatch)
    lambert_ys, _ = _record_route_arguments(monkeypatch)
    report = verify_convexity(cfg)
    assert report.status is Status.CERTIFIED, report.summary()
    assert [r.boxes_examined for r in report.subreports] == [22, 4, 17, 1]
    assert not jet_ys
    box = Enclosure(3, "3.03")
    f_second(box, cfg)
    assert not jet_ys and lambert_ys[-1] == box
