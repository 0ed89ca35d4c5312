"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -s`); the
assertions carry the same conditions, so the suite outcome is the
acceptance outcome.  Criterion 1 compares the six collected constants
against the printed reference approximations at the printed number of
significant digits (agreement within one unit in the last printed place,
which accepts either a rounded or a truncated print).
"""

import json
import time
from decimal import Decimal
from fractions import Fraction

from mpmath import mp

from thetacert import (
    Enclosure,
    EnvelopeConstants,
    EvalConfig,
    ExponentQuery,
    QUANTITIES,
    Status,
    certify_sign,
    check_c_admissible,
    f_eval,
    f_prime,
    f_second,
    precision,
    theta2_series,
    theta4_eval,
    verify_convexity,
    verify_decreasing_argument,
    verify_even_terms_large_y,
    verify_g_chain,
    verify_modular_identities,
    verify_odd_terms_large_y,
    verify_sandwiches,
    verify_small_y_chain,
)
from thetacert import envelopes, verifier
from thetacert.cli import main as cli_main
from thetacert.envelopes import log_grid
from thetacert.modular import MODULAR_COEFFICIENTS
from thetacert.scanner import _f_a, f_a_second, find_witness_in_rows, scan_rows
from thetacert.verifier import g_second

from conftest import (
    G_AT_1,
    G_PRIME_AT_1,
    GREEK_PRINTED,
    WITNESS_21_Y,
    assert_contains,
    g_eval,
    g_polys_with_middle_term_flipped,
    g_prime,
    h_direct,
    mp_scalar,
    mp_theta2,
    mp_theta4,
    theta4_product,
    theta4_via_modular,
)

CFG = EvalConfig()  # 128-bit default, as the criteria specify


def _report(number: int, title: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({title}): {mark}" + (f" - {detail}" if detail else ""))


def _print_ulp(printed: str) -> Decimal:
    d = Decimal(printed)
    return Decimal(1).scaleb(d.adjusted() - len(d.as_tuple().digits) + 1)


def test_acceptance_1_constant_reproduction(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "greek.json"
    exit_code = cli_main(["verify", "greek", "--json", str(out)])
    elapsed = time.perf_counter() - t0
    data = json.loads(out.read_text())
    values = {r["name"]: r["enclosure"] for r in data["results"] if r["type"] == "value"}
    mismatches = []
    wide = []
    for name, printed in GREEK_PRINTED.items():
        lo, hi = (Decimal(values[name][0]), Decimal(values[name][1]))
        ulp = _print_ulp(printed)
        ref = Decimal(printed)
        if not (ref - ulp <= hi and lo <= ref + ulp):
            mismatches.append(f"{name}: enclosure [{lo}, {hi}] vs printed {printed}")
        if hi - lo >= Decimal("1e-8"):
            wide.append(name)
    ok = exit_code == 0 and not mismatches and not wide and elapsed < 5.0
    _report(
        1,
        "constant reproduction",
        ok,
        f"{len(GREEK_PRINTED) - len(mismatches)}/6 match print, {elapsed:.2f}s"
        + ("; MISMATCH " + "; ".join(mismatches) if mismatches else ""),
    )
    assert exit_code == 0
    assert not wide, f"enclosures wider than 1e-8: {wide}"
    assert elapsed < 5.0
    assert not mismatches, (
        "printed-value mismatches (exact arithmetic disagrees with the printed "
        "approximation): " + "; ".join(mismatches)
    )


def test_acceptance_2_g_checkpoints():
    t0 = time.perf_counter()
    g1 = g_eval(1, CFG)
    gp1 = g_prime(1, CFG)
    elapsed = time.perf_counter() - t0
    # full-precision references fixed in advance by the scalar oracle
    assert_contains(g1, G_AT_1)
    assert_contains(gp1, G_PRIME_AT_1)
    g1_rounded = f"{float(g1.mid):.3g}"
    gp1_rounded = f"{float(gp1.mid):.5g}"
    ok = g1_rounded == "55.5" and gp1_rounded == "3584.5" and elapsed < 1.0
    _report(2, "g checkpoints", ok, f"g(1)->{g1_rounded}, g'(1)->{gp1_rounded}, {elapsed:.3f}s")
    assert g1_rounded == "55.5"
    assert gp1_rounded == "3584.5"
    assert elapsed < 1.0


def test_acceptance_3_envelope_sandwich():
    t0 = time.perf_counter()
    grid = log_grid(1.0, 100.0, 40)
    sandwich_ok = True
    for nu in range(4):
        rep = verify_sandwiches(grid, (nu,), CFG)[0]
        sandwich_ok &= rep.status is Status.CERTIFIED
    admissible_ok = all(
        check_c_admissible(nu, CFG).status is Status.CERTIFIED for nu in range(4)
    )
    elapsed = time.perf_counter() - t0
    ok = sandwich_ok and admissible_ok and elapsed < 10.0
    _report(3, "envelope sandwich", ok, f"40 points x 4 orders, {elapsed:.2f}s")
    assert sandwich_ok
    assert admissible_ok
    assert elapsed < 10.0


def test_acceptance_4_theorem_at_desk_scale():
    t0 = time.perf_counter()
    report = verify_convexity(CFG)
    elapsed = time.perf_counter() - t0
    names = {r.name: r for r in report.subreports}
    ok = report.status is Status.CERTIFIED and elapsed < 300.0
    detail = (
        f"f''>0 ({names['f-second-positive'].boxes_examined} boxes), "
        f"f'<0 ({names['f-prime-negative'].boxes_examined} boxes), "
        f"both routes on the overlap window, {elapsed:.1f}s"
    )
    _report(4, "theorem at desk scale", ok, detail)
    assert report.status is Status.CERTIFIED, report.summary()
    assert names["f-second-positive-lambert-overlap"].certified
    assert names["f-second-positive-modular-overlap"].certified
    assert elapsed < 300.0


def test_acceptance_5_termwise_chains(monkeypatch):
    t0 = time.perf_counter()
    chains = {
        "even": verify_even_terms_large_y(cfg=CFG),
        "odd": verify_odd_terms_large_y(cfg=CFG),
        "g-chain": verify_g_chain(CFG),
        "small-y": verify_small_y_chain(CFG),
    }
    chains["decreasing"] = verify_decreasing_argument(CFG, convexity_report=chains["small-y"])
    chain_ok = all(r.status is Status.CERTIFIED for r in chains.values())

    # mutation tests must fail in the specified ways; each mutant is patched in alone
    mutations = {}
    with monkeypatch.context() as m:
        m.setitem(MODULAR_COEFFICIENTS, 1, (Fraction(1, 2), Fraction(-1)))
        mutations["modular sign flip"] = verify_modular_identities(
            ("0.5", "2"), (1,), CFG
        )[0].status is Status.FAILED
    with monkeypatch.context() as m:
        m.setattr(verifier, "_G", g_polys_with_middle_term_flipped())
        mutations["g middle-term flip"] = verify_g_chain(CFG).status is Status.FAILED
    mutations["wrong-sign target"] = certify_sign(
        QUANTITIES["f_second"], ("0.5", "1"), -1, CFG, name="mutation"
    ).status is Status.FAILED
    with monkeypatch.context() as m:
        m.setattr(envelopes, "PAPER_CONSTANTS", EnvelopeConstants(*[Fraction(1, 10 ** 30)] * 4))
        mutations["deflated envelope constants"] = verify_sandwiches(
            [Enclosure(1)], (0,), CFG
        )[0].status is Status.FAILED
    elapsed = time.perf_counter() - t0
    ok = chain_ok and all(mutations.values()) and elapsed < 120.0
    _report(
        5,
        "termwise chains",
        ok,
        f"{sum(r.status is Status.CERTIFIED for r in chains.values())}/5 chains, "
        f"{sum(mutations.values())}/4 mutations caught, {elapsed:.1f}s",
    )
    for name, rep in chains.items():
        assert rep.status is Status.CERTIFIED, f"{name}: {rep.summary()}"
    for name, caught in mutations.items():
        assert caught, f"mutation not caught: {name}"
    assert elapsed < 120.0


def test_acceptance_6_cross_representation():
    t0 = time.perf_counter()
    pts = log_grid(0.2, 5.0, 10)
    with precision(256):
        for y in pts:
            for nu in range(4):
                series = theta4_eval(y, nu, CFG)
                flip = theta4_via_modular(y, nu, CFG)
                assert series.intersects(flip), f"nu={nu}, y={y.lo}"
                assert (series.width + flip.width) < mp.mpf(2) ** -80
            product = theta4_product(y, CFG)
            series0 = theta4_eval(y, 0, CFG)
            assert product.intersects(series0)
            assert (product.width + series0.width) < mp.mpf(2) ** -80
        for y in log_grid(0.3, 5.0, 20):
            lhs = h_direct(y, CFG) / theta4_eval(y, 0, CFG) ** 3
            rhs = f_second(y, CFG, route="lambert")
            assert lhs.intersects(rhs), f"h/theta4^3 vs f'' at y={y.lo}"
    elapsed = time.perf_counter() - t0
    _report(6, "cross-representation consistency", True, f"{elapsed:.2f}s")


def test_acceptance_7_exponent_witness(tmp_path, capsys):
    t0 = time.perf_counter()
    out21 = tmp_path / "scan21.csv"
    out20 = tmp_path / "scan20.csv"
    code21 = cli_main(["scan", "--a", "2.1", "--csv", str(out21)])
    code20 = cli_main(["scan", "--a", "2.0", "--csv", str(out20)])
    elapsed = time.perf_counter() - t0
    text21 = out21.read_text()
    text20 = out20.read_text()
    witness_line = [l for l in text21.splitlines() if l.startswith("# witness")]
    ok = code21 == 0 and code20 == 0 and witness_line and "# witness" not in text20
    y_lo = float(witness_line[0].split(",")[1]) if witness_line else float("nan")
    pinned = abs(y_lo - WITNESS_21_Y) <= 0.1 * WITNESS_21_Y
    _report(
        7,
        "exponent witness",
        bool(ok and pinned),
        f"witness at y~{y_lo:.4g} (pinned {WITNESS_21_Y} +-10%), none at a=2.0, {elapsed:.1f}s",
    )
    assert code21 == 0 and code20 == 0
    assert witness_line, "no witness row for a=2.1"
    assert "# witness" not in text20, "a=2.0 must not produce a witness"
    assert pinned
    # soundness: re-certify the witness value at doubled precision
    query = ExponentQuery(a=Fraction(21, 10))
    witness = find_witness_in_rows(query, scan_rows(query, CFG))
    doubled = EvalConfig(precision_bits=2 * CFG.precision_bits)
    assert f_a_second(Fraction(21, 10), witness.y, doubled).is_strictly_negative()


def test_acceptance_8_finite_difference_suite():
    t0 = time.perf_counter()
    h = mp.mpf(2) ** -20

    def theta4_scalar(y):
        return mp_theta4(y)

    def theta2_scalar(y):
        return mp_theta2(y)

    def f_scalar(y):
        return y ** 2 * mp.diff(mp_theta4, y) / mp_theta4(y)

    def g_scalar(y):
        e = mp.e ** (mp.pi * y)
        return 2 * (e - 1) ** 2 - 4 * y * mp.pi * e * (e - 1) + mp.pi ** 2 * y ** 2 * e * (e + 1)

    def f21_scalar(y):
        return y ** mp.mpf("2.1") * mp.diff(mp_theta4, y) / mp_theta4(y)

    checks = 0
    with precision(320):
        he = Enclosure(h)

        def fd(fn, y):
            return (fn(y + he) - fn(y - he)) / Enclosure(2 * h)

        pairs = []
        for nu in (0, 1, 2):
            pairs.append(
                (
                    lambda y, nu=nu: theta4_eval(y, nu, CFG),
                    lambda y, nu=nu: theta4_eval(y, nu + 1, CFG),
                    theta4_scalar,
                    nu + 3,
                )
            )
            pairs.append(
                (
                    lambda y, nu=nu: theta2_series(y, nu, CFG),
                    lambda y, nu=nu: theta2_series(y, nu + 1, CFG),
                    theta2_scalar,
                    nu + 3,
                )
            )
        pairs.append(
            (
                lambda y: f_eval(y, CFG, route="lambert"),
                lambda y: f_prime(y, CFG, route="lambert"),
                f_scalar,
                3,
            )
        )
        pairs.append(
            (
                lambda y: f_prime(y, CFG, route="lambert"),
                lambda y: f_second(y, CFG, route="lambert"),
                f_scalar,
                4,
            )
        )
        pairs.append((lambda y: g_eval(y, CFG), lambda y: g_prime(y, CFG), g_scalar, 3))
        pairs.append((lambda y: g_prime(y, CFG), lambda y: g_second(y, CFG), g_scalar, 4))
        a21 = Fraction(21, 10)
        pairs.append(
            (
                lambda y: _f_a(a21, y, 1, CFG),
                lambda y: f_a_second(a21, y, CFG),
                f21_scalar,
                3,
            )
        )
        y1 = Enclosure(1)
        for lower_fn, upper_fn, scalar, order in pairs:
            err = abs(fd(lower_fn, y1) - upper_fn(y1)).hi
            bound = abs(mp_scalar(scalar, mp.mpf(1), order, dps=30))
            assert err <= 10 * h ** 2 * max(bound, mp.mpf(1)), f"order-{order} ladder"
            checks += 1
    elapsed = time.perf_counter() - t0
    _report(8, "finite-difference suite", True, f"{checks} ladders at h=2^-20, {elapsed:.1f}s")
