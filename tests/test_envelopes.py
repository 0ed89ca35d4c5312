"""Envelope formulas, the sandwich certification, and c_nu admissibility."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from thetacert import cli, envelopes
from thetacert import (
    DomainError,
    Enclosure,
    EnvelopeConstants,
    EvalConfig,
    Status,
    admissibility_factor,
    check_c_admissible,
    log_grid,
    precision,
    theta2_series,
    verify_sandwiches,
)

from conftest import (LOWER_ENVELOPE_1_0, assert_contains, count_calls, mp_admissibility_factor,
                      mp_theta2)


def _envelope(y, nu, cfg, upper=False):
    """The lower (or inflated upper) envelope of order nu at y, as the sandwich builds it."""
    with cfg.scope():
        inflation = envelopes.PAPER_CONSTANTS.for_order(nu) if upper else 0
        return envelopes._envelope_poly(nu, inflation).eval(y, cfg)


def test_lower_envelope_values(cfg):
    e = _envelope(1, 0, cfg)
    assert_contains(e, LOWER_ENVELOPE_1_0)
    with precision(256):
        pi = Enclosure.pi()
        expected = (pi / 2) * (-(pi / 4)).exp() + (9 * pi / 2) * (-(9 * pi / 4)).exp()
        assert _envelope(1, 1, cfg).intersects(expected)
    assert _envelope(50, 0, cfg).hi < 1e-16


def test_envelope_domain_error(cfg):
    with pytest.raises(DomainError):
        verify_sandwiches([Enclosure("0.5")], (0,), cfg)
    with pytest.raises(DomainError):
        admissibility_factor(0, Enclosure("0.9"), cfg)


def test_upper_envelope_definitional_identities(cfg):
    with precision(256):
        pi = Enclosure.pi()
        # at nu=0 the difference upper - lower is c0 * 2 e^{-9 pi y/4}
        diff = _envelope(1, 0, cfg, upper=True) - _envelope(1, 0, cfg)
        assert diff.intersects(Enclosure(Fraction(1, 100000)) * 2 * (-(9 * pi / 4)).exp())
        # at (y=2, nu=2): c2 * 2 * 81 pi^2 e^{-9 pi/2} / 16
        diff2 = _envelope(2, 2, cfg, upper=True) - _envelope(2, 2, cfg)
        expected = Enclosure(Fraction(8, 100000)) * 2 * Enclosure(81) * pi ** 2 * (
            -(9 * pi / 2)
        ).exp() / 16
        assert diff2.intersects(expected)
        # at (y=1, nu=3) the second-term coefficient is 2 * 1.0003 * 9^3 pi^3 / 4^3
        coeff = Enclosure("1.0003") * 2 * Enclosure(729) * pi ** 3 / 64
        up = _envelope(1, 3, cfg, upper=True)
        first = 2 * pi ** 3 / 64 * (-(pi / 4)).exp()
        assert (up - first).intersects(coeff * (-(9 * pi / 4)).exp())


def test_sandwich_on_default_grid(cfg):
    grid = log_grid(1.0, 100.0, 40)
    for nu in range(4):
        report = verify_sandwiches(grid, (nu,), cfg)[0]
        assert report.status is Status.CERTIFIED, report.summary()


def test_sandwich_single_point_high_order(cfg):
    report = verify_sandwiches([Enclosure(1)], (3,), cfg)[0]
    assert report.status is Status.CERTIFIED


def test_sandwich_fails_without_inflation(cfg, monkeypatch):
    # with c_nu = 0 the upper envelope equals the two-term lower bound,
    # which the true value strictly exceeds: the check must fail
    zeroish = EnvelopeConstants(*[Fraction(1, 10 ** 30)] * 4)
    monkeypatch.setattr(envelopes, "PAPER_CONSTANTS", zeroish)
    for nu in range(4):
        report = verify_sandwiches([Enclosure(1)], (nu,), cfg)[0]
        assert report.status is Status.FAILED, f"nu={nu} should fail with deflated constants"


def test_admissibility_factors_against_oracle(cfg):
    # the exact factor: theta2's omitted terms over the envelopes' second, summed by mpmath
    for nu in range(4):
        fac = admissibility_factor(nu, 1, cfg)
        with mp.workdps(50):
            assert fac.lo <= mp_admissibility_factor(nu, 1) <= fac.hi
        assert fac.width < 1e-41


def test_admissibility_certified_for_paper_constants(cfg):
    for nu in range(4):
        report = check_c_admissible(nu, cfg)
        assert report.status is Status.CERTIFIED, report.summary()


def test_decimal_string_tolerance_drives_a_certified_sum():
    # theta2(1/8) under "1e-60" at 256 bits: every point of the enclosure within 1e-60 of
    # mpmath's value, where the default 2^-100 stops with a tail near 1e-37 (at y = 1 the
    # terms fall so fast that the default's tail is already below 1e-57)
    strict, default = EvalConfig(256, "1e-60"), EvalConfig(256)
    with mp.workprec(512):
        oracle = mp_theta2(mp.mpf(1) / 8)
        enc = theta2_series(0.125, 0, strict)
        assert enc.lo <= oracle <= enc.hi
        assert max(oracle - enc.lo, enc.hi - oracle) <= mp.mpf("1e-60")
        assert theta2_series(0.125, 0, default).width > mp.mpf("1e-40")


def test_admissibility_fails_for_too_small_candidate(cfg, monkeypatch):
    monkeypatch.setattr(envelopes, "PAPER_CONSTANTS", EnvelopeConstants(c0=Fraction(1, 10 ** 7)))
    report = check_c_admissible(0, cfg)
    assert report.status is Status.FAILED


def _divided(d):
    return EnvelopeConstants(*(c / d for c in EnvelopeConstants().as_tuple()))


def test_admissibility_tightness_third_fails(cfg, monkeypatch):
    # the exact factors sit at 0.349, 0.323, 0.336 and 0.249 of their constants: c_nu / 3 is
    # refuted at nu = 0 and 2 only, and c_nu / 5 at every order
    monkeypatch.setattr(envelopes, "PAPER_CONSTANTS", _divided(5))
    fails = 0
    for nu in range(4):
        report = check_c_admissible(nu, cfg)
        fails += report.status is Status.FAILED
    assert fails == 4


def test_both_envelope_checks_read_one_constants_table(monkeypatch, capsys):
    # the sandwiches and the admissibility read PAPER_CONSTANTS at call time: with c_nu / 3
    # both fail where the true value sits above the upper envelope at y = 1 (nu = 0, 2)
    monkeypatch.setattr(envelopes, "PAPER_CONSTANTS", _divided(3))
    assert cli.main(["verify", "envelopes"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split()[1].rstrip(":").split("@")[0] for line in lines
              if line.startswith("[FAILED]")]
    assert failed == ["theta2-envelope-sandwich-nu0", "theta2-envelope-sandwich-nu2",
                      "c-admissibility-nu0", "c-admissibility-nu2"]


def test_admissibility_candidate_inside_factor_is_inconclusive(cfg, monkeypatch):
    # a candidate inside the factor's enclosure neither proves nor disproves
    # "factor < c": undecided, not a disproof
    factor = admissibility_factor(0, 1, cfg)
    man, exp = factor.mid.man_exp
    inside = EnvelopeConstants(c0=Fraction(man) * Fraction(2) ** exp)
    monkeypatch.setattr(envelopes, "PAPER_CONSTANTS", inside)
    report = check_c_admissible(0, cfg)
    assert report.status is Status.INCONCLUSIVE
    assert [c.passed for c in report.checks] == [True, None]


def test_log_grid_shape():
    grid = log_grid(1.0, 100.0, 40)
    assert len(grid) == 40
    assert float(grid[0].lo) == pytest.approx(1.0)
    assert float(grid[-1].hi) == pytest.approx(100.0)
    assert all(b.lo > a.lo for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        log_grid(1.0, 2.0, 1)


def _scan_like_grids(draws):
    """scan-like queries: lo in [0.01, 0.5] and hi in [2, 50] at 6 digits, 16-96 points."""
    rng = random.Random(11)
    for _ in range(draws):
        lo, hi = (float(f"{rng.uniform(*span):.6g}") for span in ((0.01, 0.5), (2, 50)))
        yield lo, hi, rng.randint(16, 96)


@pytest.mark.parametrize("grids", [[(0.013, 37.0, 16)], [(1.0, 100.0, 40)], list(_scan_like_grids(1000))],
                         ids=["scan", "sandwich", "scan-like"])
def test_log_grid_ends_on_its_interval(grids):
    # computed in floats, exp(log lo) and exp(log hi) round off lo and hi: 0.013 became
    # 0.012999999999999998 and 100 became 100.00000000000004
    for lo, hi, count in grids:
        grid = [float(p.lo) for p in log_grid(lo, hi, count)]
        assert len(grid) == count and grid[0] == lo and grid[-1] == hi, (lo, hi, count)
        assert all(a < b for a, b in zip(grid, grid[1:])), (lo, hi, count)


def test_log_grid_rejects_intervals_too_narrow_for_its_points():
    # [0.5, 0.5000000000000001] holds two floats: 8 points would repeat 6 of them
    assert [float(p.lo) for p in log_grid(0.5, 0.5000000000000001, 2)] == [0.5, 0.5000000000000001]
    with pytest.raises(ValueError):
        log_grid(0.5, 0.5000000000000001, 8)


def test_admissibility_runs_no_subdivision(cfg, monkeypatch):
    # the decay check already proves the factor's supremum on y >= 1 is its value at y = 1
    from thetacert import envelopes

    def subdivision(*args, **kwargs):
        raise AssertionError("check_c_admissible must not subdivide")

    monkeypatch.setattr(envelopes, "certify_sign", subdivision, raising=False)
    for nu in range(4):
        report = check_c_admissible(nu, cfg)
        assert report.status is Status.CERTIFIED, report.summary()
        assert report.subreports == []


def _same_report(a, b):
    return (a.name, a.status, a.interval, a.checks) == (b.name, b.status, b.interval, b.checks)


def test_multi_order_sandwich_matches_single_order_reports(cfg):
    grid = log_grid(1.0, 100.0, 40)
    together = verify_sandwiches(grid, range(4), cfg)
    assert [r.name for r in together] == [f"theta2-envelope-sandwich-nu{nu}" for nu in range(4)]
    for nu, report in enumerate(together):
        assert _same_report(report, verify_sandwiches(grid, (nu,), cfg)[0]), nu


def test_deflating_one_constant_fails_only_its_order(cfg, monkeypatch):
    grid = log_grid(1.0, 100.0, 40)
    monkeypatch.setattr(envelopes, "PAPER_CONSTANTS", EnvelopeConstants(c3=Fraction(1, 10 ** 30)))
    together = verify_sandwiches(grid, range(4), cfg)
    assert [r.status for r in together[:3]] == [Status.CERTIFIED] * 3
    alone = verify_sandwiches(grid, (3,), cfg)[0]
    assert together[3].status is Status.FAILED
    assert _same_report(together[3], alone)
    assert together[3].checks[0].detail.startswith("lower=")


def test_sandwich_reads_the_envelope_constants_at_each_call(cfg, monkeypatch):
    # no envelope poly outlives its call: a deflated c_3 fails nu = 3, and once the patch is
    # undone the same process certifies it again
    grid = log_grid(1.0, 4.0, 3)
    assert verify_sandwiches(grid, (3,), cfg)[0].status is Status.CERTIFIED
    monkeypatch.setattr(envelopes, "PAPER_CONSTANTS", EnvelopeConstants(c3=Fraction(1, 10 ** 30)))
    assert verify_sandwiches(grid, (3,), cfg)[0].status is not Status.CERTIFIED
    monkeypatch.undo()
    assert verify_sandwiches(grid, (3,), cfg)[0].status is Status.CERTIFIED


def test_sandwich_suite_takes_two_exponentials_per_point(cfg, monkeypatch):
    # one for the point's theta2 pass, one that every envelope of every order shares
    exps, inner = [], Enclosure.exp
    monkeypatch.setattr(Enclosure, "exp", lambda self: exps.append(self) or inner(self))
    verify_sandwiches(log_grid(1.0, 100.0, 40), range(4), cfg)
    assert len(exps) == 80


@pytest.mark.parametrize("nu", range(4))
def test_admissibility_takes_one_exponential_and_one_series_pass(cfg, nu, monkeypatch):
    # the decay check is integer arithmetic; the factor at y = 1 is one excess pass, whose
    # q = e^{-pi y/4} is its one exp
    from thetacert import theta

    exps, inner = [], Enclosure.exp
    monkeypatch.setattr(Enclosure, "exp", lambda self: exps.append(self) or inner(self))
    passes = count_calls(monkeypatch, theta, "certified_sum")
    check_c_admissible(nu, cfg)
    assert len(exps) == 1
    assert len(passes) == 1


def test_omitted_exponents_are_the_odd_squares_from_25(cfg, monkeypatch):
    # the excess pass reads theta2's statement: its exponents are m^2 for odd m >= 5, its
    # offset the envelopes' second exponent 3^2 and its scale theta2's 1/4
    passes, inner = [], envelopes._quadratic_series

    def counting(*args, **kwargs):
        passes.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(envelopes, "_quadratic_series", counting)
    admissibility_factor(0, 1, cfg)
    [((_, _, a, _, _), kwargs)] = passes
    assert [a(k) for k in range(1, 8)] == [m * m for m in range(5, 19, 2)]
    assert (kwargs["a0"], kwargs["scale"]) == (9, Fraction(1, 4))


@pytest.mark.parametrize("nu", [4, -1])
def test_sandwich_rejects_unknown_order(cfg, nu):
    with pytest.raises(ValueError):
        verify_sandwiches(log_grid(1.0, 100.0, 40), [nu], cfg)


@pytest.mark.parametrize(
    "call",
    [
        lambda cfg: _envelope(1, 4, cfg),
        lambda cfg: _envelope(1, -1, cfg, upper=True),
        lambda cfg: check_c_admissible(4, cfg),
    ],
    ids=["lower_envelope", "upper_envelope", "check_c_admissible"],
)
def test_envelope_functions_reject_unknown_order(cfg, call):
    # the sandwich is established for nu in {0, 1, 2, 3} only
    with pytest.raises(ValueError, match="derivative order"):
        call(cfg)
