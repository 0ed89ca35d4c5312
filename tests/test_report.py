"""Report serialization: outward decimal bounds and JSON round-trips."""

import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import libmp

from thetacert import (
    CertificationReport,
    DomainError,
    Enclosure,
    EvalConfig,
    Status,
    Witness,
    certify_sign,
    f_eval,
    f_prime,
    f_second,
    precision,
    theta2_series,
    theta4_eval,
)
from thetacert.report import (
    ReportDocument,
    _print_directed,
    certification_record,
    decimal_bounds,
)

from conftest import count_calls


def test_decimal_bounds_are_outward():
    with precision(128):
        for value in ("0.1", "-0.09", "3.14159", "1e-40", "-2.5e17"):
            e = Enclosure(value)
            lo, hi = decimal_bounds(e, 25)
            with precision(300):
                # ceiling of the printed lo must not exceed the true lo, and
                # floor of the printed hi must not fall below the true hi
                assert Enclosure(lo).hi <= e.lo
                assert Enclosure(hi).lo >= e.hi


def test_decimal_bounds_round_trip_contains():
    with precision(128):
        e = Enclosure(1) / Enclosure(3)
        lo, hi = decimal_bounds(e, 30)
        rebuilt = Enclosure(lo, hi)
        assert rebuilt.contains(e)


def test_zero_prints_as_zero():
    with precision(128):
        lo, hi = decimal_bounds(Enclosure(0), 10)
        assert lo == "0" and hi == "0"


def test_document_round_trip_preserves_strings():
    doc = ReportDocument(command="verify demo", config=EvalConfig()).start()
    with precision(128):
        doc.add_value("third", Enclosure(1) / Enclosure(3))
        doc.add_certification(
            CertificationReport(
                name="demo",
                status=Status.CERTIFIED,
                interval=(Enclosure(1).lo, Enclosure(2).hi),
                boxes_examined=3,
                min_margin=Enclosure("0.25"),
            )
        )
    doc.finish()
    text = doc.to_json()
    parsed = ReportDocument.from_json(text)
    assert parsed.to_json() == text
    data = json.loads(text)
    assert data["schema_version"] == "1"
    assert data["summary"]["ok"] is True


@pytest.mark.parametrize("y", ["1e-8", "1e-6", "1e6", "1e8"])
def test_decimal_bounds_outside_default_exponent_range(cfg, y):
    # f'' at 1e-6 is ~1e-2728727 and f at 1e8 ~1e-136437619, far outside
    # Decimal's default exponent range
    for fn in (f_eval, f_prime, f_second, theta4_eval, theta2_series):
        e = fn(Enclosure(y), cfg=cfg)
        lo, hi = decimal_bounds(e, 40)
        with precision(300):
            assert Enclosure(lo, hi).contains(e)


def test_decimal_bounds_past_the_int_to_str_limit_raise_domain_error(cfg):
    # f'' at y = 1e-5000 has a decimal exponent of more than Python's 4,300 int-to-str digits
    with pytest.raises(DomainError, match="decimal exponent range"):
        decimal_bounds(f_second(Enclosure("1e-5000"), cfg=cfg), 40)


def test_decimal_bounds_keep_every_digit_below_a_power_of_ten():
    # 1 - 1e-25 floors to twenty nines at 20 digits, not to nineteen
    with precision(128):
        lo, hi = decimal_bounds(Enclosure(1) - Enclosure("1e-25"), 20)
    assert lo == "0." + "9" * 20 and hi == "1.0"


@pytest.mark.parametrize("ends", [(0, float("inf")), (float("-inf"), 0)])
def test_decimal_bounds_of_an_infinite_endpoint_raise_domain_error(ends):
    with pytest.raises(DomainError, match="non-finite"):
        decimal_bounds(Enclosure(*ends), 20)


@pytest.mark.parametrize("y", ["1e-6", "1e8"])
def test_decimal_bounds_parse_and_print_no_decimal_strings(monkeypatch, cfg, y):
    # one directed scaling per bound: no to_str, and no from_str re-parse of its own output
    values = [fn(Enclosure(y), cfg=cfg) for fn in (f_eval, f_prime, f_second, theta4_eval)]
    calls = [count_calls(monkeypatch, libmp, name) for name in ("from_str", "to_str")]
    for digits in (20, 40):
        for value in values:
            decimal_bounds(value, digits)
    assert calls == [[], []]


@settings(max_examples=300, deadline=None)
@given(man=st.integers(1, 2 ** 300), exp=st.integers(-10 ** 4, 10 ** 4), negative=st.booleans(),
       digits=st.integers(1, 60), direction=st.sampled_from([-1, 1]))
@example(man=1, exp=0, negative=False, digits=1, direction=1)
@example(man=10 ** 20 - 1, exp=0, negative=True, digits=19, direction=-1)
# a 20-digit decimal plus or minus 5^-30 2^-136 or 2^-119 (the product by 10^30 is inexact), and
# one plus 2^95 (the quotient by 10^30 is): an inward rounding in the scaling would cross it
@example(man=4590849630796321969758253800601, exp=-136, negative=False, digits=20, direction=1)
@example(man=51004893510779705148384103, exp=-119, negative=False, digits=20, direction=-1)
@example(man=380719526756810004118, exp=95, negative=False, digits=20, direction=1)
@example(man=380719526756810004118, exp=95, negative=True, digits=20, direction=-1)
def test_printed_bound_is_the_directed_rounding(man, exp, negative, digits, direction):
    # v = +-man 2^exp exactly.  The printed bound p has at most `digits` significant digits, lies
    # on its side of v, and is the nearest such number there: one step of its last digit toward
    # v (a tenth of a unit where that shrinks a power of ten) crosses v
    raw = libmp.from_man_exp(-man if negative else man, exp)
    v = Fraction(-man if negative else man) * Fraction(2) ** exp
    text = _print_directed(raw, digits, direction)
    d = Decimal(text)
    p, unit = Fraction(d), Fraction(10) ** (d.adjusted() - digits + 1)
    assert len("".join(map(str, d.as_tuple().digits)).rstrip("0")) <= digits
    shrinks = (p > 0) == (direction > 0)
    step = unit / 10 if shrinks and abs(p) == Fraction(10) ** d.adjusted() else unit
    if direction < 0:
        assert p <= v < p + step
    else:
        assert p - step < v <= p
    # the layout of to_str at `digits` digits, trailing zeros stripped, through str(Decimal)
    assert str(Decimal(libmp.to_str(libmp.from_str(text, 4 * digits + 64, "n"), digits))) == text


@pytest.mark.parametrize("tolerance", [2.0 ** -100, "1e-900"])
def test_document_round_trip_rebuilds_config(tolerance):
    config = EvalConfig(precision_bits=256, tail_tolerance=tolerance, max_terms=500)
    text = ReportDocument(command="verify demo", config=config).to_json()
    parsed = ReportDocument.from_json(text)
    assert parsed.config == config
    assert parsed.to_json() == text


def test_witness_and_failure_records():
    with precision(128):
        w = Witness(y=Enclosure("0.05"), value=Enclosure("-21.8", "-21.7"), context="demo")
        rep = CertificationReport(name="fails", status=Status.FAILED, witness=w)
        rec = certification_record(rep)
    assert rec["status"] == "failed"
    assert rec["witness"]["context"] == "demo"
    lo, hi = rec["witness"]["value"]
    assert float(lo) <= -21.8 and float(hi) >= -21.7


def test_summary_counts():
    doc = ReportDocument(command="verify x")
    with precision(128):
        doc.add_certification(CertificationReport(name="a", status=Status.CERTIFIED))
        doc.add_certification(CertificationReport(name="b", status=Status.INCONCLUSIVE))
    s = doc.summary
    assert s == {"certified": 1, "failed": 0, "inconclusive": 1, "ok": False}


def test_inconclusive_report_round_trips_with_unresolved_box(cfg):
    undecided = lambda box, cfg: Enclosure(-1, 1)  # noqa: E731
    report = certify_sign(undecided, (1, 2), +1, cfg, max_boxes=5, name="budget")
    assert report.status is Status.INCONCLUSIVE and report.unresolved_box is not None
    doc = ReportDocument(command="verify demo", config=cfg).start()
    doc.add_certification(report)
    text = doc.finish().to_json()
    assert ReportDocument.from_json(text).to_json() == text
    (record,) = json.loads(text)["results"]
    assert record["status"] == "inconclusive"
    lo, hi = record["unresolved_box"]
    assert 1 <= float(lo) < float(hi) <= 2
