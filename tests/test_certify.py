"""The adaptive bisection engine: certified / failed / inconclusive paths."""

import contextlib
import signal

import pytest

from thetacert import (
    CertificationReport,
    Check,
    ConvergenceError,
    Enclosure,
    EvalConfig,
    Status,
    Witness,
    certify_sign,
)


def _parabola(box, cfg):
    with cfg.scope():
        return (box - 3) * (box - 3) + 1  # strictly positive


def _line(box, cfg):
    with cfg.scope():
        return box - 2  # changes sign at 2


def _touching(box, cfg):
    with cfg.scope():
        return (box - 1) * (box - 1)  # nonnegative, zero at 1


def test_certifies_positive_quantity(cfg):
    report = certify_sign(_parabola, (0, 10), +1, cfg, name="parabola")
    assert report.status is Status.CERTIFIED
    assert report.boxes_examined >= 1
    # the margin is a certified lower bound on some box, hence positive and
    # no larger than the true minimum 1
    assert report.min_margin is not None
    assert 0 < report.min_margin.lo <= 1


def test_detects_wrong_sign_with_witness(cfg):
    report = certify_sign(_parabola, (0, 10), -1, cfg, name="parabola-neg")
    assert report.status is Status.FAILED
    assert isinstance(report.witness, Witness)
    assert report.witness.value.is_strictly_positive()


def test_sign_change_reports_failure(cfg):
    report = certify_sign(_line, (0, 5), +1, cfg, name="line")
    assert report.status is Status.FAILED
    # the witness box lies left of the root and is strictly negative there
    assert report.witness.value.is_strictly_negative()
    assert report.witness.y.hi <= 2


def test_touching_zero_is_inconclusive_not_failed(cfg):
    report = certify_sign(_touching, (0, 2), +1, cfg, max_depth=12, name="touches")
    assert report.status is Status.INCONCLUSIVE
    assert report.unresolved_box is not None
    assert report.unresolved_box.contains(1)


def test_an_inconclusive_report_names_the_bound_that_stopped_it(cfg):
    # the depth limit and the box budget each stop a search undecided; the report, its
    # summary and its JSON record say which, and a certified record carries no reason
    from thetacert.report import certification_record

    deep = certify_sign(_touching, (0, 2), +1, cfg, max_depth=12, name="touches")
    wide = certify_sign(_touching, (0, 2), +1, cfg, max_boxes=20, name="touches")
    for report, reason in ((deep, "depth limit"), (wide, "box budget")):
        assert report.status is Status.INCONCLUSIVE and report.reason == reason
        assert f"stopped by the {reason}" in report.summary()
        assert certification_record(report)["reason"] == reason
    certified = certify_sign(_parabola, (0, 5), +1, cfg, name="parabola")
    assert certified.reason == "" and "reason" not in certification_record(certified)


def test_margin_of_two_to_the_minus_60_certifies_at_53_bits():
    # 2^-60 is exact at 53 bits, so the halves [2, 3] and [3, 4] of the undecided box [2, 4]
    # certify with that margin at the config's own precision: 3 boxes, depth 1
    def marginal(box, cfg):
        with cfg.scope():
            return (box - 3) * (box - 3) + Enclosure(1) / Enclosure(2) ** 60

    low = EvalConfig(precision_bits=53, tail_tolerance=2.0 ** -40)
    report = certify_sign(marginal, (2, 4), +1, low, max_depth=6, name="marginal")
    assert report.status is Status.CERTIFIED


def test_deterministic_reports(cfg):
    a = certify_sign(_parabola, (0, 10), +1, cfg, name="det")
    b = certify_sign(_parabola, (0, 10), +1, cfg, name="det")
    assert a.boxes_examined == b.boxes_examined
    assert a.max_depth_reached == b.max_depth_reached
    assert a.min_margin == b.min_margin


def _recording(fn, boxes):
    """fn, appending every box it is evaluated on to `boxes`."""
    def recording(box, cfg):
        boxes.append(box)
        return fn(box, cfg)
    return recording


def _step(box, cfg):
    """+1 left of 2, -1 right of it, undecided on a box across 2."""
    return Enclosure(1) if box.hi <= 2 else Enclosure(-1) if box.lo >= 2 else Enclosure(-1, 1)


def test_cut_pieces_tile_the_interval_left_to_right(cfg):
    boxes = []
    report = certify_sign(_recording(_parabola, boxes), (0, 10), +1, cfg, cuts=("2.5", 1))
    assert report.certified and report.boxes_examined == len(boxes) > 3
    assert report.interval == (0, 10)
    # no evaluated box has a cut in its interior ...
    assert not [b for b in boxes for c in (1, 2.5) if b.lo < c < b.hi]
    # ... and the accepted boxes, met left to right, tile [0, 10] exactly
    leaves = [b for b in boxes if _parabola(b, cfg).is_strictly_positive()]
    assert leaves[0].lo == 0 and leaves[-1].hi == 10
    assert all(left.hi == right.lo for left, right in zip(leaves, leaves[1:]))
    assert boxes[0] == Enclosure(0, 1)


@pytest.mark.parametrize("cuts", [(0,), (10,), (-1, 12), (0, 10, "10.5")])
def test_cuts_at_or_past_the_ends_change_nothing(cfg, cuts):
    plain = certify_sign(_parabola, (0, 10), +1, cfg, name="p")
    assert certify_sign(_parabola, (0, 10), +1, cfg, name="p", cuts=cuts) == plain


def test_failed_piece_stops_the_run_with_its_witness(cfg):
    boxes = []
    report = certify_sign(_recording(_step, boxes), (0, 4), +1, cfg, cuts=(3, 2))
    assert report.status is Status.FAILED
    assert report.witness.y == Enclosure(2, 3) and report.witness.value.is_strictly_negative()
    # [0, 2] certified first; the piece [3, 4] is never examined
    assert boxes == [Enclosure(0, 2), Enclosure(2, 3)] and report.boxes_examined == 2
    assert report.min_margin is None


def test_cut_reports_are_deterministic(cfg):
    a = certify_sign(_parabola, (0, 10), +1, cfg, name="det", cuts=(1, "2.5"))
    assert certify_sign(_parabola, (0, 10), +1, cfg, name="det", cuts=("2.5", 1, 1)) == a
    assert a != certify_sign(_parabola, (0, 10), +1, cfg, name="det")


def test_interval_validation(cfg):
    with pytest.raises(ValueError):
        certify_sign(_parabola, (2, 2), +1, cfg)
    with pytest.raises(ValueError):
        certify_sign(_parabola, (0, 1), "sideways", cfg)


def test_sign_spellings(cfg):
    assert certify_sign(_parabola, (0, 1), "positive", cfg).certified
    assert certify_sign(lambda b, c: -_parabola(b, c), (0, 1), "negative", cfg).certified


@pytest.mark.parametrize("spelling", ["pos", "+", "POSITIVE", "neg", "-"])
def test_sign_rejects_other_spellings(cfg, spelling):
    # +1/-1 and "positive"/"negative" only: what the verifier and the CLI pass
    with pytest.raises(ValueError, match="target sign"):
        certify_sign(_parabola, (0, 1), spelling, cfg)


def test_witness_requires_strict_sign():
    with pytest.raises(ValueError):
        Witness(y=Enclosure(1), value=Enclosure(-1, 1))


def test_box_budget_bounds_work(cfg):
    # h(1/y) carries a decaying exponential factor that interval arithmetic
    # cannot divide out, so the certifiable box width shrinks like e^{-6 pi y}
    # and direct certification over a long interval is infeasible; the box
    # budget must turn that into a bounded inconclusive outcome
    from thetacert import QUANTITIES

    report = certify_sign(
        QUANTITIES["h_reciprocal"], (1, 5), +1, cfg, max_boxes=500, name="budget"
    )
    assert report.status is Status.INCONCLUSIVE
    assert report.boxes_examined == 501
    assert report.unresolved_box is not None
    # a short window near 1 stays comfortably inside the budget
    short = certify_sign(QUANTITIES["h_reciprocal"], (1, "1.2"), +1, cfg, name="short")
    assert short.certified and short.boxes_examined < 500


@contextlib.contextmanager
def _time_limit(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _never_called(box, cfg):
    raise AssertionError(f"evaluated a box {box!r}")


def test_infinite_endpoint_rejected_before_bisection(cfg):
    # bisecting [0.5, inf] gives inf again, so this used to run forever
    from thetacert import QUANTITIES

    with _time_limit(10), pytest.raises(ValueError, match="finite"):
        certify_sign(QUANTITIES["f_second"], ("0.5", "inf"), +1, cfg)


def test_nan_endpoint_rejected(cfg):
    with pytest.raises(ValueError):
        certify_sign(_never_called, ("nan", "1"), +1, cfg)


def test_infinite_endpoint_not_certified(cfg):
    # one box [1, inf] has a positive enclosure, which certified nothing finite
    with pytest.raises(ValueError, match="finite"):
        certify_sign(lambda box, c: box, ("1", "inf"), +1, cfg)


@pytest.mark.parametrize("as_subreport", [False, True], ids=["check", "subreport"])
@pytest.mark.parametrize(
    "outcome, status",
    [(True, Status.CERTIFIED), (None, Status.INCONCLUSIVE), (False, Status.FAILED)],
)
def test_chain_status_and_conclusion_come_from_the_parts(outcome, status, as_subreport):
    part = Check("part", outcome)
    if as_subreport:
        checks, subreports = [Check("premise", True)], [CertificationReport.chain("sub", [part])]
    else:
        checks, subreports = [Check("premise", True), part], []
    report = CertificationReport.chain("chain", checks, subreports, ("conclusion: claim", "why"))
    assert report.status is status
    assert report.checks[-1] == Check("conclusion: claim", outcome, "why")
    # the parts are kept as given; the caller's list does not gain the conclusion
    assert report.checks[:-1] == checks and report.subreports == subreports


def test_chain_failure_outranks_undecided_part():
    report = CertificationReport.chain("chain", [Check("a", None), Check("b", False)])
    assert report.status is Status.FAILED


def test_chain_passes_report_fields_through():
    report = CertificationReport.chain("chain", [Check("part", True)], interval=(1, 2),
                                       boxes_examined=7)
    assert report.status is Status.CERTIFIED
    assert report.interval == (1, 2) and report.boxes_examined == 7
    assert report.report_id == "chain@[1,2]"
    assert [c.name for c in report.checks] == ["part"]  # no conclusion unless one is given


def test_quantity_raising_on_wide_boxes_certifies_by_splitting(cfg):
    # an evaluation that does not converge on a box is undecided: the box splits
    def narrow_only(box, cfg):
        if box.width > 0.1:
            raise ConvergenceError("box too wide")
        return _parabola(box, cfg)

    report = certify_sign(narrow_only, (1, 2), +1, cfg, name="narrow-only")
    assert report.certified
    assert report.boxes_examined > 16  # 16 leaves of width 1/16, and the boxes above them


def test_failed_chain_summary_lists_failed_checks():
    report = CertificationReport.chain("demo", [Check("holds", True, ""), Check("breaks", False, ""),
                                                Check("open", None, "")])
    assert report.status is Status.FAILED
    assert report.summary().endswith("failed checks: breaks")
