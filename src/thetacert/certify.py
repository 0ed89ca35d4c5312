"""Adaptive-subdivision sign certification.

``certify_sign(fn, [a, b], sign)`` proves that a quantity keeps a strict
sign on an interval: it evaluates the quantity's enclosure on a box,
accepts the box if the enclosure is strictly signed, bisects otherwise,
and gives up at a configurable depth; every box is evaluated at the
config's own precision.  The outcome is a :class:`CertificationReport`
whose ``certified`` status constitutes a rigorous proof of the sign claim
on the whole interval; a ``failed`` status carries a :class:`Witness` box on
which the *opposite* strict sign was established, and ``inconclusive``
records the deepest undecided box without asserting anything.

Reports are deterministic functions of the evaluated box set: the
traversal order is fixed, and accepted boxes contribute only their count
and the worst certified margin.

Every other report is a chain of :class:`Check` results and subreports,
built by :meth:`CertificationReport.chain`, which derives its status from
those parts and gives an optional conclusion check that same outcome.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cmp_to_key

from mpmath import libmp as _lm

from .enclosure import (
    DEFAULT_CONFIG,
    ConvergenceError,
    Enclosure,
    EvalConfig,
    _sign,
    as_enclosure,
)

__all__ = [
    "Status",
    "Check",
    "Witness",
    "CertificationReport",
    "certify_sign",
]


class Status(enum.Enum):
    CERTIFIED = "certified"
    FAILED = "failed"
    INCONCLUSIVE = "inconclusive"

    @property
    def passed(self) -> bool | None:
        """This status as a :class:`Check` outcome (None when undecided)."""
        return None if self is Status.INCONCLUSIVE else self is Status.CERTIFIED

    @classmethod
    def of(cls, checks, subreports=()) -> "Status":
        """The status a chain earns from its parts: failed if any part is
        disproved, inconclusive if any is undecided, certified otherwise."""
        outcomes = [c.passed for c in checks] + [r.status.passed for r in subreports]
        if False in outcomes:
            return cls.FAILED
        if None in outcomes:
            return cls.INCONCLUSIVE
        return cls.CERTIFIED


@dataclass(frozen=True)
class Witness:
    """A point (or box) together with a strictly signed enclosure.

    A witness with value.hi < 0 rigorously disproves nonnegativity at y,
    and symmetrically for the other sign.
    """

    y: Enclosure
    value: Enclosure
    context: str = ""

    def __post_init__(self):
        if not (self.value.is_strictly_positive() or self.value.is_strictly_negative()):
            raise ValueError("a witness requires a strictly signed value enclosure")


@dataclass(frozen=True)
class Check:
    """One named sub-condition of a verification chain.

    passed is True/False when decided, None when the enclosures were too
    wide to decide either way.
    """

    name: str
    passed: bool | None
    detail: str = ""


@dataclass
class CertificationReport:
    name: str
    status: Status
    interval: tuple | None = None
    boxes_examined: int = 0
    max_depth_reached: int = 0
    min_margin: Enclosure | None = None
    witness: Witness | None = None
    unresolved_box: Enclosure | None = None
    #: why certify_sign stopped undecided: "box budget" or "depth limit"
    reason: str = ""
    checks: list[Check] = field(default_factory=list)
    subreports: list["CertificationReport"] = field(default_factory=list)

    @classmethod
    def chain(cls, name, checks, subreports=(), conclusion=None, **fields) -> "CertificationReport":
        """A chain's report, with the status its checks and subreports earn (:meth:`Status.of`);
        `conclusion=(name, detail)` appends a check whose outcome is that status.  Other
        report fields (interval, boxes_examined, ...) pass through `fields`."""
        checks, subreports = list(checks), list(subreports)
        status = Status.of(checks, subreports)
        if conclusion is not None:
            checks.append(Check(conclusion[0], status.passed, conclusion[1]))
        return cls(name, status, checks=checks, subreports=subreports, **fields)

    @property
    def certified(self) -> bool:
        return self.status is Status.CERTIFIED

    @property
    def report_id(self) -> str:
        if self.interval is not None:
            return f"{self.name}@[{self.interval[0]},{self.interval[1]}]"
        return self.name

    def summary(self) -> str:
        parts = [f"{self.report_id}: {self.status.value}"]
        if self.boxes_examined:
            parts.append(f"boxes={self.boxes_examined}")
            parts.append(f"depth={self.max_depth_reached}")
        if self.min_margin is not None:
            parts.append(f"margin={_lm.to_str(self.min_margin._lo, 8)}")
        if self.witness is not None:
            parts.append(f"witness at {self.witness.y!r}")
        if self.reason:
            parts.append(f"stopped by the {self.reason}")
        failed = [c.name for c in self.checks if c.passed is False]
        if failed:
            parts.append("failed checks: " + ", ".join(failed))
        return "  ".join(parts)


def _parse_sign(target_sign) -> int:
    if target_sign in (+1, -1):
        return target_sign
    if target_sign in ("positive", "negative"):
        return 1 if target_sign == "positive" else -1
    raise ValueError(f"target sign must be +1/-1 or 'positive'/'negative', got {target_sign!r}")


def _evaluate(fn, box: Enclosure, cfg: EvalConfig) -> Enclosure | None:
    """fn on the box, or None when its evaluation does not converge there."""
    try:
        return fn(box, cfg)
    except ConvergenceError:
        return None


def _margin(v: Enclosure, sign: int):
    return v.lo if sign > 0 else -v.hi


def certify_sign(
    fn,
    interval,
    target_sign,
    cfg: EvalConfig = DEFAULT_CONFIG,
    max_depth: int = 60,
    max_boxes: int = 50_000,
    name: str = "certify-sign",
    cuts=(),
) -> CertificationReport:
    """Prove fn(y) has the strict target sign for every y in [a, b].

    fn(box, cfg) must return an enclosure of the quantity over the box.
    The interval endpoints are enclosed outward, so certification covers
    at least the requested set.  Evaluation failures (e.g. a tail bound
    not converging on a wide box) count as undecided and trigger a split.

    Work is bounded two ways: boxes are never split beyond `max_depth`,
    and at most `max_boxes` boxes are examined in total; every box is
    evaluated at cfg's precision, so a finer margin needs a finer cfg.
    Quantities whose certifiable box width shrinks exponentially along the
    interval (e.g. values with a decaying exponential factor that interval
    arithmetic cannot divide out) exhaust the budget and come back
    `inconclusive` instead of running forever; every verification suite in
    this package stays orders of magnitude below the default budget.

    `cuts` inside (a, b) split it into pieces (an inexact cut at its lower
    bound), examined left to right from depth 0 under one budget and one
    report; cuts at or past the ends are ignored.
    """
    sign = _parse_sign(target_sign)
    with cfg.scope():
        lo_enc = as_enclosure(interval[0])
        hi_enc = as_enclosure(interval[1])
        a, b = lo_enc._lo, hi_enc._hi
        if any(end in (_lm.finf, _lm.fninf, _lm.fnan) for end in (a, b)):
            raise ValueError("certification interval endpoints must be finite")
        if _lm.mpf_cmp(a, b) >= 0:
            raise ValueError("empty certification interval")
        inner = {c for c in (as_enclosure(cut)._lo for cut in cuts)
                 if _lm.mpf_lt(a, c) and _lm.mpf_lt(c, b)}
    ends = [a, *sorted(inner, key=cmp_to_key(_lm.mpf_cmp)), b]
    mid_prec = cfg.precision_bits + 16

    stack = [(lo, hi, 0) for lo, hi in reversed(list(zip(ends, ends[1:])))]
    boxes = 0
    deepest = 0
    worst = None  # mpf margin, smallest certified distance from zero

    report = CertificationReport(
        name=name,
        status=Status.CERTIFIED,
        interval=(Enclosure._from_mpi((a, a)).lo, Enclosure._from_mpi((b, b)).hi),
    )

    while stack:
        xa, xb, depth = stack.pop()
        box = Enclosure._from_mpi((xa, xb))
        boxes += 1
        deepest = max(deepest, depth)
        if boxes > max_boxes:
            report.status, report.reason = Status.INCONCLUSIVE, "box budget"
            report.unresolved_box = box
            break
        value = _evaluate(fn, box, cfg)
        got = None if value is None else _sign(value)
        if got == sign:
            m = _margin(value, sign)
            if worst is None or m < worst:
                worst = m
            continue
        if got == -sign:
            # Opposite sign holds on the entire box: rigorous disproof.
            report.status = Status.FAILED
            report.witness = Witness(y=box, value=value, context=name)
            break
        if depth >= max_depth:
            report.status, report.reason = Status.INCONCLUSIVE, "depth limit"
            report.unresolved_box = box
            break
        mid = _lm.mpf_shift(_lm.mpf_add(xa, xb, mid_prec, "n"), -1)
        stack.append((mid, xb, depth + 1))
        stack.append((xa, mid, depth + 1))

    report.boxes_examined = boxes
    report.max_depth_reached = deepest
    if worst is not None and report.status is Status.CERTIFIED:
        report.min_margin = Enclosure(worst)
    return report
