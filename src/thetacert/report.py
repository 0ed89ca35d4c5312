"""Machine-readable verification reports.

Enclosures serialize as decimal [lo, hi] string pairs with *outward*
decimal rounding (lo printed rounded down, hi rounded up, both verified
against the binary endpoints), so a printed interval still contains the
true value and the report remains a proof artifact after serialization.
Parsing a report and re-serializing it reproduces the enclosure strings
verbatim: the strings are the canonical representation, never re-derived
from floats.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import MAX_EMAX, MIN_EMIN, Decimal, InvalidOperation, localcontext

from mpmath import libmp as _lm

from .certify import CertificationReport, Status, Witness
from .enclosure import DEFAULT_CONFIG, DomainError, Enclosure, EvalConfig

__all__ = [
    "SCHEMA_VERSION",
    "decimal_bounds",
    "ReportDocument",
]

SCHEMA_VERSION = "1"
DEFAULT_DECIMAL_DIGITS = 40


def _decimal_ulp(d: Decimal, digits: int) -> Decimal:
    return Decimal(1).scaleb(d.adjusted() - digits + 1)


def _print_directed(raw, digits: int, direction: int) -> str:
    """Decimal string of a raw mpf, rounded toward -oo (direction < 0) or +oo.

    to_str rounds to nearest, so nudge by one unit in the last printed place
    until the printed decimal provably lies on the required side (checked by
    re-parsing with directed rounding).
    """
    if raw == _lm.fzero:
        return "0"
    prec = max(64, digits * 4)
    with localcontext() as ctx:
        ctx.prec = digits + 10  # the +-ulp nudges must not be rounded away
        ctx.Emin, ctx.Emax = MIN_EMIN, MAX_EMAX  # f'' at y = 1e-6 is ~1e-2728727
        try:  # |f'| at y = 1e20 is about 10^(-1.36e20); f'' at y = 1e-5000 has a binary
            # exponent of 5,000 digits, which to_str takes ~40 s to fail to print
            if abs(raw[2] + raw[3]) > 4 * MAX_EMAX:  # 2^(4 MAX_EMAX) > 10^(1.2 MAX_EMAX)
                raise InvalidOperation
            d = Decimal(_lm.to_str(raw, digits))
        except InvalidOperation:
            raise DomainError("cannot print a value beyond the decimal exponent range") from None
        for _ in range(4):
            if direction < 0:
                back = _lm.from_str(str(d), prec, "c")  # ceiling of printed value
                if _lm.mpf_cmp(back, raw) <= 0:
                    return str(d)
                d = d - _decimal_ulp(d, digits)
            else:
                back = _lm.from_str(str(d), prec, "f")  # floor of printed value
                if _lm.mpf_cmp(back, raw) >= 0:
                    return str(d)
                d = d + _decimal_ulp(d, digits)
    raise AssertionError("directed decimal printing did not settle")


def decimal_bounds(enc: Enclosure, digits: int = DEFAULT_DECIMAL_DIGITS) -> tuple[str, str]:
    """Outward-rounded decimal strings (lo, hi) for an enclosure."""
    return (
        _print_directed(enc._lo, digits, -1),
        _print_directed(enc._hi, digits, +1),
    )


def _witness_record(w: Witness, digits: int) -> dict:
    return {
        "type": "witness",
        "context": w.context,
        "y": list(decimal_bounds(w.y, digits)),
        "value": list(decimal_bounds(w.value, digits)),
    }


def _check_records(report: CertificationReport) -> list[dict]:
    return [
        {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
    ]


def certification_record(report: CertificationReport, digits: int = DEFAULT_DECIMAL_DIGITS) -> dict:
    rec: dict = {
        "type": "certification",
        "id": report.report_id,
        "name": report.name,
        "status": report.status.value,
        "boxes_examined": report.boxes_examined,
        "max_depth_reached": report.max_depth_reached,
    }
    if report.interval is not None:
        lo, hi = report.interval
        rec["interval"] = [str(lo), str(hi)]
    if report.min_margin is not None:
        rec["min_margin"] = list(decimal_bounds(report.min_margin, digits))
    if report.witness is not None:
        rec["witness"] = _witness_record(report.witness, digits)
    if report.unresolved_box is not None:
        rec["unresolved_box"] = list(decimal_bounds(report.unresolved_box, digits))
    if report.reason:
        rec["reason"] = report.reason
    if report.checks:
        rec["checks"] = _check_records(report)
    if report.subreports:
        rec["subreports"] = [certification_record(r, digits) for r in report.subreports]
    return rec


def value_record(name: str, enc: Enclosure, digits: int = DEFAULT_DECIMAL_DIGITS) -> dict:
    return {"type": "value", "name": name, "enclosure": list(decimal_bounds(enc, digits))}


@dataclass
class ReportDocument:
    """Top-level JSON document emitted by the CLI."""

    command: str
    config: EvalConfig = DEFAULT_CONFIG
    results: list[dict] = field(default_factory=list)
    decimal_digits: int = DEFAULT_DECIMAL_DIGITS
    schema_version: str = SCHEMA_VERSION
    started_at: str = ""
    finished_at: str = ""

    def start(self):
        self.started_at = datetime.now(timezone.utc).isoformat()
        return self

    def finish(self):
        self.finished_at = datetime.now(timezone.utc).isoformat()
        return self

    def add_certification(self, report: CertificationReport):
        self.results.append(certification_record(report, self.decimal_digits))

    def add_value(self, name: str, enc: Enclosure):
        self.results.append(value_record(name, enc, self.decimal_digits))

    def add_witness(self, witness: Witness):
        self.results.append(_witness_record(witness, self.decimal_digits))

    @property
    def summary(self) -> dict:
        statuses = [r.get("status") for r in self.results if r.get("type") == "certification"]
        return {
            "certified": sum(1 for s in statuses if s == Status.CERTIFIED.value),
            "failed": sum(1 for s in statuses if s == Status.FAILED.value),
            "inconclusive": sum(1 for s in statuses if s == Status.INCONCLUSIVE.value),
            "ok": all(s == Status.CERTIFIED.value for s in statuses),
        }

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "config": {
                "precision_bits": self.config.precision_bits,
                "tail_tolerance": repr(self.config.tail_tolerance),
                "max_terms": self.config.max_terms,
            },
            "decimal_digits": self.decimal_digits,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "results": self.results,
            "summary": self.summary,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        """Parse a serialized document; enclosure strings are kept verbatim."""
        data = json.loads(text)
        doc = cls(
            command=data["command"],
            config=EvalConfig(
                precision_bits=data["config"]["precision_bits"],
                # written with repr: a float, or a quoted decimal string
                tail_tolerance=ast.literal_eval(data["config"]["tail_tolerance"]),
                max_terms=data["config"]["max_terms"],
            ),
            results=data["results"],
            decimal_digits=data["decimal_digits"],
            schema_version=data["schema_version"],
            started_at=data["started_at"],
            finished_at=data["finished_at"],
        )
        return doc
