"""Machine-readable verification reports.

Enclosures serialize as decimal [lo, hi] string pairs with *outward* decimal
rounding (lo rounded down, hi up, each its binary endpoint times a power of ten,
every rounding its way, then floored or ceiled), so a printed interval still
contains the true value and the report remains a proof artifact after serialization.
Parsing a report and re-serializing it reproduces the enclosure strings
verbatim: the strings are the canonical representation, never re-derived
from floats.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import MAX_EMAX

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
#: the most digits a bound prints: Python's default limit on converting an int to a str
MAX_DECIMAL_DIGITS = 4300


# F = 2^128 log10(2), floored: (e F >> 128) - 1 <= floor(e log10(2)) for |e| < 2^127
_LOG10_2 = _lm.to_fixed(_lm.mpf_div(_lm.mpf_ln2(160), _lm.mpf_ln10(160), 160), 128)


def _print_directed(raw, digits: int, direction: int) -> str:
    """Decimal string of a raw mpf v at `digits` significant digits, rounded toward -oo
    (direction < 0) or +oo by one directed scaling: |v| 10^k, k = digits - 1 - E for an E <=
    floor(log10 |v|), formed by libmp at wp bits with every rounding toward the bound's side,
    floored or ceiled to an integer N and cut to `digits` digits in the same direction (a nested
    floor or ceiling is the direct one), so N is exact whenever the scaling is.  Laid out as
    to_str lays it out, trailing zeros stripped, then as str(Decimal) does."""
    if raw == _lm.fzero:
        return "0"
    sign, man, exp, bc = raw
    if not man or abs(exp + bc) > 4 * MAX_EMAX:  # f'' at y = 1e-5000: an exponent of 5,000 digits
        raise DomainError("cannot print a non-finite value or one past the decimal exponent range")
    rnd, other = ("u", "d") if (direction > 0) != bool(sign) else ("d", "u")  # for |v|
    wp, k = max(bc, 4 * digits) + 64, digits - ((exp + bc - 1) * _LOG10_2 >> 128)
    power = _lm.mpf_pow_int(_lm.ften, abs(k), wp, rnd if k >= 0 else other)  # divides if k < 0
    scaled = (_lm.mpf_mul if k >= 0 else _lm.mpf_div)((0, man, exp, bc), power, wp, rnd)
    n, top = _lm.to_int(scaled, rnd), 10 ** digits
    while n >= top:
        n, k = -(-n // 10) if rnd == "u" else n // 10, k - 1
    c = (text := str(n)).rstrip("0")
    q = len(text) - len(c) - k  # the value is c 10^q
    point = len(c) + q  # the leading digit's exponent, plus one
    if min(-(digits // 3), -5) < point - 1 < digits:  # to_str's fixed point writes "12.0"
        c, q = (c + "0" * (q + 1), -1) if q >= 0 else (c, q)
    elif len(c) == 1:  # and its exponent form "1.0e-30"
        c, q = c + "0", q - 1
    if q > 0 or point < -5:  # str(Decimal)'s exponent form
        text = f"{c[0]}{'.' * (len(c) > 1)}{c[1:]}E{point - 1:+d}"
    else:
        text = c[:point] + "." * (q < 0) + c[point:] if point > 0 else "0." + "0" * -point + c
    return "-" + text if sign else text


def decimal_bounds(enc: Enclosure, digits: int = DEFAULT_DECIMAL_DIGITS) -> tuple[str, str]:
    """Outward-rounded decimal strings (lo, hi) of an enclosure, 1 to MAX_DECIMAL_DIGITS digits."""
    if not 1 <= digits <= MAX_DECIMAL_DIGITS:
        raise ValueError(f"decimal bounds take 1 to {MAX_DECIMAL_DIGITS} digits, got {digits}")
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
        rec["checks"] = [dict(name=c.name, passed=c.passed, detail=c.detail) for c in report.checks]
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
        return cls(
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
