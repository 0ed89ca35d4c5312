"""Command-line front end.

Three subcommands:

  thetacert eval <function> --y Y [--order N] [--format text|json]
  thetacert verify <suite> [--json PATH] [--interval LO HI] [--target-sign S]
  thetacert scan --a A [--interval LO HI] [--resolution N] [--csv PATH]

Exit codes are stable across subcommands: 0 = success / fully certified,
1 = verification failure, inconclusive result or evaluation error (a value
beyond the decimal exponent range included), 2 = usage error (bad arguments:
a non-finite number, an --interval with LO >= HI, --digits below 1, a
convexity option on another suite, a --json or --csv PATH that cannot be
opened for writing; a --json PATH is checked before any suite runs).
The default working precision is 128 bits and can be overridden with
--precision or the THETACERT_PRECISION environment variable.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from decimal import Decimal

from mpmath import mp

from .certify import CertificationReport, certify_sign
from .enclosure import DomainError, Enclosure, EnclosureError, EvalConfig
from .envelopes import log_grid, verify_sandwiches
from .modular import theta4_eval, verify_modular_identities
from .report import ReportDocument, decimal_bounds
from .scanner import ExponentQuery, find_witness_in_rows, scan_rows
from .theta import DERIVATIVE_ORDERS, theta2_series
from .verifier import (
    _INTERVAL,
    _ROUTE_CUT,
    QUANTITIES,
    checked_greek_constants,
    f_eval,
    f_prime,
    f_second,
    verify_convexity,
    verify_decreasing_argument,
    verify_even_terms_large_y,
    verify_g_chain,
    verify_odd_terms_large_y,
    verify_small_y_chain,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

EVAL_FUNCTIONS = ("theta2", "theta4", "f", "f'", "f''")
VERIFY_SUITES = (
    "envelopes",
    "modular",
    "g-chain",
    "large-y",
    "small-y",
    "greek",
    "convexity",
    "decreasing",
    "all",
)
SUITE_ALIASES = {"lemma1": "envelopes"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="thetacert",
        description="Certified theta-function evaluation and inequality verification.",
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=None,
        help="working precision in bits (default: THETACERT_PRECISION or 128)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function to a certified enclosure")
    p_eval.add_argument("function", choices=EVAL_FUNCTIONS)
    p_eval.add_argument("--y", required=True, help="argument, a positive decimal")
    p_eval.add_argument("--order", type=int, default=0, choices=DERIVATIVE_ORDERS,
                        help="derivative order (theta functions only)")
    p_eval.add_argument("--format", choices=("text", "json"), default="text")
    p_eval.add_argument("--digits", type=int, default=40, help="decimal digits printed")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES + tuple(SUITE_ALIASES))
    p_verify.add_argument("--json", dest="json_path", default=None,
                          help="write the full report document here")
    p_verify.add_argument("--interval", nargs=2, metavar=("LO", "HI"), default=None,
                          help="override the certification interval (convexity suite)")
    p_verify.add_argument("--target-sign", choices=("positive", "negative"), default=None,
                          help="certify this sign instead of the suite default (convexity suite)")
    p_verify.add_argument("--quantity", choices=tuple(QUANTITIES), default=None,
                          help="certify this quantity (default f_second) instead of the "
                               "suite (convexity suite)")
    p_verify.add_argument("--digits", type=int, default=40)

    p_scan = sub.add_parser("scan", help="scan an exponent family member for convexity failures")
    p_scan.add_argument("--a", required=True, help="exponent (decimal)")
    p_scan.add_argument("--interval", nargs=2, metavar=("LO", "HI"),
                        default=("0.05", "5"))
    p_scan.add_argument("--resolution", type=int, default=48)
    p_scan.add_argument("--csv", dest="csv_path", default=None)
    p_scan.add_argument("--digits", type=int, default=20)
    return parser


def _make_config(args) -> EvalConfig:
    bits = args.precision
    if bits is None:
        bits = int(os.environ.get("THETACERT_PRECISION", "128"))
    return EvalConfig(precision_bits=bits)


def _parse_number(text: str, what: str, cfg: EvalConfig, positive: bool = True) -> Enclosure:
    try:
        with cfg.scope():
            enc = Enclosure(text)
    except Exception:
        raise SystemExit(_usage_error(f"{what} must be a decimal number, got {text!r}"))
    if not (mp.isfinite(enc.lo) and mp.isfinite(enc.hi)):
        raise SystemExit(_usage_error(f"{what} must be finite, got {text}"))
    if positive and not enc.is_strictly_positive():
        raise SystemExit(_usage_error(f"{what} must be positive, got {text}"))
    return enc


def _usage_error(message: str) -> int:
    print(f"thetacert: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _check_writable(path: str, what: str) -> None:
    """Exit 2 before any work unless `path` opens for appending (which keeps what it holds)."""
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot write the {what} to {path}: {exc.strerror or exc}"))


def _write(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot write the {what} to {path}: {exc.strerror or exc}"))
    print(f"{what} written to {path}")


def _cmd_eval(args, cfg: EvalConfig) -> int:
    y = _parse_number(args.y, "--y", cfg)
    try:
        if args.function == "theta4":
            value = theta4_eval(y, args.order, cfg)
            name = f"theta4^({args.order})" if args.order else "theta4"
        elif args.function == "theta2":
            value = theta2_series(y, args.order, cfg)
            name = f"theta2^({args.order})" if args.order else "theta2"
        else:
            if args.order:
                return _usage_error("--order applies only to the theta functions")
            fn = {"f": f_eval, "f'": f_prime, "f''": f_second}[args.function]
            value = fn(y, cfg)
            name = args.function
    except EnclosureError as exc:
        print(f"thetacert: evaluation failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    lo, hi = decimal_bounds(value, args.digits)
    if args.format == "json":
        doc = ReportDocument(command=f"eval {args.function}", config=cfg,
                             decimal_digits=args.digits).start()
        doc.add_value(f"{name}({args.y})", value)
        doc.finish()
        print(doc.to_json())
    else:
        print(f"{name}({args.y}) in [{lo}, {hi}]")
    return EXIT_OK


def _suite_greek(args, cfg, doc: ReportDocument | None):
    checks, greek = checked_greek_constants(cfg)
    if greek is not None:
        for name, value in greek.as_dict().items():
            if doc is not None:
                doc.add_value(name, value)
            else:
                lo, hi = decimal_bounds(value, args.digits)
                print(f"  {name} in [{lo}, {hi}]")
    return [CertificationReport.chain("greek-constants", checks)]


def _custom(args) -> bool:
    """Whether a convexity-only option selects a custom certification."""
    return any(v is not None for v in (args.interval, args.target_sign, args.quantity))


def _suite_convexity(args, cfg):
    if _custom(args):
        interval = args.interval if args.interval is not None else _INTERVAL
        sign = args.target_sign or "positive"
        quantity = args.quantity or "f_second"
        cuts = (_ROUTE_CUT,) if quantity in ("f_second", "f_prime") else ()
        return [
            certify_sign(QUANTITIES[quantity], tuple(interval), sign, cfg,
                         name=f"{quantity}-{sign}", cuts=cuts)
        ]
    return [verify_convexity(cfg)]


def _cmd_verify(args, cfg: EvalConfig) -> int:
    suite = SUITE_ALIASES.get(args.suite, args.suite)
    if _custom(args) and suite != "convexity":
        return _usage_error("--interval, --target-sign and --quantity need the convexity suite")
    if args.interval is not None:
        lo, hi = (_parse_number(text, "--interval", cfg, positive=False) for text in args.interval)
        if not lo.hi < hi.lo:
            return _usage_error(f"--interval needs LO < HI, got {' '.join(args.interval)}")
    if args.json_path:
        _check_writable(args.json_path, "report")
    doc = ReportDocument(command=f"verify {suite}", config=cfg,
                         decimal_digits=args.digits).start()
    # the small-y chain is a suite, the decreasing suite's premise and, as its
    # first four subreports, the envelope admissibility: derive it at most once
    # per invocation and emit it once
    small_y = functools.cache(lambda: verify_small_y_chain(cfg))
    runners = {
        "envelopes": lambda: (
            verify_sandwiches(log_grid(1.0, 100.0, 40), range(4), cfg)
            + small_y().subreports[:4]  # check_c_admissible at orders 0-3
        ),
        "modular": lambda: verify_modular_identities(("0.5", "2"), range(4), cfg),
        "g-chain": lambda: [verify_g_chain(cfg)],
        "large-y": lambda: [verify_even_terms_large_y(cfg=cfg), verify_odd_terms_large_y(cfg=cfg)],
        "small-y": lambda: [small_y()],
        "greek": lambda: _suite_greek(args, cfg, doc if args.json_path else None),
        "convexity": lambda: _suite_convexity(args, cfg),
        "decreasing": lambda: (
            ([] if suite == "all" else [small_y()])
            + [verify_decreasing_argument(cfg, convexity_report=small_y())]
        ),
    }
    order = list(runners) if suite == "all" else [suite]
    all_ok = True
    for name in order:
        try:
            reports = runners[name]()
        except (EnclosureError, ValueError) as exc:
            print(f"suite {name}: error: {exc}", file=sys.stderr)
            all_ok = False
            continue
        for rep in reports:
            doc.add_certification(rep)
            marker = "ok" if rep.certified else rep.status.value.upper()
            print(f"[{marker}] {rep.summary()}")
            if not rep.certified:
                all_ok = False
    doc.finish()
    if args.json_path:
        _write(args.json_path, doc.to_json(), "report")
    summary = doc.summary
    print(
        f"suites: {len(order)}  certifications: {summary['certified']} certified, "
        f"{summary['failed']} failed, {summary['inconclusive']} inconclusive"
    )
    return EXIT_OK if all_ok else EXIT_VERIFICATION_FAILED


def _cmd_scan(args, cfg: EvalConfig) -> int:
    try:
        query = ExponentQuery(
            a=args.a,
            interval=(float(args.interval[0]), float(args.interval[1])),
            resolution=args.resolution,
        )
    except (ValueError, TypeError) as exc:
        return _usage_error(str(exc))
    except ZeroDivisionError:  # Fraction("1/0")
        return _usage_error(f"--a must be a finite number, got {args.a!r}")
    rows = scan_rows(query, cfg)
    witness = find_witness_in_rows(query, rows)
    lines = ["y,f_second_lo,f_second_hi"]
    for y, enc in rows:  # y exactly: a grid point is a float, whose decimal expansion is finite
        lo, hi = decimal_bounds(enc, args.digits)
        lines.append(f"{Decimal(float(y.lo))},{lo},{hi}")
    if witness is not None:
        ylo, yhi = decimal_bounds(witness.y, args.digits)
        vlo, vhi = decimal_bounds(witness.value, args.digits)
        lines.append(f"# witness,{ylo},{yhi},{vlo},{vhi}")
    text = "\n".join(lines) + "\n"
    if args.csv_path:
        _write(args.csv_path, text, "scan")
    else:
        sys.stdout.write(text)
    if witness is not None:
        print(f"witness: f_a'' < 0 certified at y in [{ylo}, {yhi}] (value in [{vlo}, {vhi}])")
    else:
        print("no witness found (this does not certify convexity)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.digits < 1:
        return _usage_error(f"--digits must be at least 1, got {args.digits}")
    try:
        cfg = _make_config(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    try:
        if args.command == "eval":
            return _cmd_eval(args, cfg)
        if args.command == "verify":
            return _cmd_verify(args, cfg)
        if args.command == "scan":
            return _cmd_scan(args, cfg)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except DomainError as exc:
        print(f"thetacert: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
