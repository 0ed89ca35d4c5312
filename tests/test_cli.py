"""CLI contract: exit codes, report files, CSV format."""

import argparse
import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import thetacert
from thetacert import scanner
from thetacert.cli import main
from thetacert.report import decimal_bounds

from conftest import count_arithmetic, count_calls, verify_all_document


def run_cli(*argv):
    return main(list(argv))


def test_eval_exit_zero(capsys):
    assert run_cli("eval", "theta4", "--y", "1") == 0
    out = capsys.readouterr().out
    assert "0.913579138156" in out


def test_eval_negative_argument_usage_error(capsys):
    assert run_cli("eval", "theta4", "--y", "-1") == 2
    assert run_cli("eval", "theta4", "--y", "0") == 2
    assert run_cli("eval", "theta4", "--y", "bogus") == 2


def test_eval_unknown_function_usage_error():
    assert run_cli("eval", "theta9", "--y", "1") == 2


def test_eval_f_small_positive(capsys):
    assert run_cli("eval", "f", "--y", "10") == 0
    out = capsys.readouterr().out
    assert "E-11" in out or "e-11" in out


def test_eval_json_format(capsys):
    assert run_cli("eval", "f''", "--y", "2", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == "1"
    lo, hi = data["results"][0]["enclosure"]
    assert float(lo) > 0


def test_eval_order_on_f_rejected(capsys):
    assert run_cli("eval", "f", "--y", "1", "--order", "2") == 2


def test_verify_greek_writes_report(tmp_path, capsys):
    out = tmp_path / "greek.json"
    assert run_cli("verify", "greek", "--json", str(out)) == 0
    data = json.loads(out.read_text())
    values = {r["name"]: r for r in data["results"] if r["type"] == "value"}
    assert set(values) == {"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
    lo, hi = values["alpha"]["enclosure"]
    assert float(lo) <= 1984.33 <= float(hi) or abs(float(lo) - 1984.323) < 1e-3
    assert data["summary"]["ok"] is True


_GREEK_ORDER = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


def test_verify_greek_lists_the_constants_alpha_to_zeta(tmp_path, capsys):
    # text and JSON both follow verifier._SLOTS, the one statement of the six constants
    assert run_cli("verify", "greek") == 0
    lines = [line.split()[0] for line in capsys.readouterr().out.splitlines()
             if line.startswith("  ") and " in [" in line]
    assert lines == _GREEK_ORDER
    out = tmp_path / "greek.json"
    assert run_cli("verify", "greek", "--json", str(out)) == 0
    results = json.loads(out.read_text())["results"]
    assert [r["name"] for r in results if r["type"] == "value"] == _GREEK_ORDER


def test_verify_wrong_sign_exits_one(capsys):
    code = run_cli(
        "verify", "convexity", "--interval", "0.5", "1.0", "--target-sign", "negative"
    )
    assert code == 1


def test_verify_custom_interval_positive(capsys):
    code = run_cli("verify", "convexity", "--interval", "0.5", "1.0", "--target-sign", "positive")
    assert code == 0


def test_verify_envelopes_alias(capsys):
    assert run_cli("verify", "lemma1") == 0


def test_verify_unknown_suite_usage_error():
    assert run_cli("verify", "everything") == 2


def test_scan_witness_at_21(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert run_cli("scan", "--a", "2.1", "--csv", str(out), "--resolution", "16") == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "y,f_second_lo,f_second_hi"
    assert any(line.startswith("# witness") for line in lines)
    body = [line for line in lines[1:] if not line.startswith("#")]
    ys = [float(row.split(",")[0]) for row in body]
    assert ys == sorted(ys)
    reader = csv.reader(body)
    for row in reader:
        assert len(row) == 3
        assert float(row[1]) <= float(row[2])


def test_scan_no_witness_at_2(tmp_path, capsys):
    out = tmp_path / "scan2.csv"
    assert run_cli("scan", "--a", "2.0", "--csv", str(out), "--resolution", "16") == 0
    text = out.read_text()
    assert "# witness" not in text
    assert "no witness" in capsys.readouterr().out


@pytest.mark.parametrize("a, calls", [("2.5", 16), ("2", 16)])
def test_scan_evaluates_grid_once(monkeypatch, capsys, a, calls):
    # the witness search reuses the CLI's grid rows: one grid of 16, and
    # nothing more when the grid holds no witness
    count = 0
    inner = scanner.f_a_second

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(scanner, "f_a_second", counting)
    assert run_cli("scan", "--a", a, "--resolution", "16") == 0
    assert count == calls


def test_scan_builds_its_grid_once(monkeypatch, capsys):
    # the query keeps the grid it builds to validate itself, and scan_rows reads it
    calls = count_calls(monkeypatch, scanner, "log_grid")
    assert run_cli("scan", "--a", "2.5", "--resolution", "16") == 0
    assert len(calls) == 1


def test_main_builds_its_parser_once(monkeypatch, capsys):
    from thetacert import cli

    builds, inner = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "thetacert":  # the top-level parser, not a subcommand's
            builds.append(kwargs)
        inner(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    try:
        assert run_cli("eval", "theta4", "--y", "1") == 0
        assert run_cli("eval", "theta4", "--y", "2") == 0
    finally:
        cli._build_parser.cache_clear()
    assert len(builds) == 1


def test_scan_without_grid_witness_reports_none(capsys):
    # f_a'' > 0 on all of [0.8, 3] at a = 2.1 (certify_sign proves it), so no
    # witness may come from outside the requested interval either
    assert run_cli("scan", "--a", "2.1", "--interval", "0.8", "3", "--resolution", "8") == 0
    out = capsys.readouterr().out
    assert "# witness" not in out
    assert "no witness found" in out


def test_scan_rows_print_the_evaluated_y(capsys):
    # the first grid point of [0.013, 37] is the float 0.013, 0.01299999999999999940..., and at the
    # 15 digits "0.0220916036959086" of the second f_a'' lies outside that row's bounds
    assert run_cli("scan", "--a", "2", "--interval", "0.013", "37", "--resolution", "16") == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines() if line[:1].isdigit()]
    assert len(rows) == 16
    for y, lo, hi in rows:
        point = thetacert.Enclosure(y)
        assert point.lo == point.hi, y  # printed exactly
        assert scanner.f_a_second(2, point).intersects(thetacert.Enclosure(lo, hi)), y
    # at a = 2.1 the witness is that first point: both witness lines bound it outward
    assert run_cli("scan", "--a", "2.1", "--interval", "0.013", "37", "--resolution", "16") == 0
    out = capsys.readouterr().out
    witness = next(line for line in out.splitlines() if line.startswith("# witness,"))
    _, ylo, yhi, _, _ = witness.split(",")
    assert f"at y in [{ylo}, {yhi}]" in out
    assert thetacert.Enclosure(ylo, yhi).contains(thetacert.Enclosure(rows[0][0]))


@pytest.mark.parametrize("a, lo, hi, res", [
    ("2.1", "0.8", "3", "8"),
    ("2.1", "0.05", "5", "16"),
    ("2.5", "0.3", "10", "8"),
    ("3", "0.01", "50", "16"),
    ("4", "0.5", "2", "8"),
    ("2.1", "0.013", "37", "16"),
])
def test_scan_witness_lies_in_interval(capsys, a, lo, hi, res):
    assert run_cli("scan", "--a", a, "--interval", lo, hi, "--resolution", res) == 0
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("# witness"):
            _, ylo, yhi, vlo, vhi = line.split(",")
            assert float(lo) <= float(ylo) <= float(yhi) <= float(hi), line
            assert float(vhi) < 0


def test_scan_interval_too_narrow_for_its_grid_usage_error(capsys):
    # [0.5, 0.5000000000000001] holds two floats, too few for 8 distinct rows
    assert run_cli("scan", "--a", "2", "--interval", "0.5", "0.5000000000000001", "--resolution", "8") == 2
    assert "too narrow" in capsys.readouterr().err


#: the decades of y outside [1e-5, 1e5]; theta2 only at large y, where it is fast
_SMALL_Y, _LARGE_Y = ("1e-8", "1e-7", "1e-6"), ("1e6", "1e7", "1e8")


def _extreme_evaluations():
    for fn in ("theta2", "theta4", "f", "f'", "f''"):
        ys = _LARGE_Y if fn == "theta2" else _SMALL_Y + _LARGE_Y
        orders = ("0", "1", "2", "3") if fn.startswith("theta") else ("0",)
        yield from ((fn, y, nu) for y in ys for nu in orders)


def test_eval_at_extreme_y_prints_ordered_bounds(capsys):
    evaluations = list(_extreme_evaluations())
    assert len(evaluations) == 54
    for fn, y, nu in evaluations:
        argv = ["--precision", "128", "eval", fn, "--y", y] + (["--order", nu] if nu != "0" else [])
        assert run_cli(*argv) == 0, argv
        out = capsys.readouterr().out.strip()
        lo, hi = out.rsplit(" in [", 1)[1].removesuffix("]").split(", ")
        assert Decimal(lo) <= Decimal(hi), out


def _eval_bounds(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli(*argv) == 0, argv
    lo, hi = out.getvalue().strip().rsplit(" in [", 1)[1].removesuffix("]").split(", ")
    return Decimal(lo), Decimal(hi)


@settings(max_examples=150, deadline=None)
@given(fn=st.sampled_from(["f", "f'", "f''", "theta4", "theta2"]), t=st.floats(0, 1),
       nu=st.sampled_from(["0", "1", "2", "3"]))
def test_eval_bounds_are_ordered_and_agree_across_precisions(fn, t, nu):
    # y log-uniform on [1e-8, 1e8], theta2 on [1e-5, 1e8] (its direct series is slow below);
    # the 128-bit and 192-bit enclosures both hold the value, so they must meet
    low = -5 if fn == "theta2" else -8
    y = f"{10 ** (low + (8 - low) * t):.6g}"
    order = ["--order", nu] if fn.startswith("theta") else []
    lo, hi = _eval_bounds("eval", fn, "--y", y, *order)
    lo192, hi192 = _eval_bounds("--precision", "192", "eval", fn, "--y", y, *order)
    assert lo <= hi and lo192 <= hi192
    assert lo <= hi192 and lo192 <= hi, (fn, y, nu)


@pytest.mark.parametrize("suite", ["greek", "small-y"])
def test_loose_cancellation_is_inconclusive(capsys, suite):
    # at 60 bits the e^(6 pi y) coefficients enclose 0 but are too wide to
    # confirm the cancellation: undecided, not disproved
    assert run_cli("--precision", "60", "verify", suite) == 1
    out = capsys.readouterr().out
    assert "[INCONCLUSIVE]" in out
    assert "FAILED" not in out


def test_scan_bad_exponent_usage_error():
    assert run_cli("scan", "--a", "two-point-one") == 2
    assert run_cli("scan", "--a", "2.1", "--interval", "5", "1") == 2
    assert run_cli("scan", "--a", "1/0") == 2


def _unwritable(tmp_path, kind):
    """A path in a missing directory, or a path that is a directory."""
    return str(tmp_path / "missing" / "out") if kind == "missing" else str(tmp_path)


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_verify_unwritable_report_path_usage_error(tmp_path, capsys, kind):
    path = _unwritable(tmp_path, kind)
    assert run_cli("verify", "greek", "--json", path) == 2
    assert f"cannot write the report to {path}" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_scan_unwritable_csv_path_usage_error(tmp_path, capsys, kind):
    path = _unwritable(tmp_path, kind)
    assert run_cli("scan", "--a", "2.1", "--resolution", "8", "--csv", path) == 2
    assert f"cannot write the scan to {path}" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_verify_unwritable_report_path_runs_no_suite(monkeypatch, tmp_path, capsys, kind):
    from thetacert import cli

    calls = count_calls(monkeypatch, cli, "checked_greek_constants")
    assert run_cli("verify", "greek", "--json", _unwritable(tmp_path, kind)) == 2
    assert calls == []
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("interval", [("2", "1"), ("1", "1"), ("0.1", "0.1")])
def test_verify_empty_interval_usage_error(capsys, interval):
    assert run_cli("verify", "convexity", "--interval", *interval) == 2
    assert "LO < HI" in capsys.readouterr().err


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("THETACERT_PRECISION", "96")
    assert run_cli("eval", "theta4", "--y", "1", "--digits", "20") == 0
    monkeypatch.setenv("THETACERT_PRECISION", "12")  # below the 53-bit floor
    assert run_cli("eval", "theta4", "--y", "1") == 2


@pytest.mark.parametrize("function, y, evaluate, digits", [
    ("f", "1.1", thetacert.f_eval, 45),
    ("theta4", "0.3", thetacert.theta4_eval, 39),
])
def test_precision_reaches_parsed_argument(capsys, function, y, evaluate, digits):
    # --y is enclosed at the working precision: at 256 bits the printed bounds are the
    # library's on a 256-bit enclosure of y, not those of a 128-bit one (34 and 36
    # shared leading digits); the 2^-100 tail tolerance, not y, then sets their width
    assert run_cli("--precision", "256", "eval", function, "--y", y, "--digits", "60") == 0
    cfg = thetacert.EvalConfig(precision_bits=256)
    with cfg.scope():
        lo, hi = decimal_bounds(evaluate(thetacert.Enclosure(y), cfg=cfg), 60)
    assert capsys.readouterr().out == f"{function}({y}) in [{lo}, {hi}]\n"
    assert len(os.path.commonprefix([lo, hi])) - len("0.") >= digits


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thetacert.cli", "eval", "theta2", "--y", "2"],
        capture_output=True,
        text=True,
        cwd=Path(thetacert.__file__).parents[1],  # importable without PYTHONPATH
    )
    assert proc.returncode == 0
    assert "0.41576" in proc.stdout


def test_python_dash_m_runs_the_cli(capsys):
    src = str(Path(thetacert.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "thetacert", "eval", "f", "--y", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert run_cli("eval", "f", "--y", "1") == 0
    assert proc.stdout == capsys.readouterr().out


def _readme_cli_block():
    """(argv, exit code) for each command of the README's CLI block, read as a shell would: 1
    where its comment says "exits 1", else 0."""
    readme = (Path(thetacert.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [(shlex.split(command), 1 if "exits 1" in comment else 0)
            for command, _, comment in (line.partition("#") for line in block.splitlines())]


@pytest.mark.parametrize("argv, code", _readme_cli_block(),
                         ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_the_readme_cli_block_runs_as_documented(argv, code, tmp_path, monkeypatch, capsys):
    # `thetacert ...` in process, `python -m thetacert ...` by subprocess, files under tmp_path
    monkeypatch.chdir(tmp_path)
    if argv[:3] == ["python", "-m", "thetacert"]:
        env = {**os.environ, "PYTHONPATH": str(Path(thetacert.__file__).parents[1])}
        proc = subprocess.run([sys.executable, *argv[1:]], capture_output=True, text=True, env=env)
        assert proc.returncode == code, proc.stderr
    else:
        assert argv[0] == "thetacert"
        assert main(argv[1:]) == code
    capsys.readouterr()
    for name in argv:
        if name.endswith((".json", ".csv")):
            assert (tmp_path / name).stat().st_size > 0, name


def test_verify_all_derives_small_y_chain_once(monkeypatch, capsys):
    from thetacert import cli, verifier

    count = 0
    inner = verifier.verify_small_y_chain

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_small_y_chain", counting)
    monkeypatch.setattr(verifier, "verify_small_y_chain", counting)
    assert run_cli("verify", "all") == 0
    assert count == 1


def test_greek_cancellation_check_is_computed(tmp_path, capsys):
    path = tmp_path / "greek.json"
    assert run_cli("verify", "greek", "--json", str(path)) == 0
    (report,) = [r for r in json.loads(path.read_text())["results"] if r["type"] == "certification"]
    (check,) = [c for c in report["checks"] if "cancellation" in c["name"]]
    assert check["passed"] is True
    assert check["detail"].count("Enclosure[") == 2


def test_verify_all_runs_admissibility_once_per_order(monkeypatch, capsys):
    from thetacert import cli, envelopes, verifier

    orders = []
    inner = envelopes.check_c_admissible

    def counting(nu, *args, **kwargs):
        orders.append(nu)
        return inner(nu, *args, **kwargs)

    for module in (cli, envelopes, verifier):
        monkeypatch.setattr(module, "check_c_admissible", counting, raising=False)
    assert run_cli("verify", "all") == 0
    assert sorted(orders) == [0, 1, 2, 3]


def _certification_records(records):
    for rec in records:
        yield rec
        yield from _certification_records(rec.get("subreports", []))


def _certification_names(records):
    return (rec["name"] for rec in _certification_records(records))


def _top_level_certifications(path):
    return [r for r in json.loads(path.read_text())["results"] if r["type"] == "certification"]


def test_verify_all_json_holds_one_small_y_chain(tmp_path, capsys):
    path = tmp_path / "all.json"
    assert run_cli("verify", "all", "--json", str(path)) == 0
    names = list(_certification_names(_top_level_certifications(path)))
    assert names.count("small-y-chain") == 1


#: the certification records of `verify all --json`, depth first (27 distinct names: the
#: small-y chain cites the four admissibility records again as its premises)
_VERIFY_ALL_RECORDS = [
    *(f"theta2-envelope-sandwich-nu{nu}" for nu in range(4)),
    *(f"c-admissibility-nu{nu}" for nu in range(4)),
    *(f"modular-identity-nu{nu}" for nu in range(4)),
    "g-chain", "g-second-positive",
    "even-terms-large-y",
    "odd-terms-large-y",
    "small-y-chain", *(f"c-admissibility-nu{nu}" for nu in range(4)), "small-y-final-bracket",
    "greek-constants",
    "convexity-desk-scale", "f-second-positive", "f-prime-negative",
    "f-second-positive-lambert-overlap", "f-second-positive-modular-overlap",
    "decreasing-argument", "decreasing-even-bracket", "decreasing-odd-bracket",
]


def test_verify_all_json_passes_the_proof_gate(tmp_path, capsys):
    # the benchmark's `proof` correctness gate: a byte-for-byte round trip, every record
    # certified, and the full record list
    from thetacert.report import ReportDocument

    path = tmp_path / "all.json"
    assert run_cli("verify", "all", "--json", str(path)) == 0
    text = path.read_text()
    assert ReportDocument.from_json(text).to_json() == text
    records = list(_certification_records(_top_level_certifications(path)))
    assert [r["status"] for r in records] == ["certified"] * len(records)
    assert [r["name"] for r in records] == _VERIFY_ALL_RECORDS
    assert len(set(_VERIFY_ALL_RECORDS)) == 27


def test_verify_all_document_is_deterministic(tmp_path, capsys):
    # the whole report of two in-process runs at 128 bits, timestamps aside
    first = verify_all_document(tmp_path / "first.json")
    assert verify_all_document(tmp_path / "second.json") == first
    assert first["summary"] == {"certified": 19, "failed": 0, "inconclusive": 0, "ok": True}


def test_verify_all_takes_at_most_195_exps(tmp_path, capsys, monkeypatch):
    # a deterministic work count beside the benchmark's times: a Lambert box takes 2 exps,
    # its pass's u_1 and its leading term's at the midpoint, and each admissibility order 1
    exps = count_calls(monkeypatch, thetacert.Enclosure, "exp")
    verify_all_document(tmp_path / "all.json")
    assert len(exps) <= 195, len(exps)


def test_scan_takes_at_most_32_exps_and_192_enclosure_operations(capsys, monkeypatch):
    # 16 thin rows: the thin f passes run on balls, one exp each and no Enclosure arithmetic;
    # the rest is the family's power y^0.1 (an exp and a log) and its product, per row
    exps = count_calls(monkeypatch, thetacert.Enclosure, "exp")
    arithmetic = count_arithmetic(monkeypatch)
    assert run_cli("scan", "--a", "2.1", "--resolution", "16") == 0
    capsys.readouterr()
    assert len(exps) <= 32, len(exps)
    assert len(arithmetic) <= 192, len(arithmetic)


def test_scan_rows_take_three_kernel_calls_and_no_enclosure_arithmetic(capsys, monkeypatch):
    # 16 thin rows, each one ball pass: the theta4 or Q-series pass's exp, and y^0.1's log and
    # exp, one mpmath kernel call each; the row is rounded into an Enclosure once
    import mpmath.libmp

    calls = [count_calls(monkeypatch, mpmath.libmp, name) for name in ("mpf_exp", "mpf_log")]
    arithmetic = count_arithmetic(monkeypatch)
    assert run_cli("scan", "--a", "2.1", "--resolution", "16") == 0
    capsys.readouterr()
    assert sum(map(len, calls)) <= 48, [len(c) for c in calls]
    assert not arithmetic, arithmetic


#: the sandwich grid and the modular samples of `verify all`, as their check names print them
_SANDWICH_YS = (
    "1.0", "1.12533558260076", "1.2663801734674", "1.425102670303", "1.60371874375133",
    "1.80472176682717", "2.03091762090474", "2.28546386413499", "2.57191380905935",
    "2.89426612471675", "3.25702065565978", "3.66524123707963", "4.12462638290135",
    "4.64158883361278", "5.22334507426684", "5.87801607227491", "6.61474064123015",
    "7.44380301325169", "8.37677640068292", "9.42668455117885", "10.6081835513945",
    "11.9377664171444", "13.433993325989", "15.1177507061566", "17.0125427985259",
    "19.1448197616996", "21.5443469003188", "24.2446201708233", "27.2833337648677",
    "30.7029062975785", "34.5510729459222", "38.8815518030809", "43.7547937507419",
    "49.2388263170674", "55.4102033000949", "62.3550734127392", "70.1703828670383",
    "78.9652286849973", "88.8623816274341", "100.0",
)
_MODULAR_YS = ("0.5", "0.594603557501361", "0.707106781186548", "0.840896415253715", "1.0",
               "1.18920711500272", "1.41421356237309", "1.68179283050743", "2.0")
_ADMISSIBILITY = tuple((f"c-admissibility-nu{nu}", "certified", (
    "excess terms decay", "factor below c at y=1")) for nu in range(4))
_GREEK_CHECKS = (
    "leading e^(6 pi y) cancellation", *(f"{name} strictly positive" for name in
                                         ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")),
    "alpha < gamma", "beta < delta",
)
#: the skeleton of `verify all --json` at 128 bits, depth first: (id, status, check names) of
#: each certification record and ("value", name) of each value record, with no values
_VERIFY_ALL_SKELETON = [
    *((f"theta2-envelope-sandwich-nu{nu}@[1.0,100.0]", "certified",
       (*(f"sandwich at y={y}" for y in _SANDWICH_YS), "envelopes share the e^(-pi y/4) term"))
      for nu in range(4)),
    *_ADMISSIBILITY,
    *((f"modular-identity-nu{nu}@[0.5,2.0]", "certified",
       tuple(f"agreement at y={y}" for y in _MODULAR_YS)) for nu in range(4)),
    ("g-chain", "certified", ("g'' matches its displayed grouping", "corner 1 + sqrt 3 below pi",
                              "g'(1) > 0", "g(1) > 0", "conclusion: g > 0 on [1, oo)")),
    ("g-second-positive", "certified", ("bracket > 0 for x >= corner",)),
    ("even-terms-large-y", "certified", ("bracket > 0 for t >= corner",)),
    ("odd-terms-large-y", "certified", ("dropped summand positive", "bracket > 0 for s >= corner")),
    ("small-y-chain", "certified", (
        *_GREEK_CHECKS, "rounding direction alpha >= 1984", "rounding direction beta <= 632",
        "rounding direction gamma <= 1986", "rounding direction delta <= 632",
        "rounding direction epsilon <= 2", "rounding direction zeta <= 2/25", "e^(2 pi) > 535",
        "e^(4 pi y) coefficient positive", "integer absorption",
        "conclusion: f'' > 0 on (0, 1]")),
    *_ADMISSIBILITY,
    ("small-y-final-bracket", "certified", ("bracket > 0 for y >= corner",)),
    *(("value", name) for name in ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")),
    ("greek-constants", "certified", _GREEK_CHECKS),
    ("convexity-desk-scale@[0.05,20.0]", "certified", (
        "f-second-positive", "f-prime-negative", "f-second-positive-lambert-overlap",
        "f-second-positive-modular-overlap")),
    ("f-second-positive@[0.05,20.0]", "certified", ()),
    ("f-prime-negative@[0.05,20.0]", "certified", ()),
    ("f-second-positive-lambert-overlap@[0.8,1.25]", "certified", ()),
    ("f-second-positive-modular-overlap@[0.8,1.25]", "certified", ()),
    ("decreasing-argument", "certified",
     ("convexity input", "conclusion: f strictly decreasing on (0, oo)")),
    ("decreasing-even-bracket", "certified", ("bracket < 0 for t >= corner",)),
    ("decreasing-odd-bracket", "certified", ("bracket < 0 for s >= corner",)),
]


def _skeleton(records):
    for rec in records:
        if rec["type"] == "value":
            yield "value", rec["name"]
            continue
        yield rec["id"], rec["status"], tuple(check["name"] for check in rec.get("checks", []))
        yield from _skeleton(rec.get("subreports", []))


def test_verify_all_skeleton_is_pinned(tmp_path, capsys):
    # which records, statuses and checks `verify all` reports, whatever their values: a change
    # to the proof's shape shows here as a named difference
    assert list(_skeleton(verify_all_document(tmp_path / "all.json")["results"])) == \
        _VERIFY_ALL_SKELETON


def test_verify_decreasing_emits_its_premise_first(tmp_path, capsys):
    path = tmp_path / "decreasing.json"
    assert run_cli("verify", "decreasing", "--json", str(path)) == 0
    records = _top_level_certifications(path)
    assert [r["name"] for r in records] == ["small-y-chain", "decreasing-argument"]
    assert list(_certification_names(records)).count("small-y-chain") == 1


def test_verify_convexity_across_route_boundary(capsys):
    # [0.5, 2] straddles the route boundary y = 1
    code = run_cli("verify", "convexity", "--interval", "0.5", "2", "--target-sign", "positive")
    out = capsys.readouterr().out
    assert code == 0
    assert "[ok]" in out and ": certified" in out


@pytest.mark.parametrize("function", ["f", "theta4"])
def test_eval_non_finite_argument_usage_error(capsys, function):
    assert run_cli("eval", function, "--y", "inf") == 2
    assert "finite" in capsys.readouterr().err


def test_verify_infinite_interval_usage_error(capsys):
    code = run_cli("verify", "convexity", "--interval", "0.5", "inf", "--target-sign", "positive")
    assert code == 2


def test_scan_infinite_interval_usage_error(capsys):
    assert run_cli("scan", "--a", "2", "--interval", "0.5", "inf") == 2
    assert "nan" not in capsys.readouterr().err


def _one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "function, y",
    [("f'", "1e20"), ("f", "1e400"), ("theta2", "1e400"), ("theta4", "1e-400"),
     ("f''", "1e-5000")],  # the last has a decimal exponent of more than 4,300 digits
)
def test_eval_beyond_decimal_exponent_range_exits_one(capsys, function, y, fmt):
    assert run_cli("eval", function, "--y", y, "--format", fmt) == 1
    assert "decimal exponent range" in _one_line_error(capsys)


def test_scan_beyond_decimal_exponent_range_exits_one(capsys):
    assert run_cli("scan", "--a", "2", "--interval", "1e19", "1e20", "--resolution", "8") == 1
    assert "decimal exponent range" in _one_line_error(capsys)


@pytest.mark.parametrize("digits", ["-3", "0"])
def test_digits_below_one_usage_error(capsys, digits):
    assert run_cli("eval", "f", "--y", "1", "--digits", digits) == 2
    assert run_cli("scan", "--a", "2.1", "--digits", digits) == 2
    assert run_cli("verify", "greek", "--digits", digits) == 2


@pytest.mark.parametrize("digits, code", [(4300, 0), (4301, 2)])
def test_digits_above_4300_usage_error(tmp_path, capsys, digits, code):
    # 4,300 is Python's default limit on int-to-str conversion: the most digits a bound prints
    path = tmp_path / "greek.json"
    assert run_cli("eval", "f", "--y", "1", "--digits", str(digits)) == code
    assert run_cli("scan", "--a", "2.1", "--resolution", "8", "--digits", str(digits)) == code
    assert run_cli("verify", "greek", "--digits", str(digits), "--json", str(path)) == code
    out, err = capsys.readouterr()
    if code:
        assert err.count("--digits must be from 1 to 4300") == 3 and not path.exists()
    else:
        # a 128-bit bound is a dyadic of about 130 digits: printed whole, trailing zeros stripped
        assert out.startswith("f(1) in [0.297109903806619159709192485176116135813490431610579170")
        assert json.loads(path.read_text())["decimal_digits"] == 4300


def test_verify_quantity_cuts_f_prime_at_the_route_boundary(tmp_path, capsys):
    # [0.05, 1] on the modular route and [1, 20] on the Lambert route, as in verify_convexity
    path = tmp_path / "f_prime.json"
    assert run_cli("verify", "convexity", "--interval", "0.05", "20", "--quantity", "f_prime",
                   "--target-sign", "negative", "--json", str(path)) == 0
    (record,) = _top_level_certifications(path)
    assert (record["status"], record["boxes_examined"]) == ("certified", 4)


def test_verify_quantity_alone_selects_custom_certification(capsys):
    # f' < 0, so certifying it positive on the default interval fails
    assert run_cli("verify", "convexity", "--quantity", "f_prime") == 1
    out = capsys.readouterr().out
    assert "f_prime-positive" in out and "convexity-desk-scale" not in out


@pytest.mark.parametrize(
    "suite, option",
    [
        ("greek", ["--interval", "0.5", "1"]),
        ("all", ["--target-sign", "positive"]),
        ("modular", ["--quantity", "f_prime"]),
    ],
)
def test_convexity_options_rejected_for_other_suites(capsys, suite, option):
    assert run_cli("verify", suite, *option) == 2
    assert "convexity" in capsys.readouterr().err


def _count_kernel_runs(monkeypatch):
    from thetacert import theta

    calls = []
    inner = theta.certified_sum

    def counting(what, *args, **kwargs):
        calls.append(what)
        return inner(what, *args, **kwargs)

    monkeypatch.setattr(theta, "certified_sum", counting)
    return calls


@pytest.mark.parametrize("suite, passes", [("envelopes", 40), ("modular", 9)])
def test_sampled_suites_take_one_theta2_pass_per_point(monkeypatch, capsys, suite, passes):
    # every sample point serves all four derivative orders from one pass: theta2's own for the
    # modular samples; theta2's terms from the third for the sandwich grid, whose direct
    # comparison at y = 1 takes the one theta2 pass, and whose suite adds one excess pass per
    # order for the admissibility at y = 1
    calls = _count_kernel_runs(monkeypatch)
    assert run_cli("verify", suite) == 0
    if suite == "envelopes":
        assert (calls.count("theta2 excess"), calls.count("theta2_series")) == (passes + 4, 1)
    else:
        assert calls.count("theta2_series") == passes


def test_envelope_suite_shares_envelope_exponentials(monkeypatch, capsys):
    # two envelope exponentials per point, not two per envelope and order
    exps = []
    inner = thetacert.Enclosure.exp

    def counting(self):
        exps.append(1)
        return inner(self)

    monkeypatch.setattr(thetacert.Enclosure, "exp", counting)
    assert run_cli("verify", "envelopes") == 0
    assert len(exps) <= 700
