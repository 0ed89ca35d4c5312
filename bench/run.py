"""Benchmark for thetacert: one command, three workloads, correctness gates.

    python3 bench/run.py --workload proof|points|scan --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every workload is closed-loop and single-process: one operation
at a time, the next sent when the previous returns.  The seed makes the
workload's list of distinct operations (see ``workloads.py``).  The list is
run over and over until ``--seconds`` have passed and at least one whole
pass is done; then the correctness gates run, outside the timed region.

``--trace 0`` prints the end-to-end metrics, with times scaled by
calibration bursts sampled all through the timed loop, operations included
(see ``Sampler`` and ``end_to_end``).
``--trace 1`` runs each operation twice in a row, untraced and then with
the outside-in tracer of ``tracer.py`` installed, for ``--seconds`` in all,
and prints the per-layer metrics of the traced runs and the tracing
overhead (traced minus untraced time, over untraced time).  Executions or
spans go to ``.bench_out/`` at the end.  A workload with a known-defect
probe (``points``) runs it once after the gates, untimed and outside
``attempted`` and ``failed``: its failures go to the metadata line, and to
the ``report.decimal_failures`` metrics of a traced run.  The last line of
standard output is the result object; the line before it holds run
metadata.  README.md in this directory documents every metric.
"""

from __future__ import annotations

import argparse
import bisect
import gzip
import json
import os
import platform
import resource
import statistics
import signal
import subprocess
import sys
import time
from collections import Counter, defaultdict

import mpmath
from mpmath import libmp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 15
# setup_probe.py scales its set-up time to a machine on which one of its
# bursts takes SETUP_CAL_REF_S (the fast state of the baseline machine).
SETUP_CAL_REF_S = 45e-6
CALIBRATION_ITERATIONS = 2_000_000
REPEATS = 3  # back-to-back runs of an operation cheaper than CHEAP_S
CHEAP_S = 0.02
# Reported times are scaled to a machine on which one calibration burst
# takes CAL_REF_S.  During the timed loop a burst runs every CAL_EVERY_S of
# wall time, interrupting whatever runs (see Sampler).
CAL_BURST = 12
CAL_REF_S = 0.00014
CAL_EVERY_S = 0.02
LAYERS = ("theta", "modular", "verifier", "certify", "envelopes", "exppoly", "scanner",
          "report", "cli")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "digits_min": "digits",
}
PER_LAYER = {
    "machine.calib_s": "s",
    "trace.overhead_frac": "frac",
    "trace.spans": "count/op",
    "enclosure.ops": "count/op",
    "enclosure.exp_calls": "count/op",
    "enclosure.mul_us": "us",
    "enclosure.exp_us": "us",
    "enclosure.mpi_mul_us": "us",
    "enclosure.mul_us_256": "us",
    "enclosure.exp_us_256": "us",
    "enclosure.mpi_mul_us_256": "us",
    **{f"{layer}.{m}": u for layer in ("theta", "modular")
       for m, u in (("calls", "count/op"), ("self_s", "s/op"), ("exp_per_call", "count"),
                    ("convergence_errors", "count/op"))},
    "verifier.calls": "count/op",
    "verifier.self_s": "s/op",
    "verifier.dispatch_calls": "count/op",
    "verifier.straddle_frac": "frac",
    "verifier.escalated_calls": "count/op",
    "certify.certifications": "count/op",
    "certify.boxes": "count/op",
    "certify.convexity_boxes": "count/op",
    "certify.accepted_frac": "frac",
    "certify.convergence_splits": "count/op",
    "certify.escalations": "count/op",
    "certify.max_depth": "count",
    "certify.s_per_certification": "s",
    "certify.self_s": "s/op",
    "envelopes.calls": "count/op",
    "envelopes.self_s": "s/op",
    "exppoly.calls": "count/op",
    "exppoly.self_s": "s/op",
    "scanner.grid_evals": "count/op",
    "scanner.refine_evals": "count/op",
    "scanner.self_s": "s/op",
    "scanner.witness_frac": "frac",
    "report.calls": "count/op",
    "report.bytes": "count/op",
    "report.self_s": "s/op",
    "report.decimal_failures": "count",
    "report.decimal_failures.InvalidOperation": "count",
    "report.decimal_failures.AssertionError": "count",
    "cli.self_s": "s/op",
}


def import_package():
    if not os.path.isdir(os.path.join(SRC, "thetacert")):
        sys.exit(f"bench: no thetacert package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import thetacert
    import thetacert.cli
    import thetacert.report

    return thetacert


def percentile(values, p):
    """Linear-interpolated percentile (p in [0, 100]) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    i = int(pos)
    j = min(i + 1, len(xs) - 1)
    return xs[i] + (xs[j] - xs[i]) * (pos - i)


def calibration_s() -> float:
    """A fixed pure-Python loop: how fast this machine runs Python right now."""
    t = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i
    return time.perf_counter() - t


def calibration_burst() -> float:
    """Seconds for a fixed loop of mpmath libmp operations at 128 bits.

    thetacert spends its time in libmp, so this follows the machine's speed
    for the program more closely than the pure-Python loop does.
    """
    x, y = libmp.from_str("0.7", 140, "n"), libmp.from_str("1.3", 140, "n")
    t = time.perf_counter()
    for _ in range(CAL_BURST):
        a = libmp.mpf_exp(x, 136, "f")
        b = libmp.mpf_mul(a, y, 128, "c")
        libmp.mpi_mul((x, y), (a, b), 128)
        libmp.mpf_div(libmp.mpf_add(b, x, 128, "f"), y, 128, "n")
    return time.perf_counter() - t


class Sampler:
    """Calibration bursts sampled every CAL_EVERY_S of wall time while active.

    SIGALRM interrupts whatever runs, operations included, and the handler
    times one burst in the same process.  The bursts therefore sample the
    machine's speed evenly over the whole timed loop.  Bursts run between
    operations only, or a pure-Python loop, tracked a shared machine's
    speed swings far worse: within one run the ratio of a proof's time to
    its neighbouring bursts varied by 2x, against about 4 % (coefficient
    of variation) for bursts taken inside it.  ``paused`` is the time spent
    in bursts, which ``execute`` takes out of an operation's latency.
    """

    def __init__(self):
        self.bursts = []  # (time, seconds)
        self.paused = 0.0
        self._previous = None

    def sample(self, *_):
        start = time.perf_counter()
        self.bursts.append((start, calibration_burst()))
        self.paused += time.perf_counter() - start

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def setup_s() -> tuple[float, float, float]:
    """Median over fresh interpreters of: import thetacert, first evaluation.

    Each interpreter runs ``setup_probe.py``, which samples the machine's
    speed during the set-up; its time is scaled by SETUP_CAL_REF_S over its
    mean burst.  Returns (scaled median, unscaled median, mean burst).
    """
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC]
    raw, bursts = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        if i:  # the first run also writes the bytecode cache
            seconds, burst = map(float, done.stdout.split()[-2:])
            raw.append(seconds)
            bursts.append(burst)
    scaled = [t * SETUP_CAL_REF_S / b for t, b in zip(raw, bursts)]
    return statistics.median(scaled), statistics.median(raw), statistics.fmean(bursts)


def metadata(thetacert, calib) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "libmp_backend": libmp.BACKEND,
        "thetacert": thetacert.__version__,
        "calibration_s": calib,
        "calibration_iterations": CALIBRATION_ITERATIONS,
    }


class Execution:
    """One run of one operation: op index, start, latency, output or error, gate verdict."""

    __slots__ = ("index", "start", "seconds", "out", "error", "wrong")

    def __init__(self, index, start, seconds, out, error):
        self.index, self.start, self.seconds = index, start, seconds
        self.out, self.error = out, error
        self.wrong = None  # why the output is wrong, set by gate()


def execute(wl, ops, index, sampler=None) -> Execution:
    """Run one operation; its latency leaves out the sampler's bursts during it."""
    op = ops[index]
    paused = sampler.paused if sampler else 0.0
    start = time.perf_counter()
    try:
        raw = wl.run(op)
    except Exception as exc:  # a failed operation is counted, not fatal
        raw, error = None, type(exc).__name__
    else:
        error = None
    seconds = time.perf_counter() - start - ((sampler.paused - paused) if sampler else 0.0)
    if error is not None:
        return Execution(index, start, seconds, None, error)
    return Execution(index, start, seconds, wl.collect(op, raw), None)


def closed_loop(wl, ops, seconds) -> tuple[list[Execution], list[tuple[float, float]]]:
    """Cycle through ops until `seconds` passed and one whole pass is done.

    A cheap operation runs up to REPEATS times in a row on each visit, so
    its latency rests on more than the two or three visits a run makes.
    Returns the executions and the (time, seconds) calibration bursts
    sampled during the loop.
    """
    runs = []
    first_out = {}
    visits = 0
    with Sampler() as sampler:
        start = time.perf_counter()
        while visits < len(ops) or time.perf_counter() - start < seconds:
            index = visits % len(ops)
            spent = 0.0
            for _ in range(REPEATS):
                execution = execute(wl, ops, index, sampler)
                # An output equal to the operation's first one keeps that
                # object instead, so the benchmark's memory, and with it
                # peak_rss_mb, does not grow with the number of executions.
                if execution.out is not None:
                    kept = first_out.setdefault(index, execution.out)
                    if execution.out == kept:
                        execution.out = kept
                runs.append(execution)
                spent += execution.seconds
                if spent >= CHEAP_S:
                    break
            visits += 1
    return runs, sampler.bursts


def paired(wl, ops, tracer, seconds):
    """Each operation untraced, then traced, cycling until `seconds` passed.

    Alternating op by op keeps a drift in machine speed out of the
    overhead estimate.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        index = len(traced) % len(ops)
        untraced.append(execute(wl, ops, index))
        tracer.install()
        try:
            traced.append(execute(wl, ops, index))
        finally:
            tracer.uninstall()
    return untraced, traced


def gate(wl, ops, runs) -> int:
    """Check every output; the number of executions that raised or were wrong."""
    for r in runs:
        if r.error is None:
            r.wrong = wl.check(ops[r.index], r.out)
            if r.wrong is not None:
                print(f"bench: wrong output: {ops[r.index]}: {r.wrong}", file=sys.stderr)
    return sum(r.error is not None or r.wrong is not None for r in runs)


def failing_module(exc) -> str:
    """The innermost module of the thetacert package in an exception's traceback."""
    where, tb = "outside thetacert", exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("thetacert"):
            where = module
        tb = tb.tb_next
    return where


def probe_defects(wl) -> dict | None:
    """Run the workload's known-defect probe once; its failures by type and module.

    The probe's inputs lie outside the timed workload, where the program is
    known to fail; a fix shows as fewer failures here.
    """
    probe = getattr(wl, "defect_probe", None)
    if probe is None:
        return None
    ops = probe()
    by_type, by_module = Counter(), Counter()
    for op in ops:
        try:
            wl.run(op)
        except Exception as exc:
            module = failing_module(exc)
            by_type[f"{module}.{type(exc).__name__}"] += 1
            by_module[module] += 1
    return {"attempted": len(ops), "failed": sum(by_module.values()),
            "by_type": dict(by_type), "by_module": dict(by_module)}


def end_to_end(wl, runs, bursts, setup, peak_rss_kb) -> tuple[dict, dict]:
    """(end-to-end metrics of the untraced run, the same times unscaled).

    Each execution is scaled by CAL_REF_S over the mean of the calibration
    bursts sampled during it, or within CAL_EVERY_S / 2 of it: for an
    execution shorter than the sampling period, the bursts next to it.  An
    operation's latency is the mean over its executions.  Means, not medians
    or minima: the bursts sample the loop evenly in time, so their mean
    follows the machine's speed over the same time the latencies add up
    to.  ``setup`` is what ``setup_s`` returns.
    """
    times = [t for t, _ in bursts]
    run_mean = statistics.fmean(b for _, b in bursts)
    by_op, raw_by_op = defaultdict(list), defaultdict(list)
    for r in runs:
        lo = bisect.bisect_left(times, r.start - CAL_EVERY_S / 2)
        hi = bisect.bisect_right(times, r.start + r.seconds + CAL_EVERY_S / 2)
        near = [b for _, b in bursts[lo:hi]]
        by_op[r.index].append(r.seconds * CAL_REF_S / (statistics.fmean(near) if near else run_mean))
        raw_by_op[r.index].append(r.seconds)
    raw = [statistics.fmean(v) for v in raw_by_op.values()]
    latency = [statistics.fmean(v) for v in by_op.values()]
    setup_scaled, setup_raw, setup_burst = setup
    first_out = {}
    for r in runs:
        if r.error is None:
            first_out.setdefault(r.index, r.out)
    digits = [d for out in first_out.values() for d in wl.digits(out)]
    # Per distinct operation: how often a cheap one repeats must not weigh in.
    failed = {r.index for r in runs if r.error is not None or r.wrong is not None}
    return {
        "setup_s": setup_scaled,
        "peak_rss_mb": peak_rss_kb / 1024,
        "ok_frac": 1 - len(failed) / len(by_op),
        "ops_per_s": len(latency) / sum(latency),
        "op_p50_ms": 1000 * percentile(latency, 50),
        "op_p90_ms": 1000 * percentile(latency, 90),
        "digits_min": min(digits),
    }, {
        "setup_s": setup_raw,
        "setup_burst_mean_s": setup_burst,
        "ops_per_s": len(raw) / sum(raw),
        "op_p50_ms": 1000 * percentile(raw, 50),
        "op_p90_ms": 1000 * percentile(raw, 90),
        "burst_mean_s": run_mean,
    }


def enclosure_microbench(thetacert) -> dict:
    enclosure = thetacert.Enclosure
    out = {}
    for bits in (128, 256):
        with thetacert.precision(bits):
            a, b = enclosure("1.1"), enclosure("1.3")
            x = enclosure("0.7")
            raw_a, raw_b = (a._lo, a._hi), (b._lo, b._hi)
            cases = {
                "mul_us": (lambda: a * b, 20000),
                "exp_us": (lambda: x.exp(), 4000),
                "mpi_mul_us": (lambda: libmp.mpi_mul(raw_a, raw_b, bits), 20000),
            }
            for name, (fn, n) in cases.items():
                batches = []
                for _ in range(5):
                    t = time.perf_counter()
                    for _ in range(n):
                        fn()
                    batches.append((time.perf_counter() - t) / n * 1e6)
                key = f"enclosure.{name}" + ("" if bits == 128 else "_256")
                out[key] = statistics.median(batches)
    return out


def per_layer(wl, ops, tracer, runs, overhead, calib, micro, probe) -> dict:
    n = len(runs)
    errors = tracer.errors
    m = {"machine.calib_s": calib, "trace.overhead_frac": overhead,
         "trace.spans": len(tracer.spans) / n, **micro}
    m["enclosure.ops"] = sum(tracer.enc_ops.values()) / n
    m["enclosure.exp_calls"] = sum(tracer.enc_exp.values()) / n
    for layer in LAYERS:
        m[f"{layer}.calls"] = tracer.entries[layer] / n
        m[f"{layer}.self_s"] = tracer.self_s[layer] / n
    for layer in ("theta", "modular"):
        m[f"{layer}.exp_per_call"] = tracer.enc_exp[layer] / max(tracer.entries[layer], 1)
        m[f"{layer}.convergence_errors"] = errors[layer]["ConvergenceError"] / n
    c = tracer.counts
    dispatch = c["verifier.dispatch_calls"]
    m["verifier.dispatch_calls"] = dispatch / n
    m["verifier.straddle_frac"] = c["verifier.straddle_calls"] / max(dispatch, 1)
    m["verifier.escalated_calls"] = c["verifier.escalated_calls"] / n
    certs = c["certify.certifications"]
    certify_time = sum(end - start for _, _, layer, name, start, end in tracer.spans
                       if name == "certify.certify_sign")
    for key in ("certifications", "boxes", "convexity_boxes", "convergence_splits",
                "escalations"):
        m[f"certify.{key}"] = c[f"certify.{key}"] / n
    m["certify.accepted_frac"] = c["certify.accepted"] / max(c["certify.boxes"], 1)
    m["certify.max_depth"] = c["certify.max_depth"]
    m["certify.s_per_certification"] = certify_time / max(certs, 1)
    m["scanner.grid_evals"] = c["scanner.grid_evals"] / n
    m["scanner.refine_evals"] = c["scanner.refine_evals"] / n
    m["scanner.witness_frac"] = witness_frac(wl, ops, runs)
    m["report.bytes"] = c["report.bytes"] / n
    by_type = probe["by_type"] if probe else {}
    by_module = probe["by_module"] if probe else {}
    m["report.decimal_failures"] = by_module.get("thetacert.report", 0)
    for kind in ("InvalidOperation", "AssertionError"):
        m[f"report.decimal_failures.{kind}"] = by_type.get(f"thetacert.report.{kind}", 0)
    return {k: m[k] for k in PER_LAYER}


def witness_frac(wl, ops, runs) -> float:
    """Share of distinct a > 2 scan queries that returned a witness (0 off the scan workload)."""
    if wl.name != "scan":
        return 0.0
    above = {r.index: wl.has_witness(r.out) for r in runs
             if r.error is None and float(ops[r.index][0]) > 2}
    return sum(above.values()) / max(len(above), 1)


def write_executions(runs, bursts, workload, seed):
    """Every execution's (op index, start, seconds) and every (time, seconds) burst."""
    path = os.path.join(OUT, f"executions-{workload}-seed{seed}.json.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"executions": [(r.index, r.start, r.seconds) for r in runs],
                   "bursts": bursts}, fh)
    return path


def write_spans(tracer, workload, seed):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.tsv.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("id\tparent\tlayer\tname\tstart_s\tend_s\n")
        for sid, parent, layer, name, start, end in tracer.spans:
            fh.write(f"{sid}\t{parent}\t{layer}\t{name}\t{start:.9f}\t{end:.9f}\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    thetacert = import_package()
    os.makedirs(OUT, exist_ok=True)
    wl = WORKLOADS[args.workload](thetacert, OUT)
    ops = wl.ops(args.seed)
    calib = calibration_s()

    if args.trace:
        from tracer import Tracer

        micro = enclosure_microbench(thetacert)
        tracer = Tracer(thetacert)
        untraced, traced = paired(wl, ops, tracer, args.seconds)
        base = sum(r.seconds for r in untraced)
        overhead = (sum(r.seconds for r in traced) - base) / base
        runs = untraced + traced
        failed = gate(wl, ops, runs)
        probe = probe_defects(wl)
        metrics = per_layer(wl, ops, tracer, traced, overhead, calib, micro, probe)
        units = PER_LAYER
        unscaled = None
        trace_path = write_spans(tracer, args.workload, args.seed)
    else:
        setup = setup_s()
        runs, bursts = closed_loop(wl, ops, args.seconds)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed = gate(wl, ops, runs)
        probe = probe_defects(wl)
        metrics, unscaled = end_to_end(wl, runs, bursts, setup, peak_rss_kb)
        units = END_TO_END
        trace_path = write_executions(runs, bursts, args.workload, args.seed)

    meta = metadata(thetacert, calib)
    meta.update(workload=args.workload, seed=args.seed, distinct_ops=len(ops),
                executions=len(runs), trace_file=trace_path, unscaled=unscaled,
                calibration_end_s=calibration_s(), defect_probe=probe)
    print(json.dumps({"metadata": meta}))
    print(json.dumps({
        "correct": all(r.wrong is None for r in runs),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
