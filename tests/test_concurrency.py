"""Evaluations are pure: parallel runs reproduce sequential results exactly."""

import sys
from concurrent.futures import ThreadPoolExecutor

from thetacert import Enclosure, EvalConfig, certify_sign, f_second, theta, theta4_eval
from thetacert.envelopes import log_grid
from thetacert.theta import _theta4

from conftest import q_series_derivatives


def test_parallel_evaluations_match_sequential():
    cfg = EvalConfig()
    points = log_grid(0.3, 5.0, 12)
    sequential = [f_second(y, cfg) for y in points]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda y: f_second(y, cfg), points))
    assert sequential == parallel


def test_parallel_mixed_precisions_do_not_interfere():
    lo = EvalConfig(precision_bits=64, tail_tolerance=2.0 ** -40)
    hi = EvalConfig(precision_bits=192)
    jobs = [(lo, "0.7"), (hi, "0.7"), (lo, "2"), (hi, "2")] * 3
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda j: theta4_eval(Enclosure(j[1]), 0, j[0]), jobs))
    for (cfg, y), enc in zip(jobs, results):
        assert enc == theta4_eval(Enclosure(y), 0, cfg)
        # higher precision gives the tighter enclosure
    assert results[1].width < results[0].width


def test_parallel_certifications_are_deterministic():
    cfg = EvalConfig()

    def job(_):
        return certify_sign(
            lambda box, c: f_second(box, c), ("0.8", "1.25"), +1, cfg, name="overlap"
        )

    with ThreadPoolExecutor(max_workers=3) as pool:
        reports = list(pool.map(job, range(3)))
    assert all(r.certified for r in reports)
    assert len({r.boxes_examined for r in reports}) == 1
    assert len({(r.min_margin.lo, r.min_margin.hi) for r in reports}) == 1


def test_parallel_passes_fill_the_constant_table_consistently(monkeypatch):
    # from an empty table each time: threads that fill the per-precision series constants
    # together, at 64, 128 and 192 bits, reproduce the sequential thin passes bit for bit
    configs = (EvalConfig(precision_bits=64, tail_tolerance=2.0 ** -40), EvalConfig(),
               EvalConfig(precision_bits=192))
    passes = (lambda y, cfg: _theta4(y, range(4), cfg), q_series_derivatives)
    jobs = [(cfg, series, y) for cfg in configs for series in passes for y in ("0.3", "0.9", "2")]

    def run(job):
        cfg, series, y = job
        with cfg.scope():
            return series(Enclosure(y), cfg)

    monkeypatch.setattr(theta, "_SERIES_CONSTANTS", {})
    sequential = [run(job) for job in jobs]
    monkeypatch.setattr(theta, "_SERIES_CONSTANTS", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the table's fill too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(run, jobs * 3))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == sequential * 3
