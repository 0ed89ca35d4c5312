"""Set-up time of thetacert in a fresh interpreter; run.py runs it many times.

    python3 bench/setup_probe.py SRC

Times ``import thetacert`` (mpmath included) and a first evaluation, which
fills the π cache.  Meanwhile SIGALRM interrupts every SAMPLE_EVERY_S and
the handler times BURST turns of a fixed pure-Python loop: a sample of the
machine's speed while the set-up runs.  On a shared machine that switches
between a fast and a 1.8 times slower state within milliseconds, only
samples taken inside a 0.1 s set-up follow it; bursts run after it did
not.  Prints the set-up seconds, without the time spent in bursts, and the
mean burst seconds.  Only the standard library is imported before the
timed part.
"""

import signal
import sys
import time

SAMPLE_EVERY_S = 0.002
BURST = 1000

samples = []
paused = 0.0


def burst(*_):
    global paused
    start = time.perf_counter()
    total = 0
    for i in range(BURST):
        total += i
    end = time.perf_counter()
    samples.append(end - start)
    paused += end - start


def main():
    global paused
    sys.path.insert(0, sys.argv[1])
    burst()  # warm-up, not kept
    samples.clear()
    paused = 0.0
    signal.signal(signal.SIGALRM, burst)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    import thetacert

    thetacert.theta4_eval(thetacert.Enclosure(1))
    seconds = time.perf_counter() - start - paused
    signal.setitimer(signal.ITIMER_REAL, 0)
    if not samples:
        burst()
    print(seconds, sum(samples) / len(samples))


if __name__ == "__main__":
    main()
