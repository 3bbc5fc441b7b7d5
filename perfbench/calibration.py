"""Host-speed calibration of the end-to-end timings.

The benchmark gets a few cores of a shared host, and that host's speed
swings by 20-60% over seconds to minutes as other tenants load it. CPU
time swings with wall time, so the slowdown is contention for the shared
hardware, not time taken off the CPU, and any computation slows with
lexcat: over four minutes of explain passes on one seed, the medians of
20-s windows spread 0.14 (interquartile range over median) as measured and
0.04 scaled as below.

So while an untraced run measures, a SIGALRM timer interrupts it every
PERIOD_S and runs `chunk()`, a fixed regex/dict/numpy computation that
shares no code with lexcat, timing it. `clock()` leaves the chunks' time
out, so every timing read with it is lexcat's own. The run then scales each
timing by NOMINAL_S over the mean chunk time of the same pass or set-up
round (`factor`), so it reads as on this host at the speed where a chunk
takes NOMINAL_S. Both means cover the same stretch of time, so a slow
stretch weighs the same in each. The scaling holds only while lexcat runs
in one thread: a thread of its own that held the interpreter during a chunk
would make the chunk slower and lexcat look faster. baseline.json gives the
ten-seed spreads with and without it.

Outside `running()`, `clock()` advances with `perf_counter()`.
"""

from __future__ import annotations

import contextlib
import gc
import re
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.2
# A round figure near the chunk's time on the 2-core host baseline.json
# describes (9.4 ms median over 300 chunks run back to back; 7.2-10.4 ms
# medians within the thirty runs there); it sets only the scale of the
# reported times.
NOMINAL_S = 0.010

_rng = np.random.default_rng(20240527)
_LETTERS = list("abcdefghijklmnopqrstuvwxyzáéíóúñ")
_WORDS = ["".join(_rng.choice(_LETTERS, size=int(k))) for k in _rng.integers(2, 11, size=2000)]
_TEXT = " ".join(_rng.choice(_WORDS, size=9000))
_WORD = re.compile(r"\w+")
_VALUES = _rng.random(1500)
_LABELS = _rng.integers(0, 8, size=1500)
_ROWS = np.arange(1500)

_paused = 0.0  # seconds spent in chunks since running() began
_samples: list[tuple[float, float]] = []  # (clock() when a chunk began, its seconds)


def chunk() -> None:
    """Fixed work shaped like lexcat's: a regex scan with dict counting,
    then argsort/one-hot/cumsum passes over a small array."""
    counts: dict[str, int] = {}
    for word in _WORD.findall(_TEXT):
        key = word.capitalize()
        counts[key] = counts.get(key, 0) + 1
    sorted(counts, key=counts.__getitem__)
    for _ in range(18):
        order = np.argsort(_VALUES, kind="mergesort")
        onehot = np.zeros((len(order), 8))
        onehot[_ROWS, _LABELS[order]] = 1.0
        np.cumsum(onehot, axis=0)


def clock() -> float:
    """perf_counter() minus the time spent in chunks."""
    while True:
        paused = _paused
        now = perf_counter()
        if paused == _paused:  # no chunk ran in between
            return now - paused


def _timed_chunk() -> None:
    global _paused
    gc_enabled = gc.isenabled()
    gc.disable()  # a collection of lexcat's heap is lexcat's cost, not the chunk's
    t0 = perf_counter()
    chunk()
    seconds = perf_counter() - t0
    if gc_enabled:
        gc.enable()
    _samples.append((t0 - _paused, seconds))
    _paused += seconds


def _on_alarm(signum, frame) -> None:
    _timed_chunk()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S)


@contextlib.contextmanager
def running():
    """Run chunks every PERIOD_S inside the block (main thread only)."""
    global _paused
    _paused = 0.0
    _samples.clear()
    chunk()  # warm-up, not recorded
    _timed_chunk()  # so that every run has a sample
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def factor(start: float, end: float) -> float:
    """NOMINAL_S over the mean chunk time between the clock() readings start
    and end; a stretch shorter than PERIOD_S uses the three nearest chunks."""
    inside = [s for t, s in _samples if start <= t <= end]
    if not inside:
        middle = (start + end) / 2
        inside = [s for _, s in sorted(_samples, key=lambda ts: abs(ts[0] - middle))[:3]]
    return NOMINAL_S / statistics.fmean(inside)


def summary() -> str:
    chunks = [s for _, s in _samples]
    return (f"{len(chunks)} chunks, median {statistics.median(chunks) * 1000:.2f} ms "
            f"(nominal {NOMINAL_S * 1000:.2f} ms), {sum(chunks):.2f} s in all")
