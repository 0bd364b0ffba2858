"""Host-speed calibration: a fixed loop with no ``netgains`` code in it.

The host this benchmark was tuned on swings in speed, in phases that last
seconds, and the swing shows in process CPU time too.  The workloads time
this loop between ops and divide each op time by the loop's slowness (loop
time now over its nominal time), so a time is reported in seconds at the
loop's nominal speed.

The loop has an interpreter-bound part, like the GF(2) elimination, and a
numpy part on an array that stays in cache.  Workloads whose ops stream
arrays larger than the cache add a third part that streams a 2 MiB array:
a slow phase stretches interpreter-bound work about one for one with the
first two parts, but large-array numpy work far less.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median times of the parts on the host the benchmark was tuned on (2
# cores, Python 3.11, numpy 2.4), timed between ops.  Changing them
# rescales every corrected figure, so they stay fixed across commits.
NOMINAL_S = 0.0020
NOMINAL_STREAM_S = 0.0022

_MASK64 = (1 << 64) - 1
_WORDS = np.arange(1 << 14, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
_stream_words: np.ndarray | None = None  # made on first use: it would raise every workload's peak memory


def _interpreter_part() -> int:
    x, acc = 0x2545F4914F6CDD1D, 0
    for _ in range(4000):
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        acc += x.bit_count()
    return acc


def _numpy_part(words: np.ndarray, passes: int) -> int:
    y = words
    with np.errstate(over="ignore"):
        for _ in range(passes):
            y = (y ^ (y >> np.uint64(29))) * np.uint64(0xBF58476D1CE4E5B9)
    return int(y[0])


def sample(stream: bool = False) -> float:
    """Seconds one pass of the loop takes now."""
    global _stream_words
    if stream and _stream_words is None:
        _stream_words = np.arange(1 << 18, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        _numpy_part(_stream_words, 3)  # page faults of the first pass stay out of the figures
    start = time.perf_counter()
    _interpreter_part()
    _numpy_part(_WORDS, 16)
    if stream:
        _numpy_part(_stream_words, 3)
    return time.perf_counter() - start


def slowness(samples: list[float], stream: bool = False) -> float:
    """Median loop time over the nominal one; 2.0 means the host runs at half speed."""
    return statistics.median(samples) / (NOMINAL_S + (NOMINAL_STREAM_S if stream else 0.0))


sample()  # the first pass pays for page faults on _WORDS
