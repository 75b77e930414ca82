"""Host-speed index: a fixed reference kernel timed between operations.

Shared 2-core hosts drift in speed by tens of percent within minutes, and
the drift moves every timing of a run together.  Each run therefore times
a fixed reference kernel while nothing is in flight (between cells,
between jobs) and divides every timing by the kernel's time-weighted mean
time, then multiplies by :data:`NOMINAL_REF_S` so normalized figures still
read as seconds on a host of nominal speed.

The kernel mixes the program's two kinds of work: Python-int loops (PODEM,
single-word fault simulation) and numpy uint64 word operations (compiled
levelized simulation, PPSFP), the latter as gathers over an array larger
than a core's private caches.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np

#: Median kernel time on the host the constants were taken on; normalized
#: figures read as seconds on a host whose kernel takes this long.
NOMINAL_REF_S = 0.005

_MASK64 = (1 << 64) - 1
#: Words the gather part walks: larger than a core's private caches, so the
#: kernel feels the shared-cache and memory contention the program feels.
_BIG_WORDS = 1 << 20


class HostIndex:
    """Reference kernel plus the samples of one run.

    Samples come in bursts taken right after an operation, each weighted by
    that operation's duration; :attr:`ref_s` is the weighted mean of the
    burst medians.  The host flips between speed regimes that last seconds
    (kernel medians of ~3.3 and ~4.7 ms minutes apart), and a run's time is
    the work done in each regime, so the index follows the time-weighted mix
    of regimes; a plain median of all samples jumps to whichever regime
    holds the majority.

    Over windows of a few cells, the Python-int part and the large-array
    gather tracked c432 cell time best of the kernels tried (correlation
    ~0.9 over 8-cell windows); small in-cache numpy word loops did not.
    """

    def __init__(self) -> None:
        self.n_samples = 0
        self._bursts: List[Tuple[float, float]] = []  # (weight, median s)
        self._words = np.arange(1, _BIG_WORDS + 1, dtype=np.uint64)
        rng = np.random.default_rng(2019)
        self._index = rng.integers(0, _BIG_WORDS - 8, size=1 << 16)
        self.kernel()  # first call pays allocation warm-up

    def kernel(self) -> int:
        """One fixed unit of work; returns a checksum so nothing is elided."""
        x = 0x9E3779B97F4A7C15
        acc = 0
        table = {}
        for i in range(3000):
            x ^= (x << 13) & _MASK64
            x ^= x >> 7
            x ^= (x << 17) & _MASK64
            table[x & 1023] = i
            acc += x & 0xFF
        word = np.uint64(acc + len(table))
        for k in range(3):
            word ^= np.bitwise_xor.reduce(self._words[self._index + k])
        return int(word)

    def sample(self, repeats: int, weight: float) -> None:
        """One burst of ``repeats`` timed kernel calls, standing for the
        ``weight`` seconds of work that preceded it."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        self.n_samples += repeats
        self._bursts.append((weight, statistics.median(times)))

    @property
    def ref_s(self) -> float:
        total = sum(weight for weight, _ in self._bursts)
        if total <= 0:
            raise ValueError("host index has no weighted samples")
        return sum(weight * ref for weight, ref in self._bursts) / total

    def take(self) -> float:
        """:attr:`ref_s` of the bursts so far, which are then dropped (one
        index object serves the set-up phase, then the run)."""
        ref = self.ref_s
        self._bursts.clear()
        return ref


def normalize(raw_s: float, ref_s: float) -> float:
    """Seconds measured on this host, rescaled to a nominal-speed host."""
    return raw_s * NOMINAL_REF_S / ref_s


def normalize_rate(raw_per_s: float, ref_s: float) -> float:
    """A per-second rate rescaled to a nominal-speed host."""
    return raw_per_s * ref_s / NOMINAL_REF_S


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100] of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
