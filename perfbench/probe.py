"""The host-speed probe: a fixed reference computation timed after every op.

This machine changes speed by itself, by up to 40% over minutes (see
README.md), and whole runs fall in one slow or fast phase.  Every timed
op is therefore followed by one ``probe()``, and the end-to-end times are
reported in reference milliseconds (``ref_ms``): the op's latency divided
by the mean latency of the probes right before and after it, times
``REFERENCE_MS``.  A program change moves the op and not the probe; a
host phase moves both.

The probe is plain Python of the kind the package runs (small objects,
method calls, generator sums, bit masks, sets and dicts) and never calls
the package.  Do not change it or ``REFERENCE_MS``: every end-to-end time
is on the scale they set.
"""

from __future__ import annotations

from time import perf_counter

# about the probe's median latency between ops in a fast phase of the
# 2-vCPU host the reference figures in README.md were measured on, so that
# reference ms read close to wall ms there
REFERENCE_MS = 0.4

# a bounded affine permutation of size 14
_WINDOW = (12, 3, 5, 13, 8, 20, 16, 11, 9, 10, 21, 14, 15, 18)


class _Perm:
    def __init__(self, window):
        self.window = window
        self.n = len(window)

    def eval(self, i: int) -> int:
        q, r = divmod(i - 1, self.n)
        return self.window[r] + q * self.n

    def rank(self, start: int, length: int) -> int:
        end = start + length - 1
        return sum(1 for l in range(start, end + 1) if self.eval(l) > end)


def _mask(n: int, start: int, length: int) -> int:
    m = 0
    for t in range(length):
        m |= 1 << ((start + t - 1) % n)
    return m


def _work() -> int:
    perm = _Perm(_WINDOW)
    n = perm.n
    ranks: dict[int, int] = {}
    for start in range(1, n + 1):
        for length in range(1, n, 2):
            ranks[_mask(n, start, length)] = perm.rank(start, length)
    tight = {m for m, r in ranks.items() if r < bin(m).count("1")}
    return len(tight) + sum(ranks.values())


def probe() -> float:
    """Seconds one run of the reference computation takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start
