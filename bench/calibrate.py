"""Reference work that measures how fast the host runs Python right now.

On a shared virtual machine the same job can take 1.5 times longer for
minutes at a time, when other tenants load the host.  The benchmark times
`sample()` before every job and divides the job times by the median
sample, so a run reports calibrated seconds: seconds on a host where one
sample takes NOMINAL_S.  The work imitates the library's two kinds of
inner loop, bitmask products over a small table (the kernels) and
reduction of words of letters (free products), and uses none of its
code, so a change to the library does not move it.
"""

import random
import statistics
import time

_rng = random.Random(5)
N = 12
ROWS = tuple(tuple(_rng.getrandbits(N) | 1 for _ in range(N)) for _ in range(N))
WORDS = tuple(
    tuple((_rng.randrange(9), _rng.randrange(2)) for _ in range(_rng.randint(1, 5)))
    for _ in range(60)
)
PRODUCT_REPEATS = 5

# About the fastest sample() ran on the two-vCPU 2.0 GHz virtual machine,
# under CPython 3.11, where the benchmark was defined: calibrated seconds
# approximate seconds on that machine when its host is quiet.
NOMINAL_S = 0.0019


def _products() -> list:
    products = {}
    for a in range(N):
        for b in range(N):
            mask, acc, i = ROWS[a][b], 0, 0
            while mask:
                if mask & 1:
                    acc |= ROWS[i][b]
                mask >>= 1
                i += 1
            products[(a, b)] = acc
    return sorted(products.items(), key=lambda kv: (bin(kv[1]).count("1"), kv[0]))


def _words() -> list:
    lengths = {}
    for u in WORDS:
        for v in WORDS[:10]:
            out = []
            for letter, factor in u + v:
                if out and out[-1][1] == factor:
                    merged = out.pop()[0] * letter % 9
                    if merged:
                        out.append((merged, factor))
                else:
                    out.append((letter, factor))
            lengths[tuple(out)] = len(out)
    return sorted(lengths, key=lambda w: (lengths[w], w))


def sample() -> float:
    """Seconds of one fixed unit of reference work."""
    t0 = time.perf_counter()
    for _ in range(PRODUCT_REPEATS):
        _products()
    _words()
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor from seconds to calibrated seconds, given the samples timed
    next to them."""
    return NOMINAL_S / statistics.median(samples)
