"""Statistics and fingerprints shared by run.py, compare.py and selftest.py.

Pure functions over plain lists and dicts; no I/O.
"""

import hashlib
import json
import math
import statistics
from fractions import Fraction

# Candidate tail percentiles, highest first.  The reported tail is the
# highest of these with at least TAIL_BEYOND samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def median(values):
    """The median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def samples_beyond(n, p):
    """How many of n sorted samples lie strictly above the nearest-rank
    p-th percentile."""
    return n - math.ceil(Fraction(str(p)) * n / 100)


def tail_percentile(n):
    """The highest ladder percentile with at least TAIL_BEYOND samples
    beyond it, or None when n is too small for any."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= TAIL_BEYOND:
            return p
    return None


def percentile(values, p):
    """Nearest-rank p-th percentile."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(str(p)) * len(ordered) / 100))
    return ordered[rank - 1]


def tail(values):
    """(percentile, value, sample count) of the tail latency."""
    p = tail_percentile(len(values))
    if p is None:
        raise ValueError(
            f"{len(values)} samples: too few for a tail with "
            f"{TAIL_BEYOND} samples beyond it")
    return p, percentile(values, p), len(values)


def fingerprint(obj):
    """Short stable hash of a JSON-serializable object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class FingerprintMismatch(Exception):
    """Two results measured different configurations or hosts."""


def require_comparable(a, b):
    """Raise FingerprintMismatch unless results a and b share workload,
    seed, configuration and host fingerprints."""
    for key in ("workload", "seed", "config_fingerprint", "host_fingerprint"):
        if a.get(key) != b.get(key):
            raise FingerprintMismatch(
                f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}")
