"""Summary statistics, output digests and the host record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Mapping, Sequence

import numpy as np


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """The highest of p50/p90/p99/p99.9 with at least ten samples
    beyond it, as ``(percentile, value)``; None below ten samples."""
    n = len(values)
    chosen = None
    for pct in (50.0, 90.0, 99.0, 99.9):
        if round(n * (100.0 - pct) / 100.0, 9) >= 10.0:
            chosen = pct
    if chosen is None:
        return None
    return chosen, float(np.percentile(np.asarray(values, dtype=float), chosen))


def array_digest(arrays: Mapping[str, np.ndarray]) -> str:
    """sha256 over named float64 arrays: names sorted, raw bits hashed,
    so any changed bit in any value changes the digest."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        values = np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float64))
        digest.update(name.encode("utf-8"))
        digest.update(len(values).to_bytes(8, "little"))
        digest.update(values.tobytes())
    return digest.hexdigest()


def json_digest(payload: object) -> str:
    """sha256 of canonical JSON (sorted keys; floats as shortest repr,
    which round-trips bit-exactly)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_s(repeats: int = 5) -> float:
    """Median time of a fixed interpreter + NumPy microbenchmark.

    The program is interpreter-bound Python driving small NumPy
    kernels, so the probe mixes both; throughput divided by host speed
    is ``points_per_s * calibration_s``.
    """
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((64, 64))
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0.0
        for i in range(100_000):
            total += i * 0.5
        for _ in range(200):
            matrix = np.tanh(matrix @ matrix.T * 1e-3)
        samples.append(time.perf_counter() - started)
    return median(samples)


def host_record() -> dict:
    """CPU count, interpreter and library versions, calibration time."""
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "calibration_s": calibration_s(),
    }
