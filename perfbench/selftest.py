"""Tests of the benchmark itself: span arithmetic, digests, summary
statistics, the BENCHMARK.json contract, and a smoke-size run of every
workload.  Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from ledger import Span, Target, Tracer, op_stats, self_times, unattributed_frac  # noqa: E402
from measure import array_digest, json_digest, median, tail_percentile  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
with open(os.path.join(HERE, "ledger.json"), encoding="utf-8") as handle:
    LEDGER = json.load(handle)


# -- spans and self time -------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, None, "a", "outer", start=0.0, end=10.0, child_s=6.0),
        Span(1, 0, "b", "inner", start=1.0, end=5.0, child_s=1.0),
        Span(2, 1, "c", "leaf", start=2.0, end=3.0),
        Span(3, 0, "c", "leaf", start=6.0, end=8.0),
    ]
    assert self_times(spans) == {"a": 4.0, "b": 3.0, "c": 3.0}
    assert op_stats(spans)[("c", "leaf")] == {"calls": 2, "n": 0.0, "self_s": 3.0}
    # Everything inside the root span is attributed; the rest of a
    # 12 s wall is not.
    assert unattributed_frac(spans, 12.0) == pytest.approx(2.0 / 12.0)


class _Layer:
    """A stand-in program: outer() calls inner() twice and yields."""

    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i

    def rows(self):
        yield from range(3)


class _Child(_Layer):
    pass


def test_recorded_spans_close_the_ledger():
    tracer = Tracer("t")
    tracer.install(
        [
            Target(_Layer, "outer", "top", "outer", count=lambda a, r, s: r),
            Target(_Layer, "inner", "low", "inner"),
        ]
    )
    try:
        with tracer.region():
            assert _Layer().outer(3) == 3
        _Layer().outer(2)  # outside any region: no spans
    finally:
        tracer.uninstall()
    assert [s.op for s in tracer.spans] == ["outer", "inner", "inner", "inner"]
    root = tracer.spans[0]
    assert root.n == 3
    assert all(s.parent == 0 for s in tracer.spans[1:])
    assert root.child_s == pytest.approx(sum(s.duration for s in tracer.spans[1:]))
    assert sum(self_times(tracer.spans).values()) == pytest.approx(root.duration)
    assert 0.0 <= unattributed_frac(tracer.spans, tracer.wall_s) < 1.0


def test_uninstall_restores_own_and_inherited_attributes():
    own = _Layer.__dict__["inner"]
    tracer = Tracer("t")
    tracer.install(
        [
            Target(_Layer, "inner", "low", "inner"),
            Target(_Child, "outer", "top", "outer"),
        ]
    )
    assert "outer" in _Child.__dict__
    tracer.uninstall()
    assert _Layer.__dict__["inner"] is own
    assert "outer" not in _Child.__dict__


def test_generator_span_covers_iteration():
    tracer = Tracer("t")
    tracer.install([Target(_Layer, "rows", "gen", "rows")])
    try:
        with tracer.region():
            assert list(_Layer().rows()) == [0, 1, 2]
    finally:
        tracer.uninstall()
    (span,) = tracer.spans
    assert span.n == 3 and span.end >= span.start


# -- digests and statistics --------------------------------------------------------


def test_array_digest_is_stable_and_bit_sensitive():
    a = {"x": np.array([1.0, 2.0]), "y": np.array([0.1])}
    b = {"y": np.array([0.1]), "x": np.array([1.0, 2.0])}
    assert array_digest(a) == array_digest(b)
    nudged = {"x": np.array([1.0, np.nextafter(2.0, 3.0)]), "y": np.array([0.1])}
    assert array_digest(nudged) != array_digest(a)
    # Moving a value between arrays changes the digest too.
    moved = {"x": np.array([1.0]), "y": np.array([2.0, 0.1])}
    assert array_digest(moved) != array_digest(a)


def test_json_digest_ignores_key_order_only():
    assert json_digest({"a": 1.5, "b": [1, 2]}) == json_digest({"b": [1, 2], "a": 1.5})
    assert json_digest({"a": 1.5}) != json_digest({"a": 1.5000000000000002})


def test_median():
    assert median([5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 8.0, 7.0, 9.0, 10.0]) == 5.5
    assert median([3.0, 1.0, 2.0]) == 2.0


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    tail = tail_percentile(list(range(n)))
    assert (tail[0] if tail else None) == expected


# -- the BENCHMARK.json contract -------------------------------------------------


def test_benchmark_json_contract():
    assert set(SPEC) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0.0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_ledger_documents_every_workload_and_layer_metric():
    from workloads import WORKLOADS

    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(WORKLOADS) == set(LEDGER["workloads"])
    documented = [m for layer in LEDGER["layers"] for m in layer["metrics"]]
    assert sorted(documented) == sorted(m["name"] for m in SPEC["per_layer"])
    for layer in LEDGER["layers"]:
        assert set(layer["moves"]) <= {m["name"] for m in SPEC["end_to_end"]}


# -- smoke-size runs ------------------------------------------------------------------


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.1",
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_run(workload):
    result = _run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.unattributed_frac"]["value"] <= 0.10


def test_smoke_end_to_end_run():
    result = _run("study", trace=0)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
