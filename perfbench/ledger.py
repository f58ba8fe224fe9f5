"""Span tracer and per-layer ledger, recorded from outside the program.

The traced run replaces a layer's public callable *where its caller
looks it up* (a module global such as ``repro.core.toolkit.simulate_batch``
or a class attribute such as ``SQLiteStore.load_many``) with a wrapper
that records one span per call: name, start, end, parent and run id.
Spans stay in memory and are written out when the run ends.  Nothing
under ``src/`` changes; uninstalling puts every original back.

Self time is a span's duration minus the time its child spans cover,
so the layers' self times add up to the traced wall time except for
work done outside every span (``trace.unattributed_frac``).
"""

from __future__ import annotations

import gc
import inspect
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Ops that open a connection rather than serve a request: timed as
#: layer work, never counted as a round trip or queue transaction.
OPEN_OPS = ("open",)


@dataclass
class Span:
    """One call into a layer."""

    span_id: int
    parent: int | None
    layer: str
    op: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    #: Work units the call carried (lanes, jobs leased, simulated
    #: seconds...), as the target's ``count`` hook measured them.
    n: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Target:
    """A callable to wrap: ``owner.attr`` becomes a span of ``layer/op``.

    ``before(args)`` runs ahead of the call and its value reaches
    ``count(args, result, before)``, whose return is the span's ``n``.
    """

    owner: Any
    attr: str
    layer: str
    op: str
    count: Callable | None = None
    before: Callable | None = None


@dataclass
class Tracer:
    """In-memory span recorder with an on/off switch.

    While ``enabled`` is False the wrappers call straight through, so
    the benchmark's own checks between timed calls leave no spans.
    """

    run_id: str
    spans: list[Span] = field(default_factory=list)
    enabled: bool = False
    #: Wall seconds spent with recording enabled (the traced wall).
    wall_s: float = 0.0
    #: Event counters bumped by non-span hooks (e.g. retries).
    counters: dict[str, int] = field(default_factory=dict)
    _stack: list[Span] = field(default_factory=list)
    _installed: list[tuple[Any, str, Any, bool]] = field(default_factory=list)

    # -- recording -------------------------------------------------------------

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        layer, op, count, before = (
            target.layer,
            target.op,
            target.count,
            target.before,
        )

        def enter() -> Span:
            parent = tracer._stack[-1].span_id if tracer._stack else None
            span = Span(len(tracer.spans), parent, layer, op, time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(span)
            return span

        def leave(span: Span) -> None:
            span.end = time.perf_counter()
            tracer._stack.pop()
            if tracer._stack:
                tracer._stack[-1].child_s += span.duration

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens while it is iterated, so the
            # span covers the iteration, not the call that creates it.
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                span = enter()
                items = 0
                try:
                    for item in fn(*args, **kwargs):
                        items += 1
                        yield item
                finally:
                    span.n = count(args, items, None) if count else items
                    leave(span)

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            span = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(span)
            if count is not None:
                span.n = count(args, result, state)
            return result

        return wrapper

    def install(self, targets: list[Target]) -> None:
        """Wrap every target in place."""
        for target in targets:
            self.replace(
                target.owner,
                target.attr,
                lambda original, target=target: self.wrap(target, original),
            )

    def replace(self, owner: Any, attr: str, make: Callable) -> None:
        """Set ``owner.attr = make(original)``; :meth:`uninstall` undoes it."""
        own = not isinstance(owner, type) or attr in owner.__dict__
        original = (
            owner.__dict__[attr]
            if isinstance(owner, type) and own
            else getattr(owner, attr)
        )
        setattr(owner, attr, make(original))
        self._installed.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                # The attribute was inherited: drop the shadowing copy.
                delattr(owner, attr)

    def bump(self, name: str, by: int = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + by

    # -- timed regions -----------------------------------------------------------

    def region(self) -> "_Region":
        """Context manager: record spans and add the elapsed wall time."""
        return _Region(self)

    def dump(self, path) -> None:
        """Write the spans as one JSON document."""
        rows = [
            [
                s.span_id,
                s.parent,
                s.layer,
                s.op,
                round(s.start, 9),
                round(s.end, 9),
                s.n,
            ]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "run_id": self.run_id,
                    "columns": ["id", "parent", "layer", "op", "start", "end", "n"],
                    "spans": rows,
                },
                handle,
            )


class _Region:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self) -> "_Region":
        # Start every region from an empty collector, so a full
        # collection owed to earlier garbage does not land at random
        # inside a timed call.
        gc.collect()
        self.started = time.perf_counter()
        self.tracer.enabled = True
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.enabled = False
        self.tracer.wall_s += time.perf_counter() - self.started


# -- aggregation -------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self seconds per layer."""
    out: dict[str, float] = {}
    for span in spans:
        out[span.layer] = out.get(span.layer, 0.0) + span.self_s
    return out


def op_stats(spans: list[Span]) -> dict[tuple[str, str], dict[str, float]]:
    """Calls, summed ``n`` and self seconds per (layer, op)."""
    out: dict[tuple[str, str], dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(
            (span.layer, span.op), {"calls": 0, "n": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["n"] += span.n
        entry["self_s"] += span.self_s
    return out


def unattributed_frac(spans: list[Span], wall_s: float) -> float:
    """Share of the traced wall time no layer's self time covers."""
    if wall_s <= 0.0:
        return 0.0
    return 1.0 - sum(self_times(spans).values()) / wall_s
