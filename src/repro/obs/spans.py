"""Hierarchical trace spans for the campaign path.

Spans nest (``campaign > point > batch > channel``), and a tracer
aggregates wall-clock and call counts per *path*, so a report can show
both the engine-stage totals (:meth:`SpanTracer.leaf_totals`) and how
they roll up through batches and points.

Design constraints, in priority order:

1. **Zero cost when off.** :func:`span` reads one module global; when no
   tracer is installed it yields immediately. Campaigns that don't ask
   for telemetry pay nothing measurable.
2. **Aggregating, not event-recording.** A 10,000-trial campaign would
   produce hundreds of thousands of span events; the tracer keeps only
   ``path -> (total_s, count)``, which is what the reports need and is
   cheap to merge across worker processes.
3. **Process-local, mergeable.** The parallel runner installs one
   tracer per worker chunk and merges them in trial order
   (:meth:`SpanTracer.merge`), mirroring the determinism discipline of
   the results themselves.

Usage::

    with collect_spans() as tracer:
        with span("campaign"):
            with span("point"):
                ...
    tracer.as_dict()   # {"campaign": {...}, "campaign/point": {...}}
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

PATH_SEPARATOR = "/"
"""Separator used when rendering span paths as strings."""


class SpanTracer:
    """Aggregated wall-clock and call counts keyed by span path.

    Attributes:
        totals_s: span path (tuple of names, outermost first) ->
            accumulated seconds.
        counts: span path -> number of completed spans.
    """

    def __init__(self) -> None:
        self.totals_s: Dict[Tuple[str, ...], float] = {}
        self.counts: Dict[Tuple[str, ...], int] = {}
        self._stack: List[str] = []

    def add(self, path: Tuple[str, ...], elapsed_s: float) -> None:
        """Accumulate one completed span at ``path``."""
        self.totals_s[path] = self.totals_s.get(path, 0.0) + elapsed_s
        self.counts[path] = self.counts.get(path, 0) + 1

    def merge(self, other: "SpanTracer") -> None:
        """Fold another tracer (e.g. from a worker chunk) into this one."""
        for path, total in other.totals_s.items():
            self.totals_s[path] = self.totals_s.get(path, 0.0) + total
        for path, count in other.counts.items():
            self.counts[path] = self.counts.get(path, 0) + count

    def leaf_totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Totals and counts aggregated by leaf span name.

        This is the flat per-stage view: every path is attributed to
        its innermost name, so ``("point", "batch", "channel")`` and
        ``("batch", "channel")`` both count as ``channel`` — which makes
        serial and parallel runs (whose span roots differ) comparable.
        """
        totals: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for path, total in self.totals_s.items():
            leaf = path[-1]
            totals[leaf] = totals.get(leaf, 0.0) + total
        for path, count in self.counts.items():
            leaf = path[-1]
            counts[leaf] = counts.get(leaf, 0) + count
        return totals, counts

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly view: {"a/b": {total_s, count, mean_ms}}."""
        return {
            PATH_SEPARATOR.join(path): {
                "total_s": round(self.totals_s[path], 6),
                "count": self.counts.get(path, 0),
                "mean_ms": round(
                    1e3 * self.totals_s[path]
                    / max(self.counts.get(path, 1), 1),
                    6,
                ),
            }
            for path in sorted(self.totals_s)
        }

    def __getstate__(self) -> dict:
        # Workers never pickle a tracer mid-span; drop the live stack.
        return {"totals_s": self.totals_s, "counts": self.counts}

    def __setstate__(self, state: dict) -> None:
        self.totals_s = state["totals_s"]
        self.counts = state["counts"]
        self._stack = []


_ACTIVE: Optional[SpanTracer] = None


def active_tracer() -> Optional[SpanTracer]:
    """The currently installed tracer, or None when tracing is off."""
    return _ACTIVE


@contextmanager
def collect_spans(
    tracer: Optional[SpanTracer] = None,
) -> Iterator[SpanTracer]:
    """Install a tracer for the duration of the block (re-entrant).

    Nested installs shadow the outer tracer, exactly like the stage
    collectors they replace: the innermost tracer owns every span
    entered while it is active.
    """
    global _ACTIVE
    if tracer is None:
        tracer = SpanTracer()
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


@contextmanager
def span(name: str) -> Iterator[None]:
    """Bracket one nested unit of work; no-op when no tracer is installed."""
    tracer = _ACTIVE
    if tracer is None:
        yield
        return
    stack = tracer._stack
    stack.append(name)
    t0 = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - t0
        tracer.add(tuple(stack), elapsed)
        stack.pop()
