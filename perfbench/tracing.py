"""Outside-in tracing: spans around calls into the program's public functions.

The benchmark never edits the program.  It replaces module attributes with
wrappers for the duration of a traced round, so a span opens where one layer
calls into the next.  A span records its name, start, end, parent span and
request id (one ``run_single``, one sweep cell, or one ``pattern`` call).
Spans stay in memory and are written out when the run ends.

Each wrapper is installed at the call site the program really uses: ``sca``
imports ``solve_epigraph`` by name, so the convex core is wrapped as
``sca.solve_epigraph``; the array-model calls are counted at their ``sca``
call sites, and so on.  The layer of a span is the part of its name before
the first dot.
"""

import json
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1            # index into Tracer.spans; -1 for a root
    request: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._requests = 0

    # -- recording ---------------------------------------------------------

    def open(self, name, request=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if request is None:
            request = self.spans[parent].request if parent >= 0 else ""
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               request=request))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, **attrs):
        span = self.spans[index]
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        self._stack.pop()

    def new_request(self, kind: str) -> str:
        self._requests += 1
        return f"{kind}:{self._requests}"

    # -- patching ----------------------------------------------------------

    def wrap(self, module, attr, name, describe=None, request=None):
        """Replace ``module.attr`` with a span-recording wrapper.

        ``describe(result, args, kwargs)`` returns attributes for the span;
        ``request(args, kwargs)`` returns a request id when the call starts
        a new request.
        """
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            rid = request(args, kwargs) if request else None
            index = self.open(name, rid)
            try:
                result = inner(*args, **kwargs)
            except BaseException as exc:
                self.close(index, error=type(exc).__name__)
                raise
            self.close(index)
            if describe:
                self.spans[index].attrs.update(describe(result, args, kwargs))
            return result

        self._patches.append((module, attr, inner))
        setattr(module, attr, wrapper)

    def unwrap_all(self):
        while self._patches:
            module, attr, inner = self._patches.pop()
            setattr(module, attr, inner)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request, **s.attrs}) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[c].start, cursor), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def layer_self_s(spans, selfs, indices) -> dict:
    """Self time summed per layer over the spans at ``indices``."""
    totals = {}
    for i in indices:
        layer = spans[i].layer
        totals[layer] = totals.get(layer, 0.0) + selfs[i]
    return totals


def layer_inclusive_s(spans, indices) -> dict:
    """Time inside each layer over the spans at ``indices``, counting a span
    nested in another span of its own layer once."""
    totals = {}
    for i in indices:
        s = spans[i]
        if s.parent >= 0 and spans[s.parent].layer == s.layer:
            continue
        totals[s.layer] = totals.get(s.layer, 0.0) + s.duration
    return totals


def tail(values):
    """(value, percentile, n): the highest of p99.9/p99/p90/p75/p50 with at
    least ten samples above it; the maximum (p100) when there is none."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        rank = int(round(p / 100.0 * (n - 1)))
        if n - 1 - rank >= 10:
            return ordered[rank], p, n
    return ordered[-1], 100.0, n


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
