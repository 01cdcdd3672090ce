"""In-process tracing by wrapping functions at the names their callers look up.

Nothing under src/ is edited: each wrapper replaces a module attribute (for
example ``spinsep.cli.verify_decomposition``), so only calls that go
through that name are seen.  Spans nest through a stack; a span's self
time is its duration minus the time of the spans it directly caused.
Spans are aggregated in memory per (parent, name) edge and written out
when the run ends.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0  # outermost spans of this name only, so recursion is not double counted
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.edges: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a recording wrapper.

        ``after(tracer, args, kwargs, result)`` runs once the span has
        closed, to update counters without charging their cost to it.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            result = tracer._span(name, original, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _span(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0]
        self._stack.append(record)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            own = elapsed - record[1]
            stat = self.stats[name]
            stat.calls += 1
            stat.self_s += own
            if all(r[0] != name for r in self._stack):
                stat.total_s += elapsed
            edge = self.edges[(parent[0] if parent else "", name)]
            edge.calls += 1
            edge.total_s += elapsed
            edge.self_s += own
            if parent is not None:
                parent[1] += elapsed

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()
        self.counters.clear()

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        """Aggregated spans and counters since the last reset, as plain data."""
        return {
            "spans": {k: vars_of(v) for k, v in sorted(self.stats.items())},
            "edges": [
                {"parent": p, "name": n, **vars_of(v)} for (p, n), v in sorted(self.edges.items())
            ],
            "counters": dict(sorted(self.counters.items())),
        }


def vars_of(stat: Stat) -> dict:
    return {"calls": stat.calls, "total_s": stat.total_s, "self_s": stat.self_s}
