"""In-memory span recorder for the sepprob benchmark.

Spans are recorded around calls into the package's public functions by
replacing them at module-attribute (or class-attribute) level for the life
of a ``Tracer`` context; nothing inside the package is edited.  Each span
keeps its name, start, end and the index of the span that was open when it
started.  A span's self time is its duration minus the durations of its
child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None


class Tracer:
    """Records nested spans and named counts in memory.

    Use as a context manager: every ``wrap`` made inside the ``with`` block
    is undone when it exits, also when it exits by an exception.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), None, parent))
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx].end = self.clock()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span ``name``.

        ``on_call(tracer, args, result)`` runs after the span closes, so its
        cost falls on the enclosing span's self time, not on this layer.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = orig(*args, **kwargs)
            if on_call is not None:
                on_call(self, args, out)
            return out

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr = new`` until the tracer's context exits."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unwrap_all()


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the summed durations of its direct children.

    Spans open and close on one stack, so a span's children never overlap.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_totals(spans: list[Span], root: str | None = None) -> dict[str, LayerTotals]:
    """Calls, summed duration and summed self time per span name.

    With ``root``, only spans in trees whose outermost span has that name.
    """
    top = []
    for s in spans:  # a parent always precedes its children
        top.append(len(top) if s.parent is None else top[s.parent])
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s, t_i, self_s in zip(spans, top, self_times(spans)):
        if root is not None and spans[t_i].name != root:
            continue
        t = out[s.name]
        t.calls += 1
        t.total_s += s.end - s.start
        t.self_s += self_s
    return dict(out)
