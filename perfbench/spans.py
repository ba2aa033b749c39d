"""In-memory spans around the benchmark's calls into the program.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` temporarily replaces a module attribute (a public function,
or a method on a public class) with a wrapper that opens a span around the
original, and puts the original back when the traced pass ends.  Spans are
kept in a list and written out once, when the benchmark finishes.

Every span records its name, start, end, the span that was open when it
began (its parent) and the pass it belongs to (``trace_id``).  A span's
*self time* is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional


class Span:
    __slots__ = ("span_id", "parent_id", "trace_id", "name", "start", "end")

    def __init__(
        self, span_id: int, parent_id: Optional[int], trace_id: str, name: str
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_document(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }


class Tracer:
    """Collects spans for one benchmark process (single caller thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id = ""
        self._open: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].span_id if self._open else None
        record = Span(len(self.spans), parent, self.trace_id, name)
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Trace every call of ``owner.attribute`` until :meth:`restore`."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------- analysis
    def children(self) -> dict[int, list[Span]]:
        table: dict[int, list[Span]] = {}
        for record in self.spans:
            if record.parent_id is not None:
                table.setdefault(record.parent_id, []).append(record)
        return table

    def self_time(self, record: Span, children: dict[int, list[Span]]) -> float:
        """Duration minus the union of the child intervals inside it."""
        covered = 0.0
        cursor = record.start
        for child in sorted(children.get(record.span_id, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, record.end)
            if end > start:
                covered += end - start
                cursor = end
        return record.duration - covered

    def totals(
        self, trace_id: str, *, self_time: bool = False
    ) -> dict[str, float]:
        """Seconds per span name within one pass (total or self time)."""
        children = self.children() if self_time else {}
        totals: dict[str, float] = {}
        for record in self.spans:
            if record.trace_id != trace_id:
                continue
            seconds = (
                self.self_time(record, children) if self_time else record.duration
            )
            totals[record.name] = totals.get(record.name, 0.0) + seconds
        return totals

    def durations(self, name: str) -> list[float]:
        return [record.duration for record in self.spans if record.name == name]

    def write(self, path: str) -> None:
        children = self.children()
        document = [
            dict(record.to_document(), self=self.self_time(record, children))
            for record in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def traced_call(
    tracer: Optional[Tracer], name: str, func: Callable, *args: Any, **kwargs: Any
) -> Any:
    """``func(*args, **kwargs)``, inside a span when a tracer is given."""
    if tracer is None:
        return func(*args, **kwargs)
    with tracer.span(name):
        return func(*args, **kwargs)
