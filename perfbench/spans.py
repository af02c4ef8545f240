"""In-memory spans recorded around calls into the library's layers.

A span is ``(name, start_ns, end_ns, parent, request)``.  The recorder
keeps one stack per thread, so a span opened inside another on the same
thread names it as parent; ``request`` is the id of the request the
thread is serving (set with :meth:`Recorder.serving`).  Spans stay in
memory until :meth:`Recorder.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: "int | None"
    request: "int | None"

    @property
    def ns(self) -> int:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Counts recorded at the same boundaries, e.g. lane steps.
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> "int | None":
        return getattr(self._local, "request", None)

    def bind(self, request: "int | None") -> None:
        """Attribute this thread's next spans to ``request``."""
        self._local.request = request

    @contextmanager
    def serving(self, request: "int | None"):
        """Attribute this thread's spans to ``request`` until exit."""
        previous = self.request
        self._local.request = request
        try:
            yield
        finally:
            self._local.request = previous

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1].id if stack else None
        with self._lock:
            record = Span(len(self.spans), name, 0, 0, parent, self.request)
            self.spans.append(record)
        stack.append(record)
        record.start = time.perf_counter_ns()
        try:
            yield record
        finally:
            record.end = time.perf_counter_ns()
            stack.pop()

    def add(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_ns(self) -> dict[int, int]:
        """Each span's duration minus the time its children cover."""
        own = {span.id: span.ns for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.ns
        return own

    def by_name(self) -> dict[str, list[Span]]:
        grouped: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span.name].append(span)
        return grouped

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")
