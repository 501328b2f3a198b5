"""In-memory spans around calls into a package, recorded from outside it.

A :class:`Tracer` rebinds a function at the module attribute where its
caller looks it up, so the caller's own code runs unchanged and every call
through that name becomes one span: name, start, end, parent span and the
benchmark op that caused it. Spans stay in memory until :meth:`dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Iterable


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    op: int  # index of the benchmark op that caused the span
    args: tuple
    start: float = 0.0
    end: float = 0.0
    result: object = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []  # wrapped names the modules no longer have
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[ModuleType, str, object]] = []

    def wrap(self, module: ModuleType, attr: str, name: str) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, self.op, args)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                span.result = original(*args, **kwargs)
                return span.result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    @contextmanager
    def installed(self, wraps: Iterable[tuple[ModuleType, str, str]]):
        """Wrap every (module, attribute, span name) for the block's duration."""
        try:
            for module, attr, name in wraps:
                self.wrap(module, attr, name)
            yield self
        finally:
            while self._undo:
                module, attr, original = self._undo.pop()
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, "error": s.error}) + "\n")
