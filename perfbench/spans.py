"""Span tracer whose probes are installed from outside the traced program.

A probe replaces one function name in the module that calls it with a
wrapper that records a span: name, start, end, thread and parent span.  The
parent is the innermost span open on the same thread; a thread with no open
span (a pool worker) takes the span of the innermost open probe marked
``fork``, so work fanned out to threads stays attached to the call that
started it.  Spans stay in memory; `self_times` and the layer metrics read
them after the traced phase.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict


class Span:
    """One traced call; `info` holds the counts read from its arguments and result."""

    __slots__ = ("name", "start", "end", "thread", "parent", "info")

    def __init__(self, name: str, start: float, thread: int, parent: Span | None):
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.parent = parent
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and owns the probes it installed until `uninstall`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._fork_parent: Span | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._fork_parent
        span = Span(name, time.perf_counter(), threading.get_ident(), parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def install(self, module_name: str, attr: str, span_name: str,
                count=None, fork: bool = False) -> None:
        """Replace `module_name.attr` with a wrapper recording `span_name` spans.

        `count(args, kwargs, result)` returns the span's counts.  With `fork`,
        spans opened on threads that have no open span take this call's span
        as parent while it runs.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def probe(*args, **kwargs):
            span = tracer.open(span_name)
            outer = tracer._fork_parent
            if fork:
                tracer._fork_parent = span
            try:
                result = original(*args, **kwargs)
            finally:
                if fork:
                    tracer._fork_parent = outer
                tracer.close(span)
            if count is not None:
                span.info = count(args, kwargs, result)
            return result

        setattr(module, attr, probe)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every replaced name back, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def assert_unpatched(names) -> None:
    """Raise unless each `(module, attr)` still names the function its module defines."""
    for module_name, attr in names:
        fn = getattr(importlib.import_module(module_name), attr)
        home = getattr(importlib.import_module(fn.__module__), fn.__name__, None)
        if hasattr(fn, "__wrapped__") or home is not fn:
            raise RuntimeError(f"{module_name}.{attr} is still wrapped by a probe")


def self_times(spans) -> dict[Span, float]:
    """Duration of each span minus the part of it covered by its same-thread children.

    A child on another thread runs alongside its parent rather than inside
    it, so it does not reduce the parent's self time.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None and span.parent.thread == span.thread:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children[span]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span] = span.duration - covered
    return out
