"""Outside-in span tracer: wraps public gblink functions and methods by name.

The program under test is not modified.  For the duration of a `with Tracer(...)`
block each target attribute is replaced by a wrapper that records a span
(name, start, end, parent, run id) and optional counters computed from the
call's arguments and result.  On exit every attribute is put back exactly as it
was, whether or not the block raised.  A target whose module or attribute no
longer exists is listed in `absent` instead of failing.

Spans nest by call stack: a span's parent is the innermost wrapped call that
was running when it started.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

# (tracer context, args, kwargs, result, exception) -> counter increments
Counter = Callable[[Any, tuple, dict, Any, BaseException | None], dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One traced callable: `attr` is `func` or `Class.method` inside `module`."""
    name: str
    module: str
    attr: str
    count: Counter | None = None


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int        # index into Tracer.spans, -1 for a root span
    run: int


class Tracer:
    def __init__(self, targets: list[Target]):
        for t in targets:
            if t.attr.rsplit(".", 1)[-1].startswith("_"):
                raise ValueError(f"only public attributes are traced: {t.attr}")
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.run = 0              # run id stamped on new spans
        self.context: Any = None  # per-operation data that counters may read
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.absent = []
        try:
            for t in self.targets:
                self._patch(t)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, t: Target) -> None:
        try:
            owner: object = importlib.import_module(t.module)
        except ImportError:
            self.absent.append(t.name)
            return
        *path, leaf = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # plain functions only: a wrapped staticmethod or property would change
        # how the attribute binds
        func = getattr(owner, "__dict__", {}).get(leaf)
        if not inspect.isfunction(func):
            self.absent.append(t.name)
            return
        self._saved.append((owner, leaf, func))
        setattr(owner, leaf, self._wrap(t, func))

    def _restore(self) -> None:
        while self._saved:
            owner, leaf, raw = self._saved.pop()
            setattr(owner, leaf, raw)

    def _wrap(self, t: Target, func: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns
        calls_key = t.name + ".calls"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(t.name, 0, 0, stack[-1] if stack else -1, self.run)
            spans.append(span)
            stack.append(idx)
            result = exc = None
            span.start_ns = clock()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span.end_ns = clock()
                stack.pop()
                counters[calls_key] += 1
                if t.count is not None:
                    for key, inc in t.count(self.context, args, kwargs, result, exc).items():
                        counters[key] += inc

        return traced

    # -- analysis ----------------------------------------------------------------

    def self_times(self, key: Callable[[Span], Any] = lambda s: s.name) -> dict[Any, float]:
        """Total self time in seconds, grouped by `key(span)` (default: name)."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end_ns - s.start_ns
        out: dict[Any, float] = defaultdict(float)
        for s, c in zip(self.spans, child_ns):
            out[key(s)] += (s.end_ns - s.start_ns - c) / 1e9
        return out
