"""In-memory spans recorded around calls into the program's public functions.

The benchmark never edits ``src/``: a traced run replaces selected
functions and methods of the ``repro`` package with thin wrappers that
record a span (name, start, end, parent, attributes) per call, and puts the
originals back when the run is done.  Spans stay in memory until the run
ends.  Parents come from a context variable, so concurrent asyncio tasks
each see their own open span; work handed to an executor thread starts
with an empty context and is adopted by the span the caller names
(:attr:`SpanRecorder.adopter`).

A layer's self time is its span's duration minus the durations of its
direct children (children never outlive their parent here).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

# A span is a small list for speed: [name, start, end, parent, attrs].
NAME, START, END, PARENT, ATTRS = range(5)


class SpanRecorder:
    """Record spans around wrapped callables; restore them on :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: Span that adopts wrapped calls marked ``adopt=True`` when they run
        #: with no open span (the executor thread of a micro-batcher flush).
        self.adopter: Optional[list] = None
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def open(self, name: str, parent: Optional[list] = None, attrs=None) -> list:
        if parent is None:
            parent = self.current.get()
        return [name, time.perf_counter(), 0.0, parent, attrs]

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.spans.append(span)

    def add(self, name: str, start: float, end: float, parent: Optional[list], attrs=None):
        span = [name, start, end, parent, attrs]
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        *,
        attrs: Optional[Callable] = None,
        adopt: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``attrs(args, kwargs, result)`` optionally returns attributes stored
        on the span.  Coroutine functions get an async wrapper.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        recorder = self
        current = self.current

        def _open() -> list:
            parent = current.get()
            if parent is None and adopt:
                parent = recorder.adopter
            return [name, 0.0, 0.0, parent, None]

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span = _open()
                token = current.set(span)
                span[START] = time.perf_counter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    span[END] = time.perf_counter()
                    current.reset(token)
                    recorder.spans.append(span)
                if attrs is not None:
                    span[ATTRS] = attrs(args, kwargs, result)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = _open()
                token = current.set(span)
                span[START] = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[END] = time.perf_counter()
                    current.reset(token)
                    recorder.spans.append(span)
                if attrs is not None:
                    span[ATTRS] = attrs(args, kwargs, result)
                return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def replace(self, owner: Any, attribute: str, replacement: Callable) -> None:
        """Install a hand-written wrapper (restored by :meth:`uninstall`)."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        setattr(owner, attribute, replacement(original))
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def export(self) -> List[list]:
        """Spans as JSON-able rows ``[name, start, end, parent_index, attrs]``."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        rows = []
        for span in self.spans:
            parent = span[PARENT]
            rows.append(
                [
                    span[NAME],
                    span[START],
                    span[END],
                    None if parent is None else index.get(id(parent)),
                    span[ATTRS],
                ]
            )
        return rows


def load_rows(rows: List[list]) -> List[list]:
    """Rebuild span lists (parents as objects) from :meth:`SpanRecorder.export` rows."""
    spans = [[row[0], row[1], row[2], None, row[4]] for row in rows]
    for span, row in zip(spans, rows):
        if row[3] is not None:
            span[PARENT] = spans[row[3]]
    return spans


def within(spans: List[list], start: float, end: float) -> List[list]:
    """Spans that started inside the window ``[start, end)``."""
    return [span for span in spans if start <= span[START] < end]


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total and self seconds."""
    child_seconds: Dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            child_seconds[id(parent)] += span[END] - span[START]
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_seconds.get(id(span), 0.0)
    return out


def self_seconds(spans: List[list], name: str) -> List[float]:
    """Self time of every span called ``name`` (duration minus direct children)."""
    child_seconds: Dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span[PARENT]
        if parent is not None and parent[NAME] == name:
            child_seconds[id(parent)] += span[END] - span[START]
    return [
        span[END] - span[START] - child_seconds.get(id(span), 0.0)
        for span in spans
        if span[NAME] == name
    ]
