"""In-memory spans around calls into the program, recorded from outside.

A Tracer replaces named attributes of modules and classes with wrappers that
record a span (name, start, end, parent span) per call and put the
originals back when the tracer is closed. Nothing is written while spans
are recorded; `write_jsonl` dumps them at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# measure(args, kwargs, result) -> attributes stored on the call's span
Measure = Callable[[tuple, dict, object], dict]


class Tracer:
    """Single-threaded span recorder; spans nest by call order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, measure: Measure | None = None) -> None:
        """Record a span named `name` around every call of owner.attr.

        Raises LookupError when the attribute does not exist, so a renamed
        function cannot silently drop out of the trace.
        """
        original = vars(owner).get(attr)
        if not callable(original):
            raise LookupError(
                f"cannot trace {name}: {getattr(owner, '__name__', owner)!r} "
                f"has no callable {attr!r}"
            )
        spans, open_ids = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(len(spans), open_ids[-1] if open_ids else None, name,
                        time.perf_counter())
            spans.append(span)
            open_ids.append(span.id)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_ids.pop()
            if measure is not None:
                span.attrs.update(measure(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def close(self) -> None:
        """Put every wrapped attribute back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children[s.id]) for s in spans}


def ancestors(spans: list[Span], span: Span):
    """Names of the span's ancestors, nearest first (spans[i].id == i)."""
    parent = span.parent
    while parent is not None:
        yield spans[parent].name
        parent = spans[parent].parent


def write_jsonl(path: str, spans: list[Span]) -> None:
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(asdict(s)) + "\n")
