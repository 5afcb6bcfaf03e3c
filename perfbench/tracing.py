"""Spans recorded from outside the library, for the traced benchmark mode.

The traced mode swaps public calls of the library (module functions and
class methods) for span-recording wrappers for the duration of one unit,
then puts the originals back. Spans live in memory until the run ends and are
written out as JSON lines. A layer's self time is its duration minus the
time its child spans cover; spans of one thread never overlap, so that is
the duration minus the sum of the children.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Tracer:
    """Collects spans (name, start, end, parent, unit) in memory."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.unit: Optional[int] = None
        self._stack: List[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Time the body as a child of the innermost open span."""
        record: Dict[str, Any] = {
            "id": next(self._ids),
            "parent": self._stack[-1] if self._stack else None,
            "unit": self.unit,
            "name": name,
            **attrs,
        }
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def add(self, name: str, start: float, end: float, parent: int,
            **attrs: Any) -> None:
        """Record a span measured elsewhere (e.g. streamed by a server)."""
        self.spans.append({
            "id": next(self._ids), "parent": parent, "unit": self.unit,
            "name": name, "start": start, "end": end, **attrs,
        })

    def write(self, path: str) -> int:
        """Write every span as one JSON line, ordered by id."""
        ordered = sorted(self.spans, key=lambda s: s["id"])
        with open(path, "w", encoding="utf-8") as handle:
            for record in ordered:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(ordered)


def traced(tracer: Tracer, original: Callable, name: str,
           hook: Optional[Callable[..., None]] = None) -> Callable:
    """``original`` wrapped in a span; ``hook(span, args, result)`` after."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name) as record:
            result = original(*args, **kwargs)
        if hook is not None:
            hook(record, args, result)
        return result

    return wrapper


def count(record: Dict[str, Any], key: str, value: float) -> None:
    """Add ``value`` to the span's count named ``key``."""
    counts = record.setdefault("counts", {})
    counts[key] = counts.get(key, 0) + value


@contextmanager
def swapped(replacements: Sequence[Tuple[Any, str, Any]]) -> Iterator[None]:
    """Set each ``(owner, attribute, value)``; restore the originals after."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    for owner, attr, value in replacements:
        setattr(owner, attr, value)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def unit_layers(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and counts summed."""
    child_time: Dict[int, float] = {}
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] = (
                child_time.get(record["parent"], 0.0)
                + record["end"] - record["start"]
            )
    layers: Dict[str, Dict[str, float]] = {}
    for record in spans:
        row = layers.setdefault(record["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = record["end"] - record["start"]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(record["id"], 0.0)
        for key, value in record.get("counts", {}).items():
            row[key] = row.get(key, 0) + value
    return layers
