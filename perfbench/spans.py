"""In-memory spans and counters, recorded by wrappers around masklog functions.

A wrapper replaces a function under the name its caller looks up (for example
`masklog.score.forward`, which `score.py` imported from `model.py`), records a
span around each call and adds the call's work counts. `installed()` puts the
wrappers in place and always restores the originals, so an untraced run never
sees them. Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run_id: str


class Tracer:
    """Span recorder; the parent of a span is the span open around it on the same thread.

    A span opened on a worker thread (`score --threads 2`) with nothing open
    around it on that thread is a root, so totals add busy time over threads.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.run_id = ""
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("open", [])
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run_id))
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counts[self.run_id][name] += n

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = [asdict(s) for s in self.spans]
        doc["counts"] = {run: dict(c) for run, c in self.counts.items()}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
            f.write("\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that its direct children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        inside = [(max(c.start, s.start), min(c.end, s.end)) for c in children[i]]
        out.append((s.end - s.start) - _covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def totals(spans: list[Span], run_id: str) -> tuple[Counter, Counter]:
    """(total duration, total self time) per span name within one run."""
    total, own = Counter(), Counter()
    for s, self_s in zip(spans, self_times(spans)):
        if s.run_id == run_id:
            total[s.name] += s.end - s.start
            own[s.name] += self_s
    return total, own


def _wrap(tracer: Tracer, fn, span_name: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
        if counter is not None:
            for name, n in counter(args, kwargs, result).items():
                tracer.count(name, n)
        return result

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, hooks):
    """Wrap each (module, attribute, span name, counter) hook; restore them on exit."""
    saved = []
    try:
        for module_name, attr, span_name, counter in hooks:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, span_name, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
