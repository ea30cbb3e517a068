"""Outside-in span tracing of leakbench's public functions.

The tracer replaces each traced function by a timing wrapper wherever a
leakbench module resolves the name to that function object (the defining
module, every module that imported it by name, and the package root), so
calls between layers are seen without editing the program. A traced name
that the program no longer defines is recorded as absent, never an error.

Spans stay in memory as (name, start, end, parent, attrs) records and are
written out when the pass ends. A span's self time is its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# Errors an annotation may raise when the program's public types change
# shape; the annotation is then dropped and its counter reads as absent.
_ANNOTATION_ERRORS = (AttributeError, KeyError, IndexError, TypeError, ValueError)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


Annotate = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    """A public function or method to trace, named `<module>.<attr path>`
    relative to the package, e.g. `windowing.SequenceSet.inputs`.

    `annotate(args, kwargs, result)` returns counters for the span."""

    name: str
    annotate: Optional[Annotate] = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, annotate: Optional[Annotate] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if annotate is not None:
                try:
                    self.spans[index].attrs = annotate(args, kwargs, result)
                except _ANNOTATION_ERRORS:
                    pass
            return result

        return traced

    def install(self, package: str, targets: list[Target]) -> None:
        """Wrap every target; names the package does not define go to
        `absent`."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for target in targets:
            module_name, *path = target.name.split(".")
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                raw = vars(owner)[path[-1]]
            except (ImportError, AttributeError, KeyError, TypeError):
                self.absent.append(target.name)
                continue
            if isinstance(raw, type):
                self.absent.append(target.name)
                continue
            if isinstance(owner, type):
                # a method: patch the class, which every caller resolves through
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self.wrap(target.name, raw.__func__, target.annotate))
                else:
                    new = self.wrap(target.name, raw, target.annotate)
                self._patch(owner, path[-1], new)
                continue
            new = self.wrap(target.name, raw, target.annotate)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, attr, new)

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.attrs]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


@dataclass
class NameStats:
    """What the spans of one name add up to."""

    calls: int = 0
    busy_s: float = 0.0  # spans with no same-name ancestor, so recursion counts once
    self_s: float = 0.0
    spans: list[Span] = field(default_factory=list)


def summarize(spans: list[Span]) -> dict[str, NameStats]:
    selfs = self_times(spans)
    out: dict[str, NameStats] = {}
    for i, s in enumerate(spans):
        st = out.setdefault(s.name, NameStats())
        st.calls += 1
        st.self_s += selfs[i]
        st.spans.append(s)
        if not has_ancestor(spans, i, s.name):
            st.busy_s += s.duration
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    p = spans[index].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]); nan when empty."""
    if not values:
        return math.nan
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
