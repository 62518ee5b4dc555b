"""In-memory span recorder that wraps the program's public callables
from outside.

:class:`Tracer` replaces each target callable with a timing wrapper
for the duration of a traced repetition and restores the original
afterwards; no source file is edited. A function imported into other
modules is patched in every ``repro`` module that looks it up under
that name, so callers that did ``from .x import f`` see the wrapper
too. A target that no longer exists is recorded in
:attr:`Tracer.missing` instead of raising, so a refactor that renames
a layer turns its metrics into "missing" rather than breaking the run.

A span is ``(name, start_ns, end_ns, span_id, parent_id, run_id)``.
The parent is tracked per asyncio task through a context variable, so
concurrent client and server coroutines on one event loop keep
separate span stacks.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: int
    end: int
    id: int
    parent: Optional[int]
    run: int


class Target(NamedTuple):
    """One callable to wrap: ``module`` and dotted ``attr`` locate it;
    ``name`` labels its spans, unless ``rename`` (a function of the
    call's ``(args, kwargs)``) gives a per-call span name."""

    module: str
    attr: str
    name: str
    rename: Optional[Callable] = None


class Tracer:
    """Records spans around wrapped callables while installed."""

    def __init__(self) -> None:
        #: Finished spans as plain tuples in :class:`Span` field order
        #: (a tuple is cheaper to build inside the wrapper).
        self.raw: List[tuple] = []
        #: Counts recorded by wrappers (e.g. rows a segment emitter yielded).
        self.counts: Dict[str, int] = collections.Counter()
        #: Span names of targets that could not be resolved.
        self.missing: List[str] = []
        #: Run id stamped on spans of wrappers installed from now on.
        self.run = 0
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perf_span", default=None)
        self._restore: List = []

    @property
    def spans(self) -> List[Span]:
        return [Span._make(t) for t in self.raw]

    # ------------------------------------------------------------ wrappers
    def wrap(self, fn: Callable, name: str,
             rename: Optional[Callable] = None) -> Callable:
        """Return a span-recording wrapper around ``fn`` (plain, async
        or generator function). The hot path binds everything it needs
        to locals: the wrapper costs under a microsecond per call."""
        append, next_id, run = self.raw.append, self._ids.__next__, self.run
        get, enter, leave = (self._current.get, self._current.set,
                             self._current.reset)
        clock = time.perf_counter_ns
        counts = self.counts

        if inspect.isgeneratorfunction(fn):
            # One span per item produced: the time the consumer spends
            # waiting inside next().
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span_name = rename(args, kwargs) if rename else name
                it = fn(*args, **kwargs)
                while True:
                    sid = next_id()
                    parent = get()
                    token = enter(sid)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        append((span_name, start, clock(), sid, parent, run))
                        leave(token)
                    counts[span_name + ".rows"] += len(item)
                    yield item
            return gen_wrapper

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span_name = rename(args, kwargs) if rename else name
                sid = next_id()
                parent = get()
                token = enter(sid)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    append((span_name, start, clock(), sid, parent, run))
                    leave(token)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = rename(args, kwargs) if rename else name
            sid = next_id()
            parent = get()
            token = enter(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                append((span_name, start, clock(), sid, parent, run))
                leave(token)
        return wrapper

    # ------------------------------------------------------------ patching
    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every resolvable target; record the rest as missing.
        Call between repetitions, never while a wrapped call runs."""
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self._note_missing(target)
                continue
            owner_path, _, attr = target.attr.rpartition(".")
            owner = module
            try:
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self._note_missing(target)
                continue
            wrapper = self.wrap(original, target.name, target.rename)
            if owner is module:
                # Patch every module that looks the function up by name.
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if (mod_name.split(".")[0] == "repro"
                            and getattr(mod, attr, None) is original):
                        self._restore.append((mod, attr, original, True))
                        setattr(mod, attr, wrapper)
            else:
                self._restore.append(
                    (owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _note_missing(self, target: Target) -> None:
        if target.name not in self.missing:
            self.missing.append(target.name)


def wrapper_cost_ns(calls: int = 20_000, trials: int = 5) -> float:
    """Measured cost of one span-recording call over a bare call, in
    ns: the least of ``trials`` rounds, the one the host disturbed
    least."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer.wrap(noop, "noop")
    clock = time.perf_counter_ns
    best = float("inf")
    for _ in range(trials):
        start = clock()
        for _ in range(calls):
            noop()
        middle = clock()
        for _ in range(calls):
            wrapped()
        end = clock()
        best = min(best, ((end - middle) - (middle - start)) / calls)
    return max(0.0, best)


# ---------------------------------------------------------------- analysis
def covered_ns(intervals: Iterable, lo: int, hi: int) -> int:
    """Length of the union of ``(start, end)`` intervals clipped to
    ``[lo, hi]``."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi))
                             for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> self time in ns: its duration minus the time its
    child spans cover."""
    spans = list(spans)
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: (span.end - span.start)
            - covered_ns(children.get(span.id, ()), span.start, span.end)
            for span in spans}


#: Spans a trace file keeps: about 8 MB of JSON.
TRACE_MAX_EVENTS = 50_000


def write_chrome_trace(spans: List[Span], path: str,
                       metadata: Optional[dict] = None) -> None:
    """Write spans as Chrome/Perfetto ``traceEvents`` JSON.

    Each root span and its descendants share one track; overlapping
    roots (concurrent tasks) get separate tracks. Only the first
    :data:`TRACE_MAX_EVENTS` spans are written, which keeps the file
    small on fetch-heavy workloads; ``otherData`` records both counts.
    """
    total = len(spans)
    # Longest first among equal starts, so a parent precedes its child.
    spans = sorted(spans, key=lambda s: (s.start, -s.end))[
        :TRACE_MAX_EVENTS]
    kept = {span.id for span in spans}
    roots = [s for s in spans if s.parent is None or s.parent not in kept]
    lane_of: Dict[int, int] = {}
    lane_end: List[int] = []
    for root in roots:
        for lane, end in enumerate(lane_end):
            if end <= root.start:
                break
        else:
            lane = len(lane_end)
            lane_end.append(0)
        lane_end[lane] = root.end
        lane_of[root.id] = lane
    for span in spans:
        if span.id not in lane_of:
            lane_of[span.id] = lane_of.get(span.parent, 0)
    origin = spans[0].start if spans else 0
    events = [{
        "name": span.name,
        "cat": span.name.split(".")[0],
        "ph": "X",
        "ts": (span.start - origin) / 1e3,
        "dur": (span.end - span.start) / 1e3,
        "pid": os.getpid(),
        "tid": lane_of[span.id],
        "args": {"id": span.id, "parent": span.parent, "run": span.run},
    } for span in spans]
    other = dict(metadata or {})
    other.update(spans_total=total, events_written=len(events))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": other}, fh)
