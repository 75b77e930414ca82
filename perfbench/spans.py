"""In-memory span recorder and the hooks that feed it from outside the program.

The traced run wraps the public functions each layer is reached through —
names where their callers look them up, methods on their classes, detector
suites in their registry — so the program itself carries no tracing code.
Every span records its name, start, end, parent span and trace id (the cell
or job it served); spans stay in memory until the run writes them out.

A hook whose target no longer exists (a later change renames or deletes
it) is listed in :attr:`Installed.missing`, and a span no hook could be
installed for is reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_JOB_THREAD = re.compile(r"^fleet-(job-[A-Za-z0-9_-]+)$")


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace_id: str
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap each other (a generator's span and a call made
    between its ``next()`` calls), so the covered part is the union of the
    child intervals clipped to the parent, not the sum of child durations.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.span_id] = span.duration - covered
    return out


class Tracer:
    """Thread-aware span recorder.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open on the same thread.  The trace id is the one
    the thread set with :meth:`set_trace`, else the job id of a fleet
    producer thread (named ``fleet-<job id>``), else ``"-"``.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def set_trace(self, trace_id: Optional[str]) -> Optional[str]:
        """Set this thread's trace id; returns the one it replaces."""
        previous = getattr(self._local, "trace_id", None)
        self._local.trace_id = trace_id
        return previous

    def _trace_id(self) -> str:
        trace_id = getattr(self._local, "trace_id", None)
        if trace_id is not None:
            return trace_id
        match = _JOB_THREAD.match(threading.current_thread().name)
        return match.group(1) if match else "-"

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id=span_id,
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1].span_id if stack else None,
            trace_id=self._trace_id(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def write(self, path) -> None:
        """Write every recorded span as one JSON line each."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


# -- hooks --------------------------------------------------------------------

#: ``count(span, args, kwargs, result)`` adds counters to a closed span.
Counter = Callable[[Span, tuple, dict, Any], None]


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``) in a span."""

    module: str
    attr: str
    span: str
    count: Optional[Counter] = None
    #: ``trace(args, kwargs)`` names the trace id the call runs under
    #: (e.g. the job a server thread is executing); ``None`` keeps it.
    trace: Optional[Callable[[tuple, dict], Optional[str]]] = None


@dataclass(frozen=True)
class RegistryHook:
    """Re-register entry ``key`` of the registry ``module.attr`` in a span."""

    module: str
    attr: str
    key: str
    span: str


def _wrap(
    tracer: Tracer,
    fn: Callable,
    name: str,
    count: Optional[Counter] = None,
    trace: Optional[Callable[[tuple, dict], Optional[str]]] = None,
):
    if trace is not None:
        inner = _wrap(tracer, fn, name, count)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            previous = tracer.set_trace(trace(args, kwargs))
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.set_trace(previous)

        return traced

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            count(span, args, kwargs, result)
        return result

    return wrapper


def _resolve(module: str, attr: str) -> Tuple[Any, str, Any]:
    """(owner object, final attribute name, current value) or LookupError."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError as exc:
        raise LookupError(f"{module}: {exc}") from None
    parts = attr.split(".")
    for part in parts[:-1]:
        if not hasattr(owner, part):
            raise LookupError(f"{module}.{attr}")
        owner = getattr(owner, part)
    if not hasattr(owner, parts[-1]):
        raise LookupError(f"{module}.{attr}")
    return owner, parts[-1], getattr(owner, parts[-1])


class Installed:
    """Hooks installed on live modules; :meth:`remove` restores them."""

    def __init__(self, tracer: Tracer, hooks: Iterable[Any]) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []
        #: ``module.attr`` of every hook whose target does not exist.
        self.missing: List[str] = []
        wanted, installed = set(), set()
        for hook in hooks:
            wanted.add(hook.span)
            try:
                if isinstance(hook, RegistryHook):
                    self._install_registry(hook)
                else:
                    self._install(hook)
            except LookupError as exc:
                self.missing.append(str(exc))
            else:
                installed.add(hook.span)
        #: Span names no hook could be installed for: their metrics are absent.
        self.absent_spans = sorted(wanted - installed)

    def _install(self, hook: Hook) -> None:
        owner, name, original = _resolve(hook.module, hook.attr)
        if not callable(original):
            raise LookupError(f"{hook.module}.{hook.attr} is not callable")
        wrapped = _wrap(self.tracer, original, hook.span, hook.count, hook.trace)
        setattr(owner, name, wrapped)
        self._undo.append(lambda: setattr(owner, name, original))

    def _install_registry(self, hook: RegistryHook) -> None:
        _, _, registry = _resolve(hook.module, hook.attr)
        if hook.key not in registry:
            raise LookupError(f"{hook.module}.{hook.attr}[{hook.key!r}]")
        original = registry.get(hook.key)
        registry.register(hook.key, _wrap(self.tracer, original, hook.span))
        self._undo.append(lambda: registry.register(hook.key, original))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


# -- aggregation --------------------------------------------------------------


def per_trace(
    spans: Sequence[Span], selves: Dict[int, float], name: str, self_time: bool
) -> Dict[str, float]:
    """Summed (self or total) time of span ``name`` within each trace id."""
    out: Dict[str, float] = {}
    for span in spans:
        if span.name == name:
            value = selves[span.span_id] if self_time else span.duration
            out[span.trace_id] = out.get(span.trace_id, 0.0) + value
    return out


def per_trace_count(spans: Sequence[Span], name: str, key: str) -> Dict[str, float]:
    """Summed counter ``key`` (``"calls"`` = number of spans) of span
    ``name`` within each trace id."""
    out: Dict[str, float] = {}
    for span in spans:
        if span.name == name:
            value = 1.0 if key == "calls" else span.counts.get(key, 0.0)
            out[span.trace_id] = out.get(span.trace_id, 0.0) + value
    return out


def median_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
