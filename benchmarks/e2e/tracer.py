"""In-memory spans around the layers' public methods.

The benchmark owns its instrumentation: nothing under ``src/`` knows it
is being traced.  :meth:`Tracer.install` resolves a table of
``(layer, module, qualname)`` targets (the table lives in
``adapter.py``) and swaps each for a wrapper that records one span per
call — name, start, end, and the span that was open on the same thread
when it began.  A target that no longer resolves is *counted*, never
raised: a renamed method must cost one ledger line, not the run.

Self time is the ledger's unit: a span's duration minus the part of it
its direct children cover.  Summed over every span of a thread the self
times equal the thread's root spans exactly, which is what lets
``ledger.coverage`` say how much of the traced wall the ledger explains.

Spans cover the tracing process only.  Worker processes forked after
``install`` carry the wrappers (and pay their cost) but their spans die
with them; the fleet shows up as children's CPU and driver-side wait.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from pathlib import Path

__all__ = ["Tracer", "self_times", "resolve"]

# Span record layout (a list, mutated once when the call returns).  A
# parent is an index into the list the span is in, -1 for a root.
NAME, START, END, PARENT, THREAD = range(5)


def resolve(module: str, qualname: str):
    """``(owner, attribute, function)`` of a dotted target, or ``None``."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    function = getattr(owner, attribute, None)
    if not callable(function):
        return None
    return owner, attribute, function


class Tracer:
    """Records spans for the targets it is installed on."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        #: Wrappers record only while this is set; the runner clears it
        #: around work that is not part of the measured wall (gateway
        #: construction, the crash/restore step, probes).
        self.enabled = False
        self._local = threading.local()
        #: One span list per thread that ever ran a wrapper.  A thread
        #: appends to its own list only, so a span's index (what its
        #: children record as parent) cannot be taken by another thread
        #: between ``len`` and ``append``.
        self._threads: list[list[list]] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[list]:
        """Every thread's spans as one list, parents re-indexed into it."""
        merged: list[list] = []
        for own in list(self._threads):
            offset = len(merged)
            merged.extend(
                [name, start, end, parent + offset if parent >= 0 else -1, thread]
                for name, start, end, parent, thread in list(own)
            )
        return merged

    def wrap(self, name: str, function):
        """``function`` with a span named ``name`` around every call."""
        tracer = self
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            own = getattr(local, "spans", None)
            if own is None:
                local.spans = own = []
                local.stack = []
                local.ident = threading.get_ident()
                tracer._threads.append(own)
            stack = local.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, local.ident]
            stack.append(len(own))
            own.append(span)
            span[START] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = function
        return traced

    def install(self, targets) -> None:
        """Wrap every resolvable ``(layer, module, qualname)`` target."""
        for _layer, module, qualname in targets:
            found = resolve(module, qualname)
            if found is None:
                self.missing.append(f"{module}:{qualname}")
                continue
            owner, attribute, function = found
            # ``__dict__`` keeps static/class-method descriptors intact
            # on uninstall; the wrapper goes around the plain function.
            original = vars(owner).get(attribute, function)
            if isinstance(original, staticmethod):
                wrapper = staticmethod(self.wrap(qualname, original.__func__))
            else:
                wrapper = self.wrap(qualname, function)
            setattr(owner, attribute, wrapper)
            self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every wrapped target back."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans as JSON (called once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "meta": meta,
            "fields": ["name", "start", "end", "parent", "thread"],
            "spans": self.spans,
        }))


def self_times(spans, thread: int | None = None) -> dict[str, list]:
    """Per span name: ``[calls, total seconds, self seconds]``.

    Self time subtracts each span's *direct* children (grandchildren are
    already inside a child).  ``thread`` restricts the fold to one
    thread's spans — the coverage ratio is taken on the driver thread,
    where root spans never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child_time[parent] += span[END] - span[START]
    table: dict[str, list] = {}
    for index, span in enumerate(spans):
        if thread is not None and span[THREAD] != thread:
            continue
        duration = span[END] - span[START]
        row = table.get(span[NAME])
        if row is None:
            table[span[NAME]] = row = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_time[index]
    return table
