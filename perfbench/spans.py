"""Host-time spans and the layer-sum rule.

A :class:`Tracer` records one span per call into a wrapped function:
``(id, parent, layer, start_ns, end_ns, wait, info)``.  Ids are
``(pid, n)`` pairs so spans recorded in forked harness workers and in a
served subprocess never collide with the benchmark's own.  Times come
from ``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on Linux), one clock
shared by every process on the host.

:func:`attribute` turns a span forest into per-layer *self* times that
add up to the wall time of a window exactly:

* at every instant the active spans form a forest; its leaves are the
  spans doing the work at that instant;
* a *wait* span (a client blocked on a reply) is a leaf only when no
  other leaf is active, so a server's work is charged to the server;
* the instant is split equally among the leaves, and charged to the
  window's root (``unaccounted``) when no span is active.

With one thread this is the usual "span minus the part its children
cover".  With overlapping workers the shares of the overlapping leaves
add up to the instant, so the self times never exceed wall time and
are never negative: ``sum(self) + unaccounted == wall``, the host-side
twin of the simulator's ``useful + lost == total``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

SpanId = Tuple[int, int]
#: one record: [id, parent, layer, start_ns, end_ns, wait, info]
Record = list

ROOT = "unaccounted"


class Tracer:
    """In-memory span recorder, shared by every thread of a process.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack is *adopted* by the innermost open span
    of the thread that installed the tracer (when ``adopt`` is on): a
    harness thread pool started by the main thread then hangs under the
    call that started it.  Forked workers inherit the stacks, so their
    first span hangs under the parent-side call that forked them.
    """

    def __init__(self, adopt: bool = True) -> None:
        self.records: List[Record] = []
        self._stacks: Dict[int, List[SpanId]] = {}
        self._counter = itertools.count(1)
        self._main = threading.get_ident() if adopt else None

    def begin(self, layer: str, wait: bool = False) -> list:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        parent: Optional[SpanId] = stack[-1] if stack else None
        if parent is None and self._main is not None and ident != self._main:
            main_stack = self._stacks.get(self._main)
            if main_stack:
                parent = main_stack[-1]
        sid = (os.getpid(), next(self._counter))
        stack.append(sid)
        return [sid, parent, layer, time.perf_counter_ns(), 0, wait, None]

    def end(self, token: list, info: Optional[Dict[str, Any]] = None) -> None:
        token[4] = time.perf_counter_ns()
        token[6] = info
        stack = self._stacks.get(threading.get_ident(), [])
        if stack and stack[-1] == token[0]:
            stack.pop()
        elif token[0] in stack:
            stack.remove(token[0])
        self.records.append(token)

    def dump(self, path: str, records: Iterable[Record],
             meta: Optional[Dict[str, Any]] = None) -> None:
        """Write ``records`` (plus ``meta``) for another process to read."""
        with open(path, "w") as handle:
            json.dump({"meta": meta or {}, "records": list(records)}, handle)


def load_spool(path: str) -> Tuple[List[Record], Dict[str, Any]]:
    """Records and meta written by :meth:`Tracer.dump`."""
    with open(path) as handle:
        payload = json.load(handle)
    records = [
        [tuple(r[0]), tuple(r[1]) if r[1] is not None else None, *r[2:]]
        for r in payload["records"]
    ]
    return records, payload.get("meta", {})


def attribute(
    records: Iterable[Record], root: Record
) -> Tuple[Dict[str, float], float, float]:
    """Self seconds per layer, the unaccounted seconds and the wall.

    ``root`` is the window span: only the part of each span inside it
    counts, and spans whose parent is unknown (another process's top
    level) hang directly under it.
    """
    win0, win1 = root[3], root[4]
    spans: Dict[SpanId, Record] = {}
    for rec in records:
        if rec[0] == root[0]:
            continue
        start, end = max(rec[3], win0), min(rec[4], win1)
        if end > start:
            spans[rec[0]] = [rec[0], rec[1], rec[2], start, end, rec[5]]
    root_id = root[0]
    for span in spans.values():
        if span[1] not in spans:
            span[1] = root_id

    events: List[Tuple[int, int, SpanId]] = []
    for sid, span in spans.items():
        events.append((span[3], 1, sid))
        events.append((span[4], 0, sid))
    events.sort()

    active: Dict[SpanId, Record] = {}
    children: Dict[SpanId, int] = {}
    self_ns: Dict[str, float] = {}
    unaccounted = 0.0
    now = win0
    for time_ns, starting, sid in events:
        if time_ns > now:
            share = _leaves(active, children)
            dt = time_ns - now
            if share:
                for leaf in share:
                    layer = active[leaf][2]
                    self_ns[layer] = self_ns.get(layer, 0.0) + dt / len(share)
            else:
                unaccounted += dt
            now = time_ns
        span = spans[sid]
        parent = span[1]
        if starting:
            active[sid] = span
            children[parent] = children.get(parent, 0) + 1
        else:
            del active[sid]
            children[parent] -= 1
    unaccounted += win1 - now
    seconds = {layer: ns / 1e9 for layer, ns in self_ns.items()}
    return seconds, unaccounted / 1e9, (win1 - win0) / 1e9


def _leaves(active: Dict[SpanId, Record],
            children: Dict[SpanId, int]) -> List[SpanId]:
    leaves = [sid for sid in active if not children.get(sid)]
    working = [sid for sid in leaves if not active[sid][5]]
    return working or leaves


def layer_sum_error(self_s: Dict[str, float], unaccounted: float,
                    wall: float) -> float:
    """``|sum(self) + unaccounted - wall|`` in seconds."""
    return abs(sum(self_s.values()) + unaccounted - wall)


def busy(records: Iterable[Record], layer: str) -> Tuple[float, List[Any]]:
    """Summed duration (s) and infos of a layer's outermost spans."""
    records = list(records)
    layers = {rec[0]: rec[2] for rec in records}
    total = 0
    infos = []
    for rec in records:
        if rec[2] == layer and layers.get(rec[1]) != layer:
            total += rec[4] - rec[3]
            infos.append(rec[6])
    return total / 1e9, infos
