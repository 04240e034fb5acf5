"""Outside-in per-layer wall-clock tracing for the end-to-end benchmark.

The benchmark times each layer of ``repro`` by wrapping the layer's
public entry points from the benchmark's own files; nothing under
``src/`` changes.  A wrapper is installed where callers look the name
up (a module global, a class attribute, or a dict entry), so e.g.
``form_runs_load_sort`` is wrapped inside ``RUN_STRATEGIES`` and
``read_ahead`` inside ``repro.core.stream``.

Every wrapped call inside an open root span is a span: layer, name,
start, end, parent.  Self time (duration minus child spans) is
aggregated online per ``(layer, name)``; raw spans are kept only for
sampled roots and written out as a Chrome/Perfetto trace.  Calls made
while no root is open (set-up, output checks) are not traced.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("kernel", "stream", "pool", "runtime", "device", "service")

CALL = "call"    # time the call itself
ITER = "iter"    # time each next() on the iterator the call returns


def entry_points():
    """``(owner, attribute, layer, span name, kind)`` of every wrapped
    entry point, grouped by layer."""
    from repro.core import cache, disk, filedisk, stream
    from repro.pipeline import exvector, sorter
    from repro.runtime import Runtime, prefetch, scheduler, writebehind
    from repro.service import service
    from repro.sort import merge

    FileStream, StripedStream = stream.FileStream, stream.StripedStream
    BufferPool, DiskArray = cache.BufferPool, disk.DiskArray
    IOScheduler, WriteBehind = scheduler.IOScheduler, writebehind.WriteBehind
    points = [
        (merge.RUN_STRATEGIES, "load", "kernel", "run_formation", CALL),
        (merge, "merge_pass", "kernel", "merge", CALL),
        (sorter, "merge_pass", "kernel", "merge", CALL),
    ]
    for name in ("append_block", "append_blocks", "read_block",
                 "read_block_range", "finalize", "delete"):
        points.append((FileStream, name, "stream", name, CALL))
    points.append((FileStream, "iter_blocks", "stream", "iter_blocks", ITER))
    for name in ("append_blocks", "finalize"):
        points.append((StripedStream, name, "stream", name, CALL))
    for name in ("get", "get_many", "put_new", "flush_all", "reclaim"):
        points.append((BufferPool, name, "pool", name, CALL))
    for name in ("read_block", "read_batch", "flush"):
        points.append((Runtime, name, "runtime", f"runtime.{name}", CALL))
    for name in ("read_batch", "write_batch", "drain"):
        points.append((IOScheduler, name, "runtime", f"scheduler.{name}",
                       CALL))
    for name in ("put", "put_batch", "flush", "ensure_flushed"):
        points.append((WriteBehind, name, "runtime", f"writer.{name}", CALL))
    points += [
        (stream, "read_ahead", "runtime", "read_ahead", ITER),
        (exvector, "read_ahead", "runtime", "read_ahead", ITER),
        (prefetch.ForecastingPrefetcher, "block_reader", "runtime",
         "forecast.block_reader", ITER),
    ]
    for name in ("read", "write", "parallel_read", "parallel_write",
                 "allocate", "free"):
        points.append((DiskArray, name, "device", name, CALL))
    points += [
        (filedisk.FileDiskArray, "free", "device", "free", CALL),
        (filedisk, "encode_block", "device", "codec", CALL),
        (filedisk, "decode_block", "device", "codec", CALL),
        (service.QueryService, "run", "service", "run", CALL),
    ]
    return points


def _lookup(owner, attribute):
    if isinstance(owner, dict):
        return owner[attribute]
    # vars(), not getattr(): the attribute must be defined on the owner
    # itself, so a wrapper never lands on a name no caller looks up.
    return vars(owner)[attribute]


def _assign(owner, attribute, value):
    if isinstance(owner, dict):
        owner[attribute] = value
    else:
        setattr(owner, attribute, value)


class _TracedIter:
    """An iterator proxy whose every ``next()`` is one span."""

    __slots__ = ("_it", "_tracer", "_key")

    def __init__(self, it, tracer, key):
        self._it = it
        self._tracer = tracer
        self._key = key

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.stack:
            return next(self._it)
        tracer.begin(self._key)
        try:
            return next(self._it)
        finally:
            tracer.end()

    def close(self):
        close = getattr(self._it, "close", None)
        if close is not None:
            close()


class _TracedGen:
    """A generator proxy whose every ``send``/``throw`` is one span — how
    the service's job generators are timed."""

    __slots__ = ("_gen", "_tracer", "_key")

    def __init__(self, gen, tracer, key):
        self._gen = gen
        self._tracer = tracer
        self._key = key

    def _span(self, fn, *args):
        tracer = self._tracer
        tracer.begin(self._key)
        try:
            return fn(*args)
        finally:
            tracer.end()

    def send(self, value):
        return self._span(self._gen.send, value)

    def throw(self, *args):
        return self._span(self._gen.throw, *args)


class Tracer:
    """Span stack, online per-layer aggregation, and sampled raw spans.

    Args:
        root_every: keep the raw spans of every ``root_every``-th root.
        child_every: when non-zero, keep every root span but only every
            ``child_every``-th direct child subtree (a long root such as
            a service run holds many independent operations).
    """

    def __init__(self, root_every=1, child_every=0):
        self.root_every = root_every
        self.child_every = child_every
        self.sampling = True
        self.iteration = 0
        # Open spans: [(layer, name), start, child time, kept index].
        self.stack = []
        self.self_ns = defaultdict(int)   # (layer, name) -> self time
        self.calls = defaultdict(int)     # (layer, name) -> spans closed
        self.made_by = defaultdict(int)   # caller layer -> spans it opened
        self.root_ns = 0
        # Kept raw spans: [(layer, name), start, end, parent, iteration].
        self.spans = []
        self._roots = 0
        self._children = 0
        self._installed = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin(self, key):
        """Open a span; ``key`` is its ``(layer, name)``."""
        stack = self.stack
        kept = -1
        if stack:
            parent = stack[-1]
            self.made_by[parent[0][0]] += 1
            if parent[3] >= 0:
                if self.child_every and len(stack) == 1:
                    if self._children % self.child_every == 0:
                        kept = len(self.spans)
                    self._children += 1
                else:
                    kept = len(self.spans)
        else:
            if self.sampling and self._roots % self.root_every == 0:
                kept = len(self.spans)
            self._roots += 1
        start = perf_counter_ns()
        if kept >= 0:
            self.spans.append([key, start, start,
                               stack[-1][3] if stack else -1,
                               self.iteration])
        stack.append([key, start, 0, kept])

    def end(self):
        now = perf_counter_ns()
        key, start, child, kept = self.stack.pop()
        duration = now - start
        self.self_ns[key] += duration - child
        self.calls[key] += 1
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.root_ns += duration
        if kept >= 0:
            self.spans[kept][2] = now

    def call(self, layer, name, fn, *args, **kwargs):
        """Run ``fn`` as one span (a root span when none is open)."""
        self.begin((layer, name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def generator(self, gen, layer, name):
        """Wrap a job generator so each ``send``/``throw`` is a span."""
        return _TracedGen(gen, self, (layer, name))

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn, layer, name, kind):
        stack = self.stack
        begin, end = self.begin, self.end
        key = (layer, name)
        if kind == ITER:
            @functools.wraps(fn)
            def traced_iter(*args, **kwargs):
                return _TracedIter(fn(*args, **kwargs), self, key)
            return traced_iter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            begin(key)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
        return traced

    def install(self):
        """Wrap every entry point (idempotent until :meth:`uninstall`)."""
        if self._installed:
            return
        for owner, attribute, layer, name, kind in entry_points():
            original = _lookup(owner, attribute)
            _assign(owner, attribute, self._wrap(original, layer, name, kind))
            self._installed.append((owner, attribute, original))

    def uninstall(self):
        """Restore every wrapped entry point."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            _assign(owner, attribute, original)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def layer_totals(self, table):
        """Sum a ``(layer, name)``-keyed table per layer."""
        totals = dict.fromkeys(LAYERS, 0)
        for (layer, _), value in table.items():
            totals[layer] = totals.get(layer, 0) + value
        return totals

    def name_total(self, layer, name):
        return self.self_ns.get((layer, name), 0)

    def corrected_self_ns(self, per_call_ns, inside_ns):
        """Self time per layer minus the calibrated wrapper cost: a span
        carries ``inside_ns`` of its own wrapper, its caller the rest."""
        raw = self.layer_totals(self.self_ns)
        calls = self.layer_totals(self.calls)
        return {
            layer: raw[layer] - calls[layer] * inside_ns
            - self.made_by.get(layer, 0) * (per_call_ns - inside_ns)
            for layer in raw
        }

    def chrome(self):
        """The kept spans as a Chrome trace-event (Perfetto) document."""
        origin = min((span[1] for span in self.spans), default=0)
        events = []
        for (layer, name), start, end, parent, iteration in self.spans:
            events.append({
                "name": name, "cat": layer, "ph": "X",
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                "pid": 1, "tid": 1,
                "args": {"layer": layer, "parent": parent,
                         "iteration": iteration},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome(), handle)


def _noop():
    return None


def calibrate(calls=30_000, repeats=5):
    """Cost of one wrapped call on this machine, in ns: ``(per_call,
    inside)`` — the whole extra cost of a wrapped empty call, and the
    part of it that falls inside the span it records.  Best of
    ``repeats``."""
    best = None
    for _ in range(repeats):
        tracer = Tracer()
        tracer.sampling = False
        wrapped = tracer._wrap(_noop, "calibration", "noop", CALL)
        start = perf_counter_ns()
        for _ in range(calls):
            _noop()
        bare = perf_counter_ns() - start
        tracer.begin(("calibration", "root"))
        start = perf_counter_ns()
        for _ in range(calls):
            wrapped()
        traced = perf_counter_ns() - start
        tracer.end()
        per_call = (traced - bare) / calls
        inside = max(0.0, tracer.self_ns[("calibration", "noop")] / calls
                     - bare / calls)
        if best is None or per_call < best[0]:
            best = (per_call, min(inside, per_call))
    return best
