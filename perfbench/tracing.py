"""Span tracing from outside the program, self-time attribution, export.

A traced run records two kinds of span, both from this file:

* **dispatch spans** — the kernel's hand-off of each event to the
  callback or generator it resumes.  ``install()`` swaps
  ``Environment.run``/``run_below`` for mirrors of the kernel loop
  that open a span around every callback; the span is named after the
  layer (``repro.<pkg>.<module>``, see :func:`layer_of`) that owns the
  resumed code — for a process, the innermost generator of its
  ``yield from`` chain, so KubeProxy's watch-driven reconciles land
  under ``k8s``, not under the kernel;
* **entry-point spans** — each public entry point in
  :data:`ENTRY_POINTS`, named ``<layer>:<Class>.<method>``.  Generator
  entry points are timed per resume, not per call.

Spans stay in memory (compact arrays) until the run ends.  A layer's
self time is its spans' time minus the part covered by child spans;
the kernel's own time is whatever no root span covers.
"""

from __future__ import annotations

import array
import gc
import heapq
import importlib
import json
import time
import types
import typing as _t

#: (module, class, methods, layer) — the layer boundaries the traced
#: run wraps.  Call counts are read at the same boundaries.
ENTRY_POINTS: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("repro.net.openflow.table", "FlowTable",
     ("lookup", "install", "sweep_and_deadline", "remove", "remove_matching"),
     "net.openflow"),
    ("repro.net.openflow.switch", "OpenFlowSwitch",
     ("receive", "_pipeline", "_punt", "handle_controller_message"),
     "net.openflow"),
    # The fast path replays a route-cache recording instead of walking
    # the switch pipeline; its per-hop replay is the cache's work.
    ("repro.net.openflow.switch", "OpenFlowSwitch", ("_fast_hop",),
     "net.route_cache"),
    ("repro.net.route_cache", "Recording", ("finalize",), "net.route_cache"),
    ("repro.net.route_cache", "Route", ("invalidate",), "net.route_cache"),
    ("repro.net.link", "LinkEndpoint", ("transmit",), "net.link"),
    ("repro.net.host", "Host", ("connect", "http_request", "receive"), "net.host"),
    ("repro.core.controller", "EdgeController", ("on_packet_in",), "core"),
    ("repro.core.dispatcher", "Dispatcher",
     ("resolve", "ensure_deployed", "scale_down_idle"), "core"),
    ("repro.cluster.plan", "PhasedCluster", ("pull", "create", "scale_up"), "cluster"),
    ("repro.cluster.base", "EdgeCluster", ("wait_ready",), "cluster"),
    ("repro.k8s.apiserver", "APIServer",
     ("create", "get", "try_get", "list", "list_nowait", "update", "delete", "watch"),
     "k8s"),
    ("repro.k8s.kubeproxy", "KubeProxy", ("_reconcile_all",), "k8s"),
    ("repro.containers.containerd", "Containerd", ("pull", "create", "start"),
     "containers"),
    ("repro.core.federation.state", "SharedStateHub", ("deliver",), "core.federation"),
    ("repro.core.migration", "MigrationManager", ("request_migration",),
     "core.migration"),
    ("repro.ops.collector", "FlowStatsCollector", ("collect",), "ops"),
    ("repro.sim.parallel.partition", "Partition", ("inject", "drain"), "sim.parallel"),
    ("repro.sim.parallel.coordinator", "_RoundEngine",
     ("begin_round", "grant", "collect", "end_round"), "sim.parallel"),
    ("repro.sim.parallel.testbed", "SitePartitionModel", ("setup", "result"),
     "sim.parallel"),
    ("repro.sim.parallel.testbed", "BackbonePartitionModel", ("setup", "result"),
     "sim.parallel"),
    ("repro.workload.timecurl", "TimecurlClient", ("fetch",), "workload"),
)

#: Entry points whose result also carries a count worth keeping:
#: span name -> items in the result (here: flow entries expired).
RESULT_TALLIES: dict[str, _t.Callable[[_t.Any], int]] = {
    "net.openflow:FlowTable.sweep_and_deadline": lambda result: len(result[0]),
}

#: Module prefix -> layer, longest prefix first.
_LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.sim.parallel", "sim.parallel"),
    ("repro.sim", "sim"),
    ("repro.net.openflow", "net.openflow"),
    ("repro.net.route_cache", "net.route_cache"),
    ("repro.net.host", "net.host"),
    ("repro.net.link", "net.link"),
    ("repro.core.federation", "core.federation"),
    ("repro.core.migration", "core.migration"),
    ("repro.metrics", "workload"),
)

#: Layer name for code outside the program (stdlib, this benchmark).
UNATTRIBUTED = "unattributed"
#: Layer that owns the kernel loop's own time.
KERNEL = "sim"


def layer_of(module: str | None) -> str:
    """The layer a module belongs to: ``repro.net.host`` -> ``net.host``,
    ``repro.k8s.kubelet`` -> ``k8s``; non-program code is unattributed."""
    if not module or not (module == "repro" or module.startswith("repro.")):
        return UNATTRIBUTED
    for prefix, layer in _LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else UNATTRIBUTED


def span_layer(name: str) -> str:
    return name.partition(":")[0]


class SpanLog:
    """Spans in open order: name id, start, end, parent index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        #: Per name: items counted in results (see RESULT_TALLIES).
        self.tallies: list[int] = []
        self.name_ids = array.array("l")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("l")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.tallies.append(0)
        return nid

    def open(self, nid: int, _now=time.perf_counter) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self._stack.append(idx)
        self.ends.append(0.0)
        self.starts.append(_now())
        return idx

    def close(self, idx: int, _now=time.perf_counter) -> None:
        self.ends[idx] = _now()
        self._stack.pop()

    def reset(self) -> None:
        """Drop every recorded span and call count (names survive)."""
        if len(self._stack) != 1:
            raise RuntimeError("reset() with spans still open")
        for arr in (self.name_ids, self.starts, self.ends, self.parents):
            del arr[:]
        self.calls[:] = [0] * len(self.names)
        self.tallies[:] = [0] * len(self.names)

    def __len__(self) -> int:
        return len(self.starts)

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def tally(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.tallies[nid] if nid is not None else 0


# -- attribution --------------------------------------------------------------


def self_times(
    starts: _t.Sequence[float],
    ends: _t.Sequence[float],
    parents: _t.Sequence[int],
) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Spans must be in start order (a parent before its children); child
    intervals are clipped to the parent and overlapping children count
    once.
    """
    n = len(starts)
    covered = array.array("d", bytes(8 * n))
    reach = array.array("d", [float("-inf")]) * n
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p], starts[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        if ends[i] > reach[p]:
            reach[p] = ends[i]
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def layer_self_times(log: SpanLog, wall_s: float) -> dict[str, float]:
    """Self seconds per layer; the kernel layer also gets the part of
    ``wall_s`` no root span covers."""
    own = self_times(log.starts, log.ends, log.parents)
    by_layer: dict[str, float] = {}
    layer_ids = [span_layer(name) for name in log.names]
    roots = 0.0
    for i, nid in enumerate(log.name_ids):
        layer = layer_ids[nid]
        by_layer[layer] = by_layer.get(layer, 0.0) + own[i]
        if log.parents[i] < 0:
            roots += log.ends[i] - log.starts[i]
    by_layer[KERNEL] = by_layer.get(KERNEL, 0.0) + max(wall_s - roots, 0.0)
    return by_layer


# -- the traced kernel loop ----------------------------------------------------


class Tracer:
    """Installs dispatch and entry-point spans; ``uninstall()`` restores
    the program exactly."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self._saved: list[tuple[type, str, _t.Any]] = []
        self._cache: dict[_t.Any, int] = {}

    # -- naming --------------------------------------------------------------

    def _layer_nid(self, module: str | None) -> int:
        return self.log.name_id(layer_of(module))

    def dispatch_nid(self, fn: _t.Any) -> int:
        """Span name id for the code a kernel dispatch of ``fn`` runs."""
        cache = self._cache
        func = getattr(fn, "__func__", fn)
        if func is self._resume:
            gen = fn.__self__._generator
            inner = getattr(gen, "gi_yieldfrom", None)
            while inner is not None:
                gen = inner
                inner = getattr(gen, "gi_yieldfrom", None)
            key = getattr(gen, "gi_code", None) or type(gen)
            nid = cache.get(key)
            if nid is None:
                frame = getattr(gen, "gi_frame", None)
                module = (
                    frame.f_globals.get("__name__") if frame is not None
                    else type(gen).__module__
                )
                nid = cache[key] = self._layer_nid(module)
            return nid
        nid = cache.get(func)
        if nid is not None:
            return nid
        func = getattr(func, "func", func)  # functools.partial
        layer = getattr(func, "__layer__", None)
        if layer is not None:  # a wrapped entry point
            nid = cache[func] = self.log.name_id(layer)
            return nid
        # Closures are fresh objects per call: key them by their code.
        code = getattr(func, "__code__", None)
        key = code if code is not None else type(func)
        nid = cache.get(key)
        if nid is None:
            nid = cache[key] = self._layer_nid(getattr(func, "__module__", None))
        if code is not None and func.__closure__ is None:
            cache[func] = nid
        return nid

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> "Tracer":
        from repro.sim import environment
        from repro.sim.process import Process

        self._resume = Process._resume
        env_cls = environment.Environment
        self._patch(env_cls, "run", _make_traced_run(self, environment))
        self._patch(env_cls, "run_below", _make_traced_run_below(self, environment))
        for module_name, class_name, methods, layer in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                original = cls.__dict__[method]
                name = f"{layer}:{class_name}.{method}"
                wrapper = _wrap(
                    original, self.log.name_id(name), layer, self.log,
                    RESULT_TALLIES.get(name),
                )
                self._patch(cls, method, wrapper)
        return self

    def _patch(self, cls: type, name: str, value: _t.Any) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    def uninstall(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)


class TracedGenerator:
    """Delegates to a program generator, one span per resume.

    Exposes ``gi_yieldfrom`` so dispatch naming walks through it to the
    program generator underneath.
    """

    __slots__ = ("_gen", "_nid", "_log", "__name__")

    def __init__(self, gen: _t.Generator, nid: int, log: SpanLog) -> None:
        self._gen = gen
        self._nid = nid
        self._log = log
        self.__name__ = getattr(gen, "__name__", "traced")

    @property
    def gi_yieldfrom(self) -> _t.Any:
        return self._gen

    def __iter__(self) -> "TracedGenerator":
        return self

    def __next__(self) -> _t.Any:
        return self.send(None)

    def send(self, value: _t.Any) -> _t.Any:
        log = self._log
        idx = log.open(self._nid)
        try:
            return self._gen.send(value)
        finally:
            log.close(idx)

    def throw(self, *args: _t.Any) -> _t.Any:
        log = self._log
        idx = log.open(self._nid)
        try:
            return self._gen.throw(*args)
        finally:
            log.close(idx)

    def close(self) -> None:
        self._gen.close()


def _wrap(
    original: _t.Any,
    nid: int,
    layer: str,
    log: SpanLog,
    tally: _t.Callable[[_t.Any], int] | None = None,
) -> _t.Any:
    """A span-recording stand-in for one entry point."""
    open_, close_, calls, tallies = log.open, log.close, log.calls, log.tallies
    is_gen = isinstance(original, types.FunctionType) and (
        original.__code__.co_flags & 0x20  # CO_GENERATOR
    )
    if is_gen:
        def wrapper(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            calls[nid] += 1
            return TracedGenerator(original(*args, **kwargs), nid, log)
    else:
        def wrapper(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            calls[nid] += 1
            idx = open_(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                close_(idx)
            if tally is not None:
                tallies[nid] += tally(result)
            if type(result) is types.GeneratorType:
                return TracedGenerator(result, nid, log)
            return result
    wrapper.__module__ = original.__module__
    wrapper.__qualname__ = original.__qualname__
    wrapper.__name__ = original.__name__
    wrapper.__layer__ = layer  # type: ignore[attr-defined]
    return wrapper


def _make_traced_run(tracer: Tracer, environment: types.ModuleType) -> _t.Any:
    """``Environment.run`` with each dispatch in a span.

    Same loop, same heap discipline, same counters and gc thresholds as
    the kernel's ``run`` — only the spans are added.
    """
    Event = environment.Event
    EmptySchedule = environment.EmptySchedule
    SimulationError = environment.SimulationError
    StopRun = environment._StopRun
    log = tracer.log
    open_, close_, name_of = log.open, log.close, tracer.dispatch_nid

    def run(self: _t.Any, until: _t.Any = None) -> _t.Any:
        stop = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:
                    return stop.value
                stop.callbacks.append(self._stop_callback)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until={at} lies in the past (now={self._now})"
                    )
                stop = Event(self)
                stop._ok = True
                stop._value = None
                heapq.heappush(self._queue, (at, -1, next(self._seq), stop))
                stop.callbacks.append(self._stop_callback)

        queue = self._queue
        pop = heapq.heappop
        events = self.events_processed
        gc_thresholds = gc.get_threshold()
        gc.set_threshold(1_000_000, *gc_thresholds[1:])
        try:
            while True:
                try:
                    item = pop(queue)
                except IndexError:
                    raise EmptySchedule() from None
                self._now = item[0]
                events += 1

                if len(item) == 5:
                    idx = open_(name_of(item[3]))
                    try:
                        item[3](*item[4])
                    except (StopRun, SimulationError):
                        raise
                    except Exception as exc:
                        raise SimulationError(
                            f"scheduled callback {item[3]!r} raised {exc!r}"
                        ) from exc
                    finally:
                        close_(idx)
                    continue

                event = item[3]
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    idx = open_(name_of(callback))
                    try:
                        callback(event)
                    finally:
                        close_(idx)

                if not event._ok and not event._defused:
                    raise event._value
        except StopRun as marker:
            return marker.args[0]
        except EmptySchedule:
            if stop is not None and not stop.processed:
                if isinstance(until, Event):
                    raise SimulationError(
                        "run(until=event): schedule ran dry before the event fired"
                    ) from None
                self._now = float(until)
            return None
        finally:
            self.events_processed = events
            gc.set_threshold(*gc_thresholds)

    return run


def _make_traced_run_below(tracer: Tracer, environment: types.ModuleType) -> _t.Any:
    """``Environment.run_below`` with each dispatch in a span."""
    SimulationError = environment.SimulationError
    log = tracer.log
    open_, close_, name_of = log.open, log.close, tracer.dispatch_nid

    def run_below(self: _t.Any, limit: float) -> None:
        queue = self._queue
        pop = heapq.heappop
        events = self.events_processed
        try:
            while queue and queue[0][0] < limit:
                item = pop(queue)
                self._now = item[0]
                events += 1

                if len(item) == 5:
                    idx = open_(name_of(item[3]))
                    try:
                        item[3](*item[4])
                    except SimulationError:
                        raise
                    except Exception as exc:
                        raise SimulationError(
                            f"scheduled callback {item[3]!r} raised {exc!r}"
                        ) from exc
                    finally:
                        close_(idx)
                    continue

                event = item[3]
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    idx = open_(name_of(callback))
                    try:
                        callback(event)
                    finally:
                        close_(idx)

                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self.events_processed = events

    return run_below


# -- export ----------------------------------------------------------------------


def write_chrome_trace(
    log: SpanLog, path: _t.Any, origin: float, limit: int | None = None
) -> int:
    """Write spans as Chrome trace-event JSON (opens in Perfetto).

    Complete (``"X"``) events in microseconds from ``origin``, one
    track; nesting follows from the intervals.  ``limit`` caps the
    number of spans written (the first ones in start order).  Returns
    the number written.
    """
    n = len(log) if limit is None else min(len(log), limit)
    names = log.names
    with open(path, "w", encoding="utf-8") as out:
        out.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
        for i in range(n):
            name = names[log.name_ids[i]]
            start = log.starts[i]
            record = {
                "name": name,
                "cat": span_layer(name),
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((log.ends[i] - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            out.write(json.dumps(record))
            out.write(",\n" if i + 1 < n else "\n")
        out.write("]}\n")
    return n
