"""Outside-in tracing: timing wrappers around the public functions of each layer.

The traced run installs a wrapper around every function in :data:`TARGETS`
*before* it builds any simulator, because ``run_fast`` binds
``hierarchy.prefetch_fill`` and friends to locals when a run starts.
Nothing inside ``src/`` is edited: methods are replaced on their class,
and module-level functions are replaced in every loaded ``repro`` module
that imported them (``repro.experiments.parallel`` re-exports ``execute``,
for instance).  :meth:`Tracer.uninstall` puts every original back.

Each wrapped call measures its duration and its *self* time (duration minus
the time its wrapped children took on the same thread).  Calls are
aggregated per function in per-thread tables, so counting never races.
Layer-boundary functions that run a handful of times per operation
(``SPANNED``) also leave a span — ``(id, name, start, end, parent, thread,
request)`` — in memory; :meth:`Tracer.write_spans` writes them out at the
end.  The high-frequency leaf layers (caches, DRAM, prefetchers) run
millions of times per pass, so they are aggregated only.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from pathlib import Path
from time import perf_counter

#: (layer, qualified name) of every wrapped function.  The layer is the
#: module path below ``repro``.
TARGETS = (
    ("traces.format", "load_trace"),
    ("traces.format", "ChunkedTrace.access_columns"),
    ("traces.format", "ChunkedTrace.window_columns"),
    ("sim.kernel", "run_fast"),
    ("sim.kernel", "run_fast_window"),
    ("sim.shard", "plan_shards"),
    ("sim.shard", "merge_shard_outcomes"),
    ("sim.multiprogram", "MultiProgramSimulator.run"),
    ("memory.hierarchy", "MemoryHierarchy.demand_after_l1_miss"),
    ("memory.hierarchy", "MemoryHierarchy.prefetch_fill"),
    ("memory.cache", "SetAssociativeCache.fill"),
    ("memory.cache", "SetAssociativeCache.access"),
    ("memory.dram", "DramModel.access"),
    ("prefetch.stride", "StridePrefetcher.observe_into"),
    ("core.triangel", "TriangelPrefetcher.observe_into"),
    ("triage.triage", "TriagePrefetcher.observe_into"),
    ("experiments.jobs", "execute"),
    ("experiments.store", "ResultStore.get"),
    ("experiments.store", "ResultStore.put"),
    ("service.scheduler", "Scheduler.submit"),
    ("service.server", "_Handler.do_GET"),
    ("service.server", "_Handler.do_POST"),
    ("client", "ServiceClient.submit"),
    ("client", "ServiceClient.status"),
    ("client", "ServiceClient.result"),
    ("client", "ServiceClient.wait"),
)

#: Functions that also record a span per call (see the module docstring).
SPANNED = frozenset(
    {
        "traces.format.load_trace",
        "sim.kernel.run_fast",
        "sim.kernel.run_fast_window",
        "sim.shard.plan_shards",
        "sim.shard.merge_shard_outcomes",
        "sim.multiprogram.MultiProgramSimulator.run",
        "experiments.jobs.execute",
        "experiments.store.ResultStore.get",
        "experiments.store.ResultStore.put",
        "service.scheduler.Scheduler.submit",
        "service.server._Handler.do_GET",
        "service.server._Handler.do_POST",
        "client.ServiceClient.submit",
        "client.ServiceClient.status",
        "client.ServiceClient.result",
        "client.ServiceClient.wait",
    }
)

# Slots of a per-thread aggregate: calls, total seconds, self seconds, and
# a function-specific count (see _COUNTERS).
CALLS, TOTAL, SELF, COUNT = range(4)


def _decisions(args, result):
    # observe_into(self, pc, line, result, cycles, buffer): the buffer holds
    # the decisions this call emitted.
    return args[5].count


def _installed(args, result):
    return 0 if result.already_present else 1


#: Per-function counters read from a call's arguments or result, kept in
#: the COUNT slot, and the name of the per-call ratio they are reported as.
_COUNTERS = {
    "memory.hierarchy.MemoryHierarchy.prefetch_fill": (_installed, "installed_ratio"),
    "prefetch.stride.StridePrefetcher.observe_into": (_decisions, "decisions_per_call"),
    "core.triangel.TriangelPrefetcher.observe_into": (_decisions, "decisions_per_call"),
    "triage.triage.TriagePrefetcher.observe_into": (_decisions, "decisions_per_call"),
}
COUNTED = {name: ratio for name, (_, ratio) in _COUNTERS.items()}

#: Server handlers aggregate per route; the route is the server's own
#: bounded label, mapped onto metric-safe names.
_ROUTES = {
    ("POST", "/jobs"): "post_jobs",
    ("GET", "/jobs/{id}"): "get_job",
    ("GET", "/jobs/{id}/result"): "get_result",
}


class Tracer:
    """Installs the wrappers, aggregates calls, and keeps coarse spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._spans: list[tuple] = []
        self._next_span = 0
        self._restore: list[tuple] = []
        self._submitted: dict = {}
        self.queue_waits: list[float] = []
        #: Identifier of the operation in flight (set by the load generator)
        #: so the spans of one request share it across threads.
        self.request = None

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for layer, qualname in TARGETS:
            module = importlib.import_module(f"repro.{layer}")
            owner_name, _, attr = qualname.rpartition(".")
            name = f"{layer}.{qualname}"
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original))
                self._restore.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                if vars(loaded).get(attr) is original:
                    setattr(loaded, attr, wrapper)
                    self._restore.append((loaded, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- the wrapper --------------------------------------------------------
    def _thread_state(self) -> tuple:
        """This thread's (frame stack, aggregate table, span stack)."""

        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], {}, [])
            with self._lock:
                self._tables.append(state[1])
            return state

    def _wrap(self, name: str, fn):
        tracer = self
        counter = _COUNTERS.get(name, (None,))[0]
        spanned = name in SPANNED
        on_submit = name == "service.scheduler.Scheduler.submit"
        on_execute = name == "experiments.jobs.execute"
        route_label = None
        if name.startswith("service.server."):
            from repro.service.server import _route_label as route_label

            method = name.rsplit("_", 1)[-1]  # the handler's HTTP method
        clock = perf_counter

        def wrapper(*args, **kwargs):
            frames, table, span_stack = tracer._thread_state()
            key = name
            if route_label is not None:
                route = _ROUTES.get((method, route_label(args[0].path)), "other")
                key = f"{name}.{route}"
            if on_execute:
                tracer._queue_wait(args[0], clock())
            if spanned:
                with tracer._lock:
                    span_id = tracer._next_span
                    tracer._next_span += 1
                parent = span_stack[-1] if span_stack else None
                span_stack.append(span_id)
            frames.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                child = frames.pop()
                if frames:
                    frames[-1] += duration
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = [0, 0.0, 0.0, 0]
                entry[CALLS] += 1
                entry[TOTAL] += duration
                entry[SELF] += duration - child
                if spanned:
                    span_stack.pop()
                    with tracer._lock:
                        tracer._spans.append(
                            (span_id, key, start, end, parent,
                             threading.current_thread().name, tracer.request)
                        )
            if counter is not None:
                entry[COUNT] += counter(args, result)
            if on_submit:
                tracer._submitted_at(args[1], start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- scheduler queue wait (submit -> execute start) ---------------------
    def _submitted_at(self, specs, when: float) -> None:
        with self._lock:
            for spec in specs:
                self._submitted.setdefault(spec, when)

    def _queue_wait(self, spec, when: float) -> None:
        with self._lock:
            submitted = self._submitted.pop(spec, None)
            if submitted is not None:
                self.queue_waits.append(when - submitted)

    # -- results --------------------------------------------------------------
    def totals(self) -> dict[str, list]:
        """Every function's aggregate, summed over threads."""

        merged: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, entry in list(table.items()):
                into = merged.setdefault(key, [0, 0.0, 0.0, 0])
                for slot in range(4):
                    into[slot] += entry[slot]
        return merged

    def span_requests(self, name: str) -> list:
        """The request tag of every recorded span of function ``name``."""

        with self._lock:
            return [span[6] for span in self._spans if span[1] == name]

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans (JSON lines) and return their number."""

        with self._lock:
            spans = sorted(self._spans)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, thread, request in spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "thread": thread,
                            "request": request,
                        }
                    )
                    + "\n"
                )
        return len(spans)


def metric_stems() -> list[tuple[str, str]]:
    """(aggregate key, metric stem) of every traced function.

    A stem is the layer plus the function's own name; the server handlers
    expand to one stem per route.
    """

    stems = []
    for layer, qualname in TARGETS:
        name = f"{layer}.{qualname}"
        if layer == "service.server":
            method = name.rsplit("_", 1)[-1]
            stems += [
                (f"{name}.{route}", f"{layer}.{route}")
                for (route_method, _), route in _ROUTES.items()
                if route_method == method
            ]
        else:
            stems.append((name, f"{layer}.{qualname.rsplit('.', 1)[-1]}"))
    return stems
