"""The benchmark's three workloads, driven from outside the ``repro`` package.

Every workload runs in this one process as a closed loop with one client:
the next operation starts only when the previous one has returned.  Each
follows the same shape:

1. **set-up**, repeated (the median is ``setup_s``): build the inputs from
   the seed;
2. **gate**, once: check the program against its own references and fix
   the expected outputs (see :class:`Tally` for how failures count);
3. **passes** of timed operations for ``--seconds``: the cold passes, where
   there are some, then at least one more.  With ``--trace 1`` the budget is
   split: half untraced, half under :class:`tracing.Tracer`, and the ratio
   of the two pass times (see :func:`pass_time`) is the tracing overhead.

An *operation* is the workload's unit of client-visible work: one workload
under the three configurations, or the 2-core spec (miss-heavy); one
repetition of the two hot replays (hot-replay); one submit → wait → result
request (service-mixed).  A cold operation is one the process performs for
the first time — miss-heavy's first pass, run just before the timed passes;
hot-replay's first repetition on each recorded file; service-mixed's
requests whose results are not yet stored — and a warm one repeats work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import random
import shutil
import statistics
import tempfile
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing

#: Workloads whose miss-heavy specs run, at their default lengths.
MISS_WORKLOADS = ("mcf", "xalan", "graph500_s16")
#: Configurations every workload compares (baseline first).
CONFIGS = ("baseline", "triage-deg4", "triangel")
#: The multiprogrammed spec: two cores sharing L3/DRAM.
MULTIPROGRAM = ("mcf", "xalan")
#: SPEC-like workloads of the service mix (graph500 cannot take a trace
#: length override: its generator's parameter is ``max_accesses``).
SERVICE_WORKLOADS = ("xalan", "omnet", "mcf", "gcc_166", "astar", "soplex_3500", "sphinx3")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload (recorded in the manifest)."""

    #: Set-up repetitions: miss-heavy's set-up is short, so it repeats more
    #: to steady its median (service-mixed sets up before every pass).
    miss_setup_repeats: int = 7
    hot_setup_repeats: int = 3
    #: Per-workload trace length of the reference-kernel parity gate.
    parity_length: int = 4000
    hot_nodes: int = 48
    hot_repeats: int = 8000
    hot_shards: int = 4
    service_warm_length: int = 3000
    service_cold_lengths: tuple = (1500, 1600, 1700, 1800)
    service_warm_requests: int = 60
    #: Default generator lengths unless set (the self-test shrinks them).
    miss_length: int | None = None
    #: Client poll interval bounds: far below a cold request's duration.
    poll_s: float = 0.002
    max_poll_s: float = 0.01


FULL = Sizes()


class Tally:
    """Operations attempted and failed, with the first few failure reasons.

    Every exception, HTTP error, and mismatch against an expected output
    counts as one failed operation; nothing is silently retried.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(reason)

    def error(self, what: str) -> None:
        self.attempted += 1
        self._fail(f"{what}: {traceback.format_exc(limit=3)}")

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


@dataclass
class Measurement:
    """Everything one workload run measured."""

    tally: Tally = field(default_factory=Tally)
    setup_s: list = field(default_factory=list)
    #: Operation latencies, one list per pass.
    cold_ms: list = field(default_factory=list)
    warm_ms: list = field(default_factory=list)
    pass_walls: list = field(default_factory=list)
    pass_ops: int = 0
    pass_accesses: int = 0
    sim: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    tracer: tracing.Tracer | None = None

    def end_to_end(self) -> dict:
        wall = pass_time(self.pass_walls)
        return {
            "wall_s": wall,
            "setup_s": statistics.median(self.setup_s),
            "accesses_per_s": self.pass_accesses / wall,
            "latency_warm_p50_ms": latency(self.warm_ms, 50),
            "latency_warm_p95_ms": latency(self.warm_ms, 95),
            "latency_cold_p50_ms": latency(self.cold_ms, 50),
            "requests_per_s": self.pass_ops / wall,
            **self.sim,
        }


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""

    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def trimmed_mean(values, cut: float) -> float:
    """The mean of ``values`` without their lowest and highest ``cut`` share.

    On a shared host a CPU runs at one of two speeds about 1.7× apart,
    switching every second or so, and now and then stalls the process for a
    few milliseconds.  A median over repeats jumps between the two speeds
    when about half the repeats are slow; a trimmed mean moves in proportion
    to the slow share, and the cut drops the stalls.
    """

    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k : len(values) - k])


def pass_time(walls) -> float:
    """A run's pass wall: the mean over its passes, extreme tenths cut."""

    return trimmed_mean(walls, 0.1)


def latency(passes, q: int) -> float:
    """The ``q``-th percentile over operations of each one's latency.

    ``passes`` holds one list of operation latencies per pass.  Every pass
    runs the same operations in the same order, so the k-th entries are
    repeats of one operation; its latency is their interquartile mean.
    Host stalls hit 1–13% of service-mixed's warm requests, a share that
    drifts from run to run, so a percentile over all the samples measured
    the host's stall rate more than the program.
    """

    return percentile([trimmed_mean(repeats, 0.25) for repeats in zip(*passes)], q)


def geomean(values) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def sim_metrics(results: dict, tally: Tally) -> dict:
    """The five simulated metrics, geometric means over workloads.

    ``results`` maps ``(workload, configuration)`` to statistics.  The
    ratios use the program's own definitions (``SimulationStats``), which
    read a zero base as 1.0 — no traffic, no prefetch, nothing lost.
    """

    workloads = sorted({workload for workload, _ in results})
    metrics = {}
    for config, suffix in (("triangel", "triangel"), ("triage-deg4", "triage_deg4")):
        speedups, ratios = [], []
        for workload in workloads:
            base, mine = results[workload, "baseline"], results[workload, config]
            speedups.append(mine.speedup_relative_to(base))
            ratios.append(mine.dram_traffic_relative_to(base))
        metrics[f"sim_speedup_{suffix}"] = geomean(speedups)
        metrics[f"sim_dram_ratio_{suffix}"] = geomean(ratios)
    metrics["sim_accuracy_triangel"] = geomean(
        [results[workload, "triangel"].accuracy for workload in workloads]
    )
    for name, value in metrics.items():
        tally.check(math.isfinite(value) and value > 0, f"{name} is {value}")
    return metrics


def payload(result) -> dict:
    """A result's exact, comparable form (stats or multiprogram payload)."""

    if hasattr(result, "as_payload"):
        return result.as_payload()
    return dataclasses.asdict(result)


def timed_passes(do_pass, seconds: float) -> list[float]:
    """Run passes while another one fits in ``seconds`` (at least one)."""

    walls: list[float] = []
    start = perf_counter()
    while not walls or perf_counter() - start + statistics.median(walls) <= seconds:
        walls.append(do_pass())
    return walls


def measure(m: Measurement, do_pass, seconds: float, traced: bool, layer_counts):
    """The timed passes (see the module docstring), untraced or split.

    Cold passes already in ``m.pass_walls`` count as passes and toward
    the budget.  ``layer_counts()`` returns the workload's own
    per-layer counters, accumulated since the last call.
    """

    budget = (seconds / 2 if traced else seconds) - sum(m.pass_walls)
    m.pass_walls += timed_passes(do_pass, budget)
    if not traced:
        return
    layer_counts()
    tracer = tracing.Tracer()
    with tracer:
        traced_walls = timed_passes(lambda: do_pass(tracer), seconds / 2)
    m.layers = layer_metrics(tracer, traced_walls, m.pass_walls, layer_counts())
    m.tracer = tracer


def layer_metrics(tracer, traced_walls, untraced_walls, counts: dict) -> dict:
    """Per-layer metrics, per traced pass (see ``NOTES.md``)."""

    passes = len(traced_walls)
    totals = tracer.totals()
    metrics = {}
    for key, stem in tracing.metric_stems():
        calls, total, self_s, count = totals.get(key, (0, 0.0, 0.0, 0))
        metrics[f"{stem}.calls"] = calls / passes
        if stem.startswith("service.server."):
            metrics[f"{stem}.busy_s"] = total / passes
        else:
            metrics[f"{stem}.self_s"] = self_s / passes
        if key in tracing.COUNTED:
            ratio = count / calls if calls else 0.0
            metrics[f"{stem}.{tracing.COUNTED[key]}"] = ratio
    waits = tracer.queue_waits
    metrics["service.scheduler.queue_wait_s"] = statistics.mean(waits) if waits else 0.0
    # Execute calls made while a request whose specs were all stored was in
    # flight: the warm path must never simulate.
    metrics["experiments.jobs.execute.store_hit_calls"] = sum(
        1
        for tag in tracer.span_requests("experiments.jobs.execute")
        if isinstance(tag, tuple) and tag[0] == "warm"
    ) / passes
    metrics.update(counts)
    metrics["traces.format.chunks_decoded"] /= passes
    metrics["traced_wall_s"] = pass_time(traced_walls)
    metrics["trace_overhead_ratio"] = metrics["traced_wall_s"] / pass_time(untraced_walls)
    return metrics


def useful_ratios(results) -> dict:
    """Temporal useful / issued per temporal prefetcher, over ``results``."""

    sums = {"core.triangel": [0, 0], "triage.triage": [0, 0]}
    for stats in results:
        layer = {"triangel": "core.triangel", "triage-deg4": "triage.triage"}.get(
            stats.configuration
        )
        if layer:
            sums[layer][0] += stats.temporal_prefetches_useful
            sums[layer][1] += stats.temporal_prefetches_issued
    return {
        f"{layer}.temporal_useful_ratio": useful / issued if issued else 0.0
        for layer, (useful, issued) in sums.items()
    }


class LayerCounts:
    """Per-layer counters a workload reads off the program's own objects."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.chunks_decoded = 0
        self.results: list = []
        self.store_hits = 0
        self.store_lookups = 0
        self.requests = 0
        self.polls = 0

    def __call__(self) -> dict:
        counts = {
            "traces.format.chunks_decoded": self.chunks_decoded,
            **useful_ratios(self.results),
            "experiments.store.hit_ratio": (
                self.store_hits / self.store_lookups if self.store_lookups else 0.0
            ),
            "client.polls_per_request": self.polls / self.requests if self.requests else 0.0,
        }
        self.reset()
        return counts


# ---------------------------------------------------------------------------
# miss-heavy
# ---------------------------------------------------------------------------
def _length_override(workload: str, length: int) -> dict:
    # graph500's generator sizes itself with ``max_accesses``; ``length``
    # is the SPEC-like generators' parameter.
    return {"max_accesses" if workload.startswith("graph500") else "length": length}


def miss_operations(seed: int, length: int | None) -> list[tuple]:
    """Miss-heavy's operations: each workload under every configuration
    (what ``repro run <workload>`` with the three configurations executes),
    then the multiprogrammed spec."""

    from repro.experiments.jobs import MultiProgramSpec, RunSpec
    from repro.sim.config import SystemConfig

    system = SystemConfig()

    def overrides(workload):
        return {"seed": seed, **(_length_override(workload, length) if length else {})}

    operations = [
        tuple(
            RunSpec.create(workload, config, system, trace_overrides=overrides(workload))
            for config in CONFIGS
        )
        for workload in MISS_WORKLOADS
    ]
    operations.append(
        (
            MultiProgramSpec.create(
                MULTIPROGRAM, "triangel", system, trace_overrides=overrides(MULTIPROGRAM[0])
            ),
        )
    )
    return operations


def replayed_accesses(spec) -> int:
    from repro.experiments.jobs import trace_for_workload

    overrides = spec.trace_overrides_dict()
    names = getattr(spec, "workloads", None) or (spec.workload,)
    return sum(len(trace_for_workload(name, overrides)) for name in names)


def miss_heavy(seed: int, seconds: float, traced: bool, sizes: Sizes = FULL) -> Measurement:
    from repro.experiments import jobs

    m = Measurement()
    tally = m.tally
    for _ in range(sizes.miss_setup_repeats):
        start = perf_counter()
        jobs.clear_trace_memo()
        operations = miss_operations(seed, sizes.miss_length)
        accesses = sum(replayed_accesses(spec) for op in operations for spec in op)
        m.setup_s.append(perf_counter() - start)

    for operation in miss_operations(seed, sizes.parity_length):
        for spec in operation:
            try:
                fast = payload(jobs.execute(spec, kernel="fast"))
                reference = payload(jobs.execute(spec, kernel="reference"))
                tally.check(fast == reference, f"fast != reference kernel on {spec_label(spec)}")
            except Exception:
                tally.error("parity gate")

    counts = LayerCounts()
    expected = {}
    first = {}

    def run_operation(operation, latencies, tracer=None):
        start = perf_counter()
        for spec in operation:
            if tracer is not None:
                tracer.request = spec_label(spec)
            try:
                result = jobs.execute(spec, kernel="fast")
                if spec not in first:
                    first[spec] = result
                    expected[spec] = payload(result)
                tally.check(payload(result) == expected[spec], f"stats differ on {spec_label(spec)}")
                if hasattr(result, "core_results"):
                    counts.results += [core.stats for core in result.core_results]
                else:
                    counts.results.append(result)
            except Exception:
                tally.error(f"execute {spec_label(spec)}")
        latencies.append((perf_counter() - start) * 1e3)

    # The cold pass fixes the expected statistics and the simulated metrics.
    m.cold_ms.append([])
    for operation in operations:
        run_operation(operation, m.cold_ms[-1])
    m.pass_walls.append(sum(m.cold_ms[-1]) / 1e3)
    m.sim = sim_metrics(
        {
            (spec.workload, spec.configuration): first[spec]
            for operation in operations[:-1]
            for spec in operation
            if spec in first
        },
        tally,
    )
    counts()

    def do_pass(tracer=None):
        start = perf_counter()
        m.warm_ms.append([])
        for operation in operations:
            run_operation(operation, m.warm_ms[-1], tracer)
        return perf_counter() - start

    m.pass_ops = len(operations)
    m.pass_accesses = accesses
    measure(m, do_pass, seconds, traced, counts)
    m.sizes = {
        "operations": [[spec_label(spec) for spec in op] for op in operations],
        "accesses_per_pass": accesses,
        "parity_length": sizes.parity_length,
    }
    return m


def spec_label(spec) -> str:
    workloads = getattr(spec, "workloads", None) or (spec.workload,)
    return f"{'+'.join(workloads)}:{spec.configuration}"


# ---------------------------------------------------------------------------
# hot-replay
# ---------------------------------------------------------------------------
def _simulator(configuration: str, system):
    from repro.experiments.configs import build_prefetchers
    from repro.sim.engine import Simulator
    from repro.sim.timing import TimingModel

    return Simulator(
        system.build_hierarchy(),
        build_prefetchers(configuration, system),
        timing=TimingModel(system.timing),
        config=system,
        configuration_name=configuration,
    )


def hot_replay(seed: int, seconds: float, traced: bool, work: Path, sizes: Sizes = FULL) -> Measurement:
    # Traced calls go through their modules, so the tracer's wrappers apply.
    from repro.sim import kernel, shard
    from repro.sim.config import SystemConfig
    from repro.traces import format as trace_format
    from repro.workloads.micro import generate_pointer_chase_trace

    m = Measurement()
    tally = m.tally
    system = SystemConfig()
    paths = []
    for attempt in range(sizes.hot_setup_repeats):
        start = perf_counter()
        trace = generate_pointer_chase_trace(
            nodes=sizes.hot_nodes, repeats=sizes.hot_repeats, seed=seed
        )
        paths.append(trace_format.save_trace(trace, work / f"hot-{attempt}.rtrc", version=2))
        m.setup_s.append(perf_counter() - start)
    # Replays read only the file: drop the generated stream, as a process
    # that replays a recorded trace never holds it.
    total = len(trace)
    del trace
    warmup = int(total * 0.4)
    counts = LayerCounts()

    def sequential(path, configuration: str):
        replay = trace_format.load_trace(path)
        stats = kernel.run_simulation(
            _simulator(configuration, system),
            replay,
            kernel="fast",
            workload_name="hot",
            warmup_accesses=warmup,
        ).stats
        counts.chunks_decoded += replay.chunks_decoded
        counts.results.append(stats)
        return stats

    def sharded(path):
        replay = trace_format.load_trace(path)
        plan = shard.plan_shards(total, warmup, sizes.hot_shards, overlap="warmup")
        outcomes = [
            kernel.run_fast_window(
                _simulator("triangel", system), replay, window, workload_name="hot"
            )
            for window in plan.windows
        ]
        stats = shard.merge_shard_outcomes(outcomes)
        counts.chunks_decoded += replay.chunks_decoded
        counts.results.append(stats)
        return stats, plan.replayed_accesses

    def repetition(path, tracer=None) -> float:
        start = perf_counter()
        try:
            if tracer is not None:
                tracer.request = "sequential"
            stats = sequential(path, "triangel")
            tally.check(
                dataclasses.asdict(stats) == expected["sequential"],
                "sequential replay differs from the gate's",
            )
            if tracer is not None:
                tracer.request = "sharded"
            stats, _ = sharded(path)
            tally.check(
                dataclasses.asdict(stats) == expected["sharded"],
                "sharded replay differs from the gate's",
            )
        except Exception:
            tally.error("hot replay")
        return perf_counter() - start

    def do_pass(tracer=None):
        wall = repetition(paths[-1], tracer)
        m.warm_ms.append([wall * 1e3])
        return wall

    # The cold operations are the first repetition on each recorded file.
    # The gate's, on the first file, fix the expected statistics of both
    # replay paths.
    replayed = 0
    cold = []
    try:
        results = {("hot", config): sequential(paths[0], config) for config in CONFIGS[:-1]}
        start = perf_counter()
        results["hot", "triangel"] = sequential(paths[0], "triangel")
        merged, replayed = sharded(paths[0])
        cold.append(perf_counter() - start)
        m.sim = sim_metrics(results, tally)
        expected = {
            "sequential": dataclasses.asdict(results["hot", "triangel"]),
            "sharded": dataclasses.asdict(merged),
        }
        report = shard.shard_parity_report(expected["sequential"], expected["sharded"])
        tally.check(
            report.pop("accesses") == 0
            and max(report.values()) <= shard.SHARD_PARITY_TOLERANCE,
            f"sharded replay outside parity tolerance: {report}",
        )
    except Exception:
        tally.error("hot-replay gate")
        expected = {"sequential": None, "sharded": None}
    cold += [repetition(path) for path in paths[1:]]
    m.pass_walls += cold
    m.cold_ms += [[wall * 1e3] for wall in cold]
    counts()
    m.pass_ops = 1
    m.pass_accesses = total + replayed
    measure(m, do_pass, seconds, traced, counts)
    m.sizes = {
        "trace_accesses": total,
        "nodes": sizes.hot_nodes,
        "shards": sizes.hot_shards,
        "sharded_replayed_accesses": replayed,
        "trace_file_bytes": paths[-1].stat().st_size,
    }
    return m


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------
def service_specs(seed: int, sizes: Sizes):
    """(warm requests, cold requests): each a list of spec tuples."""

    from repro.experiments.jobs import RunSpec
    from repro.sim.config import SystemConfig

    system = SystemConfig()

    def request(workload, length, configs):
        overrides = {"length": length, "seed": seed}
        return tuple(
            RunSpec.create(workload, config, system, trace_overrides=overrides)
            for config in configs
        )

    warm = [request(w, sizes.service_warm_length, CONFIGS) for w in SERVICE_WORKLOADS]
    cold = [
        request(SERVICE_WORKLOADS[i % len(SERVICE_WORKLOADS)], length, ("baseline", "triangel"))
        for i, length in enumerate(sizes.service_cold_lengths)
    ]
    return warm, cold


@contextlib.contextmanager
def one_cpu():
    """Keep this thread, and the threads it starts, on one CPU.

    The client and the daemon's threads hand every request back and forth.
    On one CPU each hand-off is a context switch; across CPUs it is a
    wake-up of the other CPU, whose latency depends on how busy the rest of
    a shared host is, and dominated the warm latencies' spread.
    """

    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def service_mixed(seed: int, seconds: float, traced: bool, work: Path, sizes: Sizes = FULL) -> Measurement:
    with one_cpu():
        return _service_mixed(seed, seconds, traced, work, sizes)


def _service_mixed(seed, seconds, traced, work, sizes) -> Measurement:
    from repro.client import ServiceClient
    from repro.experiments import jobs
    from repro.experiments.store import ResultStore, stats_to_payload
    from repro.service.server import build_server

    m = Measurement()
    tally = m.tally
    warm, cold = service_specs(seed, sizes)
    rng = random.Random(seed)
    order = [rng.choice(warm) for _ in range(sizes.service_warm_requests)]
    step = len(order) // len(cold)
    for index, request in enumerate(cold):
        order.insert(index * (step + 1) + step // 2, request)
    cold_requests = set(cold)
    bodies = {
        request: {"kind": "spec", "specs": [spec.as_dict() for spec in request]}
        for request in warm + cold
    }
    digests = {spec: spec.content_hash() for request in warm + cold for spec in request}
    # The client's poll jitter draws from the global generator: seed it.
    random.seed(seed)

    expected = {}
    for request in warm + cold:
        for spec in request:
            try:
                expected[spec] = jobs.execute(spec, kernel="fast")
            except Exception:
                tally.error(f"in-process execute {spec}")
    results = {
        (spec.workload, spec.configuration): expected.get(spec)
        for request in warm
        for spec in request
    }
    if all(results.values()):
        m.sim = sim_metrics(results, tally)
    expected_payloads = {spec: stats_to_payload(stats) for spec, stats in expected.items()}
    template = ResultStore(work / "warm-set")
    for request in warm:
        for spec in request:
            template.put(spec, expected[spec])
    counts = LayerCounts()

    def start_service():
        start = perf_counter()
        directory = Path(tempfile.mkdtemp(prefix="store-", dir=work)) / "store"
        shutil.copytree(template.directory, directory)
        store = ResultStore(directory)
        len(store)  # load the index now, not inside the first request
        server = build_server(store, port=0, jobs=1, kernel="fast")
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
        thread.start()
        m.setup_s.append(perf_counter() - start)
        return directory, store, server, thread

    def stop_service(directory, server, thread):
        server.shutdown()
        thread.join(timeout=30)
        server.server_close()
        server.scheduler.close()
        shutil.rmtree(directory.parent, ignore_errors=True)

    def do_pass(tracer=None):
        directory, store, server, thread = start_service()
        client = ServiceClient(server.url, client="perfbench", timeout=60)
        m.cold_ms.append([])
        m.warm_ms.append([])
        start = perf_counter()
        try:
            for number, request in enumerate(order):
                cold_request = request in cold_requests
                if tracer is not None:
                    tracer.request = ("cold" if cold_request else "warm", number)
                op_start = perf_counter()
                try:
                    job = client.submit(bodies[request])
                    final = client.wait(
                        job["id"], timeout=60, poll=sizes.poll_s, max_poll=sizes.max_poll_s
                    )
                    body = client.result(job["id"])["result"]["results"]
                    latency = (perf_counter() - op_start) * 1e3
                    ok = final["state"] == "completed" and all(
                        body[digests[spec]]["result"] == expected_payloads.get(spec)
                        for spec in request
                    )
                    tally.check(ok, f"service result differs for {spec_label(request[0])}")
                    counts.requests += 1
                    counts.polls += client.last_wait["polls"]
                    if cold_request:
                        counts.results += [expected[spec] for spec in request]
                except Exception:
                    tally.error(f"service request {spec_label(request[0])}")
                    latency = (perf_counter() - op_start) * 1e3
                (m.cold_ms if cold_request else m.warm_ms)[-1].append(latency)
            wall = perf_counter() - start
        finally:
            counts.store_hits += store.hits
            counts.store_lookups += store.hits + store.misses
            stop_service(directory, server, thread)
        return wall

    m.pass_ops = len(order)
    m.pass_accesses = sum(replayed_accesses(spec) for request in cold for spec in request)
    measure(m, do_pass, seconds, traced, counts)
    m.sizes = {
        "requests_per_pass": len(order),
        "cold_requests_per_pass": len(cold),
        "warm_specs": sum(len(r) for r in warm),
        "warm_trace_length": sizes.service_warm_length,
        "cold_trace_lengths": list(sizes.service_cold_lengths),
        "poll_s": [sizes.poll_s, sizes.max_poll_s],
    }
    return m


WORKLOADS = {
    "miss-heavy": miss_heavy,
    "hot-replay": hot_replay,
    "service-mixed": service_mixed,
}
