"""The benchmark's four workloads and the metrics they report.

Every workload reports every end-to-end metric (untraced runs) or every
per-layer metric (traced runs); README.md says what each one means on each
workload.  An operation (op) is one network x preset cell on the zoo
workloads and one compile request on the serve workloads.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import checks
from common import (
    BENCH_DIR,
    ZOO_PRESETS,
    Inputs,
    clear_memos,
    decision_digest,
    geomean,
    median,
    network_plan_digest,
    percentile,
    pid_rss_peak_mb,
    self_rss_peak_mb,
)
from tracer import Tracer

#: The benchmark's workloads (BENCHMARK.json).  ``serve-hot`` also runs
#: (``RUNNERS``) but is left out: its run-to-run spread on a shared 2-CPU
#: host (0.14-0.45 over ten runs) passes the largest bound a metric may
#: carry, so it could not tell a regression from the host.
WORKLOADS = ("zoo-cold", "serve-novel", "zoo-simulated")

#: name -> unit of every end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "rps": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "plan_time_ms": "ms_modeled",
    "plan_peak_mb": "MB",
    "sim_time_ms": "ms_modeled",
    "rss_peak_mb": "MB",
}

#: name -> unit of every per-layer metric.
PER_LAYER = {
    "ir.partition_s": "s",
    "ir.plan_nodes": "count",
    "core.fused_search_s": "s",
    "core.unfused_baseline_s": "s",
    "core.placement_s": "s",
    "core.solve_tiles_s": "s",
    "core.solve_tiles_calls": "count",
    "core.search.searches": "count",
    "core.search.orders_enumerated": "count",
    "core.search.bound_evals": "count",
    "core.search.pruned": "count",
    "core.search.solves": "count",
    "core.search.memo_hits": "count",
    "core.search.memo_hit_ratio": "ratio",
    "core.tables.memo_hits": "count",
    "core.tables.memo_misses": "count",
    "core.tables.memo_hit_ratio": "ratio",
    "codegen.lower_s": "s",
    "runtime.schedule_s": "s",
    "runtime.decode_ms": "ms",
    "service.serve_ms": "ms",
    "service.cache_hits": "count",
    "service.cache_misses": "count",
    "service.warm_exact": "count",
    "service.warm_near": "count",
    "service.warm_cold": "count",
    "serving.queue_ms": "ms",
    "serving.server_ms": "ms",
    "serving.wire_ms": "ms",
    "serving.req_p99_ms": "ms",
    "sim.simulate_s": "s",
    "sim.blocks": "count",
    "sim.replay_s": "s",
    "sim.model_error_max": "ln",
}

#: span name -> per-layer time metric fed by its inclusive time per pass.
SPAN_METRICS = {
    "ir.partition": "ir.partition_s",
    "core.plan_unfused": "core.unfused_baseline_s",
    "core.placement": "core.placement_s",
    "core.solve_tiles": "core.solve_tiles_s",
    "codegen.lower": "codegen.lower_s",
    "runtime.schedule": "runtime.schedule_s",
    "sim.simulate": "sim.simulate_s",
    "sim.replay": "sim.replay_s",
}

PASS_SPAN = "bench.pass"

#: Connections of the serve client's closed loop.
CONNECTIONS = 2

#: GIL switch interval of the serve client's connection threads, seconds.
CLIENT_SWITCH_INTERVAL = 0.0005

#: Operations that fail on every run because of a program fault (see the
#: FOUND lines of CHANGES.md): label -> the fault.  Only the failure that
#: fault causes, a served plan that differs from the chain's cold compile,
#: counts in ``failed`` with ``correct`` still true, as ``correct`` speaks
#: of the operations that did not fail.  Any other failure, on these labels
#: too, makes the run incorrect.
KNOWN_FAULTS = {
    f"novel-h{h}-s608-d64/ffn1+ffn_gelu+ffn2+ln2/ascend-910": (
        "the warm start from the zoo FFN plan picks a slower tiling than a "
        "cold compile when the solve memo is empty"
    )
    for h in (8, 12)
}

_COLD_MISMATCH = re.compile(
    rf"plan \w+ differs from {checks.COLD_COMPILE} \w+")


def is_known_fault(failure: str) -> bool:
    label, _, message = failure.partition(": ")
    return label in KNOWN_FAULTS and bool(_COLD_MISMATCH.fullmatch(message))


class SetupComplete(Exception):
    """A set-up-only run reached its first timed op."""


@dataclasses.dataclass
class Context:
    """What a workload needs to run and report."""

    inputs: Inputs
    seed: int
    seconds: float
    tracer: Optional[Tracer]
    started: float  # perf_counter at process start
    workers: int
    work_dir: str
    setup_only: bool = False
    failures: List[str] = dataclasses.field(default_factory=list)
    setup_samples: List[float] = dataclasses.field(default_factory=list)
    #: (server pid, its spans) of each traced server process.
    server_spans: List[Tuple[int, Tracer]] = dataclasses.field(
        default_factory=list)

    def setup_done(self) -> None:
        """Mark the first timed op; start tracing only from here on.

        Raises:
            SetupComplete: in a set-up-only run, which ends here.
        """
        self.setup_samples.append(time.perf_counter() - self.started)
        if self.setup_only:
            raise SetupComplete(self.setup_samples[-1])
        if self.tracer is not None:
            self.tracer.install()

    def pass_span(self, fn: Callable[[], Any]) -> Any:
        if self.tracer is None:
            return fn()
        return self.tracer.record(PASS_SPAN, fn)


@dataclasses.dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, float]  # end-to-end values by name
    layers: Dict[str, float]  # per-layer values by name


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _latency_metrics(latencies_s: Sequence[float]) -> Dict[str, float]:
    ms = [x * 1e3 for x in latencies_s]
    return {
        "req_p50_ms": percentile(ms, 50),
        "req_p90_ms": percentile(ms, 90),
    }


def _plan_metrics(plans: Sequence[Any]) -> Dict[str, float]:
    """Predicted time (geomean) and summed scheduled peak of network plans."""
    return {
        "plan_time_ms": geomean(_predicted_total(p) * 1e3 for p in plans),
        "plan_peak_mb": sum(p.peak_memory_bytes or 0 for p in plans) / 1e6,
    }


def _predicted_total(plan: Any) -> float:
    """A network plan's end-to-end time under the analytical model."""
    return sum(
        sum(p.predicted_time for p in node.plans) * node.repeat
        + node.spill_time
        for node in plan.nodes
    )


def _sim_probe(ctx: Context, service: Any = None) -> float:
    """Simulated end-to-end ms of the probe cell, as this workload compiles."""
    from repro.hardware import preset
    from repro.runtime.network import compile_network
    from repro.workloads.networks import build_network

    network, hardware = ctx.inputs.sim_probe
    plan = compile_network(
        build_network(ctx.inputs.config(network)), preset(hardware),
        service=service, timing="simulated",
    )
    return plan.total_time * 1e3


def _search_layers(search: Dict[str, Any], per: float) -> Dict[str, float]:
    """Per-layer counters from a ``search_stats_snapshot()`` delta."""
    tables = search.get("tables_memo", {})
    out = {
        f"core.search.{key}": search.get(key, 0) / per
        for key in ("searches", "orders_enumerated", "bound_evals", "pruned",
                    "solves", "memo_hits")
    }
    lookups = search.get("memo_hits", 0) + search.get("solves", 0)
    out["core.search.memo_hit_ratio"] = (
        search.get("memo_hits", 0) / lookups if lookups else 0.0)
    hits, misses = tables.get("hits", 0), tables.get("misses", 0)
    out["core.tables.memo_hits"] = hits / per
    out["core.tables.memo_misses"] = misses / per
    out["core.tables.memo_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    return out


def _delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = _delta(value, before.get(key, {}))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - before.get(key, 0)
    return out


def _span_layers(
    tracers: Sequence[Tracer], per: float,
    windows: Optional[Sequence[Tuple[float, float]]] = None,
) -> Dict[str, float]:
    """Inclusive time per pass of each traced layer.

    ``core.fused_search_s`` counts optimizer runs on whole chains only; the
    optimizer runs inside ``plan_unfused`` are the unfused baseline's.
    Only spans of the timed part count: those under a benchmark pass, or
    with ``windows`` those inside one of them (checks and probes run
    outside).
    """
    totals = {metric: 0.0 for metric in SPAN_METRICS.values()}
    totals["core.fused_search_s"] = 0.0
    calls = 0
    for tracer in tracers:
        ancestors = tracer.ancestors()
        for span in tracer.spans:
            above = ancestors[span.span_id]
            if windows is None and PASS_SPAN not in above:
                continue
            if windows is not None and not any(
                    lo <= span.start and span.end <= hi for lo, hi in windows):
                continue
            if span.name == "core.optimize":
                if "core.plan_unfused" not in above and (
                        "core.optimize" not in above):
                    totals["core.fused_search_s"] += span.duration
            elif span.name in SPAN_METRICS:
                if span.name in above:
                    continue  # recursive call: already inside the outer one
                totals[SPAN_METRICS[span.name]] += span.duration
            if span.name == "core.solve_tiles":
                calls += 1
    out = {metric: value / per for metric, value in totals.items()}
    out["core.solve_tiles_calls"] = calls / per
    return out


def _empty_layers() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def _another_pass(ctx: Context, pass_times: Sequence[float]) -> bool:
    """Whether one more whole pass, at the mean pass time so far, ends
    within the run's ``--seconds`` of timed work.  A run makes at least
    one pass, so ``--seconds`` caps the timed part to whole passes."""
    spent = sum(pass_times)
    return spent + spent / len(pass_times) <= ctx.seconds


# ----------------------------------------------------------------------
# zoo workloads (in-process compile_network)
# ----------------------------------------------------------------------
def _zoo_cells(ctx: Context, networks: Sequence[str], presets: Sequence[str]):
    from repro.hardware import preset
    from repro.workloads.networks import build_network

    dags = [build_network(ctx.inputs.config(name)) for name in networks]
    hardware = {name: preset(name) for name in presets}
    return [(dag, hardware[name]) for dag in dags for name in presets]


def _run_zoo_passes(ctx: Context, cells, timing: str):
    """Cold passes over the cells while ``_another_pass`` allows.

    Returns (pass seconds, per-cell seconds, last pass's plans, per-pass
    digests, last pass's search counters).
    """
    from repro.core.search import search_stats_snapshot
    from repro.runtime.network import compile_network

    pass_times, cell_times, digests = [], [], []
    plans: List[Any] = []
    search: Dict[str, Any] = {}
    while True:
        clear_memos()

        def one_pass() -> List[Any]:
            out = []
            for dag, hardware in cells:
                start = time.perf_counter()
                out.append(compile_network(dag, hardware, timing=timing))
                cell_times.append(time.perf_counter() - start)
            return out

        start = time.perf_counter()
        plans = ctx.pass_span(one_pass)
        pass_times.append(time.perf_counter() - start)
        search = search_stats_snapshot()
        digests.append([network_plan_digest(p) for p in plans])
        if not _another_pass(ctx, pass_times):
            return pass_times, cell_times, plans, digests, search


def _failed_ops(failures: Sequence[str], cells) -> int:
    """Cells named by at least one failure (labels start network/preset)."""
    return sum(
        1 for dag, hardware in cells
        if any(f.startswith(f"{dag.name}/{hardware.name}/")
               or f.startswith(f"{dag.name}/{hardware.name}:")
               for f in failures)
    )


def _cell_latencies(cell_times: Sequence[float], cells: int) -> List[float]:
    """Each cell's mean time over the passes (passes run cells in order).

    A cell takes about a second, and the host's speed drifts by a fifth
    within seconds; averaging a cell's passes halves that noise in the
    percentiles, which otherwise each rest on one short window.
    """
    passes = len(cell_times) // cells
    return [sum(cell_times[i::cells]) / passes for i in range(cells)]


def _determinism_failures(digests: List[List[str]], plans) -> List[str]:
    return [
        f"{plan.network}/{plan.hardware.name}: pass {i} plan differs"
        for i, row in enumerate(digests[1:], start=1)
        for plan, first, again in zip(plans, digests[0], row)
        if first != again
    ]


def zoo_cold(ctx: Context) -> Outcome:
    from repro.runtime.serialization import plan_to_dict

    networks = [cfg.name for cfg in ctx.inputs.zoo_configs()]
    cells = _zoo_cells(ctx, networks, ZOO_PRESETS)
    ctx.setup_done()
    pass_times, cell_times, plans, digests, search = _run_zoo_passes(
        ctx, cells, "predicted")
    rss = self_rss_peak_mb()

    failures = _determinism_failures(digests, plans)
    for plan in plans:
        failures += checks.check_roundtrip(plan)
        failures += checks.check_node_rooflines(plan)
    tasks = [
        (f"{plan.network}/{plan.hardware.name}/{node.name}/{fp.chain.name}",
         plan_to_dict(fp), ctx.seed)
        for plan in plans if plan.network == ctx.inputs.numerics_network
        for node in plan.nodes for fp in node.plans
    ]
    failures += checks.run_pool(checks.numerics_task, tasks, ctx.workers)
    ctx.failures += failures

    passes = len(pass_times)
    metrics = {
        "compile_s": median(pass_times),
        "rps": len(cell_times) / sum(pass_times),
        **_latency_metrics(_cell_latencies(cell_times, len(cells))),
        **_plan_metrics(plans),
        "sim_time_ms": _sim_probe(ctx),
        "rss_peak_mb": rss,
    }
    layers = _empty_layers()
    if ctx.tracer is not None:
        layers.update(_span_layers([ctx.tracer], passes))
        layers.update(_search_layers(search, 1))
        layers["ir.plan_nodes"] = sum(len(p.nodes) for p in plans)
    return Outcome(len(cell_times), _failed_ops(failures, cells) * passes,
                   metrics, layers)


def zoo_simulated(ctx: Context) -> Outcome:
    from repro.sim.residency import replay_schedule

    cells = _zoo_cells(ctx, ctx.inputs.sim_zoo, ctx.inputs.sim_presets)
    ctx.setup_done()
    pass_times, cell_times, plans, digests, search = _run_zoo_passes(
        ctx, cells, "simulated")
    rss = self_rss_peak_mb()

    failures = _determinism_failures(digests, plans)
    for plan in plans:
        failures += checks.check_replay(plan, replay_schedule(plan.schedule))
        failures += checks.check_node_rooflines(plan)
        failures += checks.check_fused_not_slower(plan)
    ctx.failures += failures

    metrics = {
        "compile_s": median(pass_times),
        "rps": len(cell_times) / sum(pass_times),
        **_latency_metrics(_cell_latencies(cell_times, len(cells))),
        **_plan_metrics(plans),
        "sim_time_ms": geomean(p.total_time * 1e3 for p in plans),
        "rss_peak_mb": rss,
    }
    layers = _empty_layers()
    if ctx.tracer is not None:
        passes = len(pass_times)
        layers.update(_span_layers([ctx.tracer], passes))
        layers.update(_search_layers(search, 1))
        layers["ir.plan_nodes"] = sum(len(p.nodes) for p in plans)
        ancestors = ctx.tracer.ancestors()
        layers["sim.blocks"] = sum(
            span.args.get("blocks", 0) for span in ctx.tracer.spans
            if span.name == "sim.simulate"
            and PASS_SPAN in ancestors[span.span_id]
        ) / passes
        layers["sim.model_error_max"] = max(
            abs(math.log(sum(p.predicted_time for p in node.plans)
                         / node.time))
            for plan in plans for node in plan.nodes
        )
    return Outcome(len(cell_times),
                   _failed_ops(failures, cells) * len(pass_times),
                   metrics, layers)


# ----------------------------------------------------------------------
# serve workloads (python -m repro serve in its own process)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Request:
    key: str
    chain: Any
    hardware: str
    label: str


@dataclasses.dataclass
class Served:
    """One served request.  Holds no plan objects: the client's heap stays
    small, so its garbage collections do not stall the timed loop."""

    request: Request
    latency: float  # send -> decoded CompileResult
    roundtrip: float  # send -> reply received
    decode: float
    reply: Any  # CompileReply without its entry
    digest: Optional[str]  # decision_digest of the decoded plans
    predicted: float  # predicted time of the chosen kernels


def _requests(dags, presets: Sequence[str], exclude=frozenset()) -> List[Request]:
    """Distinct (chain, preset) compile requests of the networks' nodes."""
    from repro.hardware import preset
    from repro.ir.graph import partition_graph
    from repro.service import CompileRequest

    seen = set(exclude)
    out = []
    for dag in dags:
        for node in partition_graph(dag).all_nodes():
            for name in presets:
                key = CompileRequest(node.chain, preset(name)).key
                if key not in seen:
                    seen.add(key)
                    out.append(Request(key, node.chain, name,
                                       f"{dag.name}/{node.name}/{name}"))
    return out


def novel_requests(inputs: Inputs, exclude) -> List[Request]:
    """The novel grid: transformer shapes the zoo cache does not hold."""
    from repro.workloads.networks import NetworkConfig, build_network

    configs = [NetworkConfig(f"novel-h{h}-s{s}-d{d}", 1, h, s, d)
               for h, s, d in inputs.novel]
    return _requests([build_network(c) for c in configs],
                     inputs.novel_presets, exclude)


def fill_cache(ctx: Context, cache_dir: str):
    """Compile the zoo into the cache the server will serve from.

    Returns (service, zoo requests, in-process decision digest per key,
    the zoo's network plans).
    """
    from repro.hardware import preset
    from repro.runtime.network import compile_network
    from repro.service import CompileService
    from repro.workloads.networks import build_network

    dags = [build_network(cfg) for cfg in ctx.inputs.zoo_configs()]
    service = CompileService(cache_dir=cache_dir, shards=4)
    requests = _requests(dags, ZOO_PRESETS)
    reference = {}
    for request in requests:
        served = service.serve((request.chain, preset(request.hardware)))
        reference[request.key] = decision_digest(served.result.decision)
    plans = [
        compile_network(dag, preset(name), service=service)
        for dag in dags for name in ZOO_PRESETS
    ]
    return service, requests, reference, plans


def _split_cpus():
    """(server CPUs, client CPUs): half each, or (None, None) on one CPU.

    Pinning keeps the server and its client from trading places on the
    cores, which on a shared host made throughput jump between runs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    half = len(cpus) // 2
    return set(cpus[:half]), set(cpus[half:])


class Server:
    """``python -m repro serve`` in a child process, on a free port."""

    def __init__(self, ctx: Context, cache_dir: str) -> None:
        args = ["serve", "--port", "0", "--cache-dir", cache_dir,
                "--shards", "4", "--workers", str(ctx.workers),
                "--compact-interval", "3600"]
        if ctx.tracer is not None:
            self.spans_path = os.path.join(ctx.work_dir, "server-spans.json")
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                       self.spans_path, *args]
        else:
            self.spans_path = None
            command = [sys.executable, "-m", "repro", *args]
        server_cpus, _ = _split_cpus()
        # Output goes to a file, not a pipe nobody drains while timed.
        self.log_path = os.path.join(ctx.work_dir, "server.log")
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
                preexec_fn=(lambda: os.sched_setaffinity(0, server_cpus))
                if server_cpus else None,
            )
        self.port = self._await_port(timeout=60.0)

    def _log(self) -> str:
        with open(self.log_path, encoding="utf-8") as log:
            return log.read()

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and self.proc.poll() is None:
            for line in self._log().splitlines():
                if line.startswith("serving on "):
                    return int(line.rsplit(":", 1)[1])
            time.sleep(0.05)
        self.stop()
        raise RuntimeError("server did not start: " + self._log())

    def rss_peak_mb(self) -> Optional[float]:
        return pid_rss_peak_mb(self.proc.pid)

    def stop(self) -> None:
        """Drain the server (SIGTERM) and wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def drive(
    port: int, requests: Sequence[Request], connections: int,
    deadline: Optional[float], cycle: bool,
) -> Tuple[List[Served], float]:
    """Closed loop: each connection sends its next request after a reply.

    One client process; each connection is a thread with a blocking
    client that decodes its own replies.  With ``cycle`` the requests
    repeat until ``deadline``; without, each is sent once (or until the
    deadline).  Returns (served in completion order, elapsed seconds).
    """
    from repro.serving.client import ServingClient

    lock = threading.Lock()
    position = [0]
    served: List[Served] = []
    errors: List[BaseException] = []

    def next_request() -> Optional[Request]:
        with lock:
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            index = position[0]
            if index >= len(requests) and not cycle:
                return None
            position[0] += 1
            return requests[index % len(requests)]

    def connection() -> None:
        try:
            with ServingClient("127.0.0.1", port) as client:
                while True:
                    request = next_request()
                    if request is None:
                        return
                    start = time.perf_counter()
                    reply = client.compile(request.chain, request.hardware)
                    received = time.perf_counter()
                    decision = None
                    if reply.ok:
                        decision = reply.decode(request.hardware).decision
                    done = time.perf_counter()
                    reply.entry, reply.raw = None, {}
                    served.append(Served(
                        request, done - start, received - start,
                        done - received, reply,
                        decision and decision_digest(decision),
                        decision and sum(p.predicted_time
                                         for p in decision.chosen)))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=connection)
               for _ in range(connections)]
    _, client_cpus = _split_cpus()
    own_cpus = os.sched_getaffinity(0)
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)  # the threads inherit it
    # A reply that arrives while the other connection's thread decodes
    # would wait out the interpreter's 5 ms switch interval for the GIL:
    # client-side waiting, not serving.  A short interval bounds it.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(CLIENT_SWITCH_INTERVAL)
    try:
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
    finally:
        sys.setswitchinterval(switch)
        os.sched_setaffinity(0, own_cpus)
    if errors:
        raise errors[0]
    return served, elapsed


def _server_stats(port: int) -> Dict[str, Any]:
    from repro.serving.client import ServingClient

    with ServingClient("127.0.0.1", port) as client:
        return client.stats()


@dataclasses.dataclass
class ServePass:
    served: List[Served]
    elapsed: float
    window: Tuple[float, float]
    stats: Dict[str, Any]  # server counters accrued during the pass
    rss_peak_mb: float
    spans: Optional[Tracer]


def _serve_pass(ctx: Context, cache_dir: str, requests: List[Request],
                cycle: bool) -> ServePass:
    """Start a server over ``cache_dir``, drive it, stop it.

    With ``cycle`` the requests repeat for ``--seconds``; without, each is
    served once.
    """
    server = Server(ctx, cache_dir)
    try:
        before = _server_stats(server.port)
        if not ctx.setup_samples:
            # The set-up's objects (fill service, zoo plans) stay alive for
            # the checks; keep the collector from walking them while timed.
            gc.collect()
            gc.freeze()
            ctx.setup_done()
        begin = time.perf_counter()
        served, elapsed = drive(
            server.port, requests, CONNECTIONS,
            deadline=begin + ctx.seconds if cycle else None, cycle=cycle)
        window = (begin, time.perf_counter())
        after = _server_stats(server.port)
        rss = server.rss_peak_mb()
    finally:
        server.stop()
    spans = Tracer.load(server.spans_path) if server.spans_path else None
    if spans is not None:
        ctx.server_spans.append((server.proc.pid, spans))
    return ServePass(served, elapsed, window, _delta(after, before),
                     rss if rss is not None else 0.0, spans)


def _sum_stats(items: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for item in items:
        for key, value in item.items():
            if isinstance(value, dict):
                out[key] = _sum_stats([out.get(key, {}), value])
            else:
                out[key] = out.get(key, 0) + value
    return out


def _serve(ctx: Context, novel: bool) -> Outcome:
    from repro.runtime.serialization import chain_to_dict

    base = tempfile.mkdtemp(prefix="cache-", dir=ctx.work_dir)
    service, zoo_requests, reference, fill_plans = fill_cache(ctx, base)
    rng = random.Random(ctx.seed)
    passes = []
    if novel:
        grid = novel_requests(ctx.inputs, {r.key for r in zoo_requests})
        round_size = ctx.inputs.novel_round
        # Whole passes over the grid, each from a fresh server over a fresh
        # copy of the zoo cache, so every request misses.
        while not passes or _another_pass(ctx, [p.elapsed for p in passes]):
            cache_dir = os.path.join(ctx.work_dir, f"pass-{len(passes)}")
            shutil.copytree(base, cache_dir)
            requests = list(grid)
            rng.shuffle(requests)
            passes.append(_serve_pass(ctx, cache_dir, requests, cycle=False))
    else:
        requests = list(zoo_requests)
        rng.shuffle(requests)
        round_size = len(requests)
        passes.append(_serve_pass(ctx, base, requests, cycle=True))
    served = [item for p in passes for item in p.served]
    elapsed = sum(p.elapsed for p in passes)

    failures = []
    for item in served:
        failures += checks.check_reply_source(item.request.label, item.reply,
                                              from_cache=not novel)
    if novel:
        # One cold compile per chain; every pass's plan must match it.
        tasks = {}
        for item in served:
            if item.digest is not None:
                tasks.setdefault(item.request.key, []).append(item)
        failures += checks.run_pool(checks.cold_compile_task, [
            (items[0].request.label, chain_to_dict(items[0].request.chain),
             items[0].request.hardware, [i.digest for i in items])
            for items in tasks.values()
        ], ctx.workers)
    else:
        for item in served:
            if item.digest is not None:
                failures += checks.check_same_plan(
                    item.request.label, reference[item.request.key],
                    item.digest, "in-process compile")
    ctx.failures += failures

    distinct = {item.request.key: item for item in served
                if item.digest is not None}
    metrics = {
        "compile_s": elapsed * round_size / len(served),
        "rps": len(served) / elapsed,
        **_latency_metrics([item.latency for item in served]),
        "plan_time_ms": geomean(
            item.predicted * 1e3 for item in distinct.values()),
        "plan_peak_mb": _plan_metrics(fill_plans)["plan_peak_mb"],
        "sim_time_ms": _sim_probe(ctx, service),
        "rss_peak_mb": max(p.rss_peak_mb for p in passes),
    }
    layers = _empty_layers()
    if ctx.tracer is not None:
        rounds = len(served) / round_size
        tracers = [ctx.tracer] + [p.spans for p in passes if p.spans]
        layers.update(_span_layers(tracers, rounds,
                                   [p.window for p in passes]))
        stats = _sum_stats([p.stats for p in passes])
        layers.update(_search_layers(stats.get("search", {}), rounds))
        layers["service.cache_hits"] = stats.get("hits", 0)
        layers["service.cache_misses"] = stats.get("misses", 0)
        for kind in ("exact", "near", "cold"):
            layers[f"service.warm_{kind}"] = sum(
                1 for item in served if item.reply.warm_start == kind)
        ms = lambda values: percentile([v * 1e3 for v in values], 50)
        layers["runtime.decode_ms"] = ms([i.decode for i in served])
        layers["service.serve_ms"] = ms(
            [i.reply.service_seconds for i in served])
        layers["serving.queue_ms"] = ms(
            [i.reply.queue_seconds for i in served])
        layers["serving.server_ms"] = ms([i.reply.seconds for i in served])
        layers["serving.wire_ms"] = ms(
            [i.roundtrip - i.reply.seconds for i in served])
        # Unbounded here: its run-to-run spread on a shared host (0.2-0.4)
        # exceeds any bound an end-to-end metric may carry.
        layers["serving.req_p99_ms"] = percentile(
            [i.latency * 1e3 for i in served], 99)
    failed = sum(
        1 for item in served
        if any(f.startswith(item.request.label + ":") for f in failures))
    return Outcome(len(served), failed, metrics, layers)


def serve_hot(ctx: Context) -> Outcome:
    return _serve(ctx, novel=False)


def serve_novel(ctx: Context) -> Outcome:
    return _serve(ctx, novel=True)


RUNNERS = {
    "zoo-cold": zoo_cold,
    "serve-hot": serve_hot,
    "serve-novel": serve_novel,
    "zoo-simulated": zoo_simulated,
}
