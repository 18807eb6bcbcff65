"""Output checks of every workload.

Each check compares the program's output against a computation made apart
from the program (whole-tensor numpy, a roofline bound computed here, a
cold recompile, a schedule replay) or against a property the method must
have.  None compares against a stored copy of earlier output.

Every check returns a list of failure messages (empty when the output is
right), so the self-tests in ``perfbench/tests`` can feed each one a
deliberately corrupted output and see it fail.

The two expensive checks (kernel numerics and cold recompiles) also have
worker entry points, run in a spawned process pool after the timed part.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from common import clear_memos, decision_digest

#: Numerics tolerance: the blocked kernels reorder float64 reductions.
RTOL = 1e-6
ATOL = 1e-9


def check_numerics(
    label: str,
    got: Mapping[str, np.ndarray],
    expected: Mapping[str, np.ndarray],
) -> List[str]:
    """Compiled-kernel outputs against whole-tensor numpy outputs."""
    failures = []
    for name, want in expected.items():
        have = got.get(name)
        if have is None or have.shape != want.shape:
            failures.append(f"{label}: output {name} missing or misshapen")
        elif not np.allclose(have, want, rtol=RTOL, atol=ATOL):
            err = float(np.max(np.abs(have - want)))
            failures.append(f"{label}: output {name} off by {err:.3e}")
    return failures


def roofline_bound(plans: Sequence[Any], hardware: Any) -> float:
    """Least time the plans' kernels can take on ``hardware``.

    Per kernel: the chain's FLOPs at the preset's peak FLOP/s, or its
    compulsory IO bytes at DRAM bandwidth, whichever is longer.
    """
    return sum(
        max(
            plan.chain.total_flops() / hardware.peak_flops,
            plan.chain.io_bytes() / hardware.dram_bandwidth,
        )
        for plan in plans
    )


def check_roofline(label: str, seconds: float, bound: float) -> List[str]:
    if not seconds >= bound > 0:
        return [f"{label}: time {seconds:.3e}s below roofline {bound:.3e}s"]
    return []


def check_node_rooflines(plan: Any) -> List[str]:
    """Every node of a network plan at or above its roofline bound."""
    return [
        failure
        for node in plan.nodes
        for failure in check_roofline(
            f"{plan.network}/{plan.hardware.name}/{node.name}",
            node.time,
            roofline_bound(node.plans, plan.hardware),
        )
    ]


def min_roofline_ratio(plan: Any) -> float:
    return min(
        node.time / roofline_bound(node.plans, plan.hardware)
        for node in plan.nodes
    )


def check_roundtrip(plan: Any) -> List[str]:
    """The plan survives ``network_plan_json`` -> load -> dump byte-identically."""
    from repro.runtime.serialization import (
        network_plan_from_dict,
        network_plan_json,
    )

    text = network_plan_json(plan)
    again = network_plan_json(network_plan_from_dict(json.loads(text)))
    if again != text:
        return [f"{plan.network}/{plan.hardware.name}: plan JSON round trip "
                "is not byte-identical"]
    return []


#: What ``cold_compile_task`` compares a served plan against.
COLD_COMPILE = "cold compile"


def check_same_plan(label: str, expected: str, got: str,
                    against: str = "reference") -> List[str]:
    """Two plan digests must be equal; ``against`` names the expected one."""
    if expected != got:
        return [f"{label}: plan {got[:12]} differs from {against} "
                f"{expected[:12]}"]
    return []


def check_reply_source(label: str, reply: Any, from_cache: bool) -> List[str]:
    """A hot reply comes from the cache; a novel one is compiled afresh."""
    if not reply.ok:
        return [f"{label}: request failed: {reply.error}"]
    hit = reply.source in ("memory", "disk") and reply.warm_start == "exact"
    compiled = reply.source == "compiled" and reply.warm_start in (
        "near", "cold")
    if from_cache and not hit:
        return [f"{label}: expected a cache hit, served from {reply.source}"
                f"/{reply.warm_start}"]
    if not from_cache and not compiled:
        return [f"{label}: expected a fresh compile, served from "
                f"{reply.source}/{reply.warm_start}"]
    return []


def check_replay(plan: Any, trace: Any) -> List[str]:
    """The residency replay reproduces the scheduler's memory profile."""
    schedule = plan.schedule
    if schedule is None:
        return [f"{plan.network}/{plan.hardware.name}: no schedule to replay"]
    if (
        trace.peak_bytes != schedule.peak_bytes
        or tuple(trace.live_bytes) != tuple(schedule.live_bytes)
    ):
        return [f"{plan.network}/{plan.hardware.name}: replay peak "
                f"{trace.peak_bytes} != scheduled {schedule.peak_bytes}"]
    return []


def check_fused_not_slower(plan: Any) -> List[str]:
    """A fused node's simulated time is at most its simulated unfused time."""
    return [
        f"{plan.network}/{plan.hardware.name}/{node.name}: fused "
        f"{node.time:.3e}s > unfused {node.unfused_time:.3e}s"
        for node in plan.nodes
        if node.fused and node.fusable and node.time > node.unfused_time
    ]


# ----------------------------------------------------------------------
# pool workers (run in spawned processes)
# ----------------------------------------------------------------------
def numerics_task(task: Tuple[str, Dict[str, Any], int]) -> List[str]:
    """Lower one plan, execute it and compare with whole-tensor numpy."""
    from repro.codegen import execute_reference, random_inputs
    from repro.codegen.executor import execute_program
    from repro.codegen.program import lower_plan
    from repro.runtime.serialization import plan_from_dict

    label, plan_data, seed = task
    plan = plan_from_dict(plan_data)
    inputs = random_inputs(plan.chain, seed=seed)
    got = execute_program(lower_plan(plan), inputs)
    return check_numerics(label, got, execute_reference(plan.chain, inputs))


def cold_compile_task(
    task: Tuple[str, Dict[str, Any], str, List[str]]
) -> List[str]:
    """Compile a chain cold, memos cleared; every served digest must match."""
    from repro.hardware import preset
    from repro.runtime.pipeline import compile_chain
    from repro.runtime.serialization import chain_from_dict

    label, chain_data, hardware, served_digests = task
    clear_memos()
    result = compile_chain(chain_from_dict(chain_data), preset(hardware))
    cold = decision_digest(result.decision)
    return [failure for served in served_digests
            for failure in check_same_plan(label, cold, served, COLD_COMPILE)]


def run_pool(fn, tasks: List[Any], workers: int) -> List[str]:
    """Run check tasks in a spawned pool; concatenate their failures.

    The pool's workers are joined and, once the pool is gone, so is the
    resource tracker that a spawn pool starts: no child outlives the call.
    """
    if not tasks:
        return []
    try:
        results = _pool_map(fn, tasks, workers)
    finally:
        stop_resource_tracker()
    return [failure for failures in results for failure in failures]


def _pool_map(fn, tasks: List[Any], workers: int) -> List[Any]:
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=max(1, min(workers, len(tasks)))) as pool:
        results = pool.map(fn, tasks, chunksize=1)
        pool.close()
        pool.join()
    return results


def stop_resource_tracker() -> None:
    """End and reap multiprocessing's resource tracker, if one was started.

    A spawn pool starts the tracker as a child that runs until this process
    exits and is never waited for, so it would outlive the benchmark.
    """
    import gc
    import sys

    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is None:
        return
    # Collect the pool's semaphores first, so the tracker has none to
    # report as leaked when it stops.
    gc.collect()
    stop = getattr(tracker_module._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
