"""Self-tests of the benchmark.

Every output check is shown to pass on the program's real output and to
fail on a deliberately corrupted copy of it; every workload runs end to end
in smoke mode, untraced and traced.

Run: ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import common
import suite
from tracer import Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


@pytest.fixture(scope="module")
def tiny_plan():
    """A cold compile of the smoke zoo's first network on ascend-910."""
    from repro.hardware import preset
    from repro.runtime.network import compile_network
    from repro.workloads.networks import build_network

    common.clear_memos()
    cfg = common.SMOKE.zoo_configs()[0]
    return compile_network(build_network(cfg), preset("ascend-910"))


@pytest.fixture(scope="module")
def tiny_sim_plan():
    from repro.hardware import preset
    from repro.runtime.network import compile_network
    from repro.workloads.networks import build_network

    cfg = common.SMOKE.config(common.SMOKE.sim_zoo[0])
    return compile_network(build_network(cfg), preset("a100"),
                           timing="simulated")


def _replace_node(plan, index, **changes):
    nodes = list(plan.nodes)
    nodes[index] = dataclasses.replace(nodes[index], **changes)
    return dataclasses.replace(plan, nodes=tuple(nodes))


# ----------------------------------------------------------------------
# each check fails on a corrupted output
# ----------------------------------------------------------------------
class TestNumerics:
    def _run(self, tiny_plan):
        from repro.codegen import execute_reference, random_inputs
        from repro.codegen.executor import execute_program
        from repro.codegen.program import lower_plan

        plan = tiny_plan.nodes[0].plans[0]
        inputs = random_inputs(plan.chain, seed=3)
        got = execute_program(lower_plan(plan), inputs)
        return got, execute_reference(plan.chain, inputs)

    def test_real_output_passes(self, tiny_plan):
        got, expected = self._run(tiny_plan)
        assert checks.check_numerics("n", got, expected) == []

    def test_perturbed_array_fails(self, tiny_plan):
        got, expected = self._run(tiny_plan)
        name = next(iter(got))
        bad = dict(got)
        bad[name] = got[name].copy()
        bad[name].flat[0] += 1e-3
        assert checks.check_numerics("n", bad, expected)

    def test_missing_output_fails(self, tiny_plan):
        got, expected = self._run(tiny_plan)
        assert checks.check_numerics("n", {}, expected)

    def test_worker_entry_point(self, tiny_plan):
        from repro.runtime.serialization import plan_to_dict

        plan = tiny_plan.nodes[0].plans[0]
        assert checks.numerics_task(("n", plan_to_dict(plan), 1)) == []


class TestPlans:
    def test_roundtrip_passes(self, tiny_plan):
        assert checks.check_roundtrip(tiny_plan) == []

    def test_roundtrip_fails_on_edited_reload(self, tiny_plan, monkeypatch):
        from repro.runtime import serialization

        real = serialization.network_plan_from_dict

        def edited(data):
            plan = real(data)
            return _replace_node(plan, 0, repeat=plan.nodes[0].repeat + 1)

        monkeypatch.setattr(serialization, "network_plan_from_dict", edited)
        assert checks.check_roundtrip(tiny_plan)

    def test_swapped_plans_differ(self, tiny_plan):
        from repro.hardware import preset
        from repro.runtime.network import compile_network
        from repro.workloads.networks import build_network

        other = compile_network(
            build_network(common.SMOKE.zoo_configs()[2]), preset("ascend-910"))
        a, b = (common.network_plan_digest(p) for p in (tiny_plan, other))
        assert checks.check_same_plan("cell", a, a) == []
        assert checks.check_same_plan("cell", a, b)
        # The zoo's pass-to-pass determinism check sees a swap, too.
        assert suite._determinism_failures([[a, b], [b, a]],
                                           [tiny_plan, other])

    def test_edited_decision_differs(self, tiny_plan):
        from repro.core.fusion import FusionDecision

        plans = tiny_plan.nodes[0].plans
        decision = FusionDecision(fused_plan=plans[0], unfused_plans=plans,
                                  use_fusion=True)
        edited = dataclasses.replace(decision, use_fusion=False)
        assert checks.check_same_plan(
            "chain", common.decision_digest(decision),
            common.decision_digest(edited))


class TestRoofline:
    def test_real_plans_respect_roofline(self, tiny_plan, tiny_sim_plan):
        assert checks.check_node_rooflines(tiny_plan) == []
        assert checks.check_node_rooflines(tiny_sim_plan) == []
        assert checks.min_roofline_ratio(tiny_plan) >= 1.0

    def test_node_below_roofline_fails(self, tiny_plan):
        node = tiny_plan.nodes[0]
        bound = checks.roofline_bound(node.plans, tiny_plan.hardware)
        fast = _replace_node(tiny_plan, 0, time=bound * 0.5)
        failures = checks.check_node_rooflines(fast)
        assert len(failures) == 1 and node.name in failures[0]


class TestReplies:
    def _reply(self, source, warm_start, ok=True):
        from repro.serving.client import CompileReply

        return CompileReply(ok=ok, status=200 if ok else 500, source=source,
                            warm_start=warm_start, error=None if ok else "x")

    def test_hot_reply_from_cache_passes(self):
        reply = self._reply("memory", "exact")
        assert checks.check_reply_source("r", reply, from_cache=True) == []

    def test_hot_reply_compiled_fails(self):
        reply = self._reply("compiled", "near")
        assert checks.check_reply_source("r", reply, from_cache=True)

    def test_novel_reply_from_cache_fails(self):
        for source in ("memory", "disk"):
            reply = self._reply(source, "exact")
            assert checks.check_reply_source("r", reply, from_cache=False)

    def test_fallback_and_errors_fail(self):
        assert checks.check_reply_source(
            "r", self._reply("fallback", "cold"), from_cache=False)
        assert checks.check_reply_source(
            "r", self._reply(None, None, ok=False), from_cache=False)


class TestSimulated:
    def test_real_replay_and_ordering_pass(self, tiny_sim_plan):
        from repro.sim.residency import replay_schedule

        trace = replay_schedule(tiny_sim_plan.schedule)
        assert checks.check_replay(tiny_sim_plan, trace) == []
        assert checks.check_fused_not_slower(tiny_sim_plan) == []

    def test_replay_disagreement_fails(self, tiny_sim_plan):
        from repro.sim.residency import replay_schedule

        trace = replay_schedule(tiny_sim_plan.schedule)
        wrong = dataclasses.replace(trace, peak_bytes=trace.peak_bytes + 1)
        assert checks.check_replay(tiny_sim_plan, wrong)

    def test_fused_slower_than_unfused_fails(self, tiny_sim_plan):
        index = next(i for i, n in enumerate(tiny_sim_plan.nodes)
                     if n.fused and n.fusable)
        node = tiny_sim_plan.nodes[index]
        slow = _replace_node(tiny_sim_plan, index,
                             time=node.unfused_time * 1.5)
        assert checks.check_fused_not_slower(slow)


class TestKnownFaults:
    LABEL = next(iter(suite.KNOWN_FAULTS))

    def test_cold_compile_mismatch_is_known(self):
        failure, = checks.check_same_plan(self.LABEL, "a" * 64, "b" * 64,
                                          checks.COLD_COMPILE)
        assert suite.is_known_fault(failure)

    def test_same_mismatch_elsewhere_is_not(self):
        other = self.LABEL.replace("ascend-910", "a100")
        failure, = checks.check_same_plan(other, "a" * 64, "b" * 64,
                                          checks.COLD_COMPILE)
        assert not suite.is_known_fault(failure)

    def test_other_checks_on_a_known_label_are_not(self):
        from repro.serving.client import CompileReply

        def reply(source, warm_start, ok=True):
            return CompileReply(ok=ok, status=200 if ok else 500,
                                source=source, warm_start=warm_start,
                                error=None if ok else "x")

        failures = (
            checks.check_reply_source(self.LABEL, reply("memory", "exact"),
                                      from_cache=False)
            + checks.check_reply_source(self.LABEL, reply("fallback", "cold"),
                                        from_cache=False)
            + checks.check_reply_source(self.LABEL, reply(None, None, False),
                                        from_cache=False)
            + checks.check_same_plan(self.LABEL, "a" * 64, "b" * 64)
        )
        assert len(failures) == 4
        assert not any(suite.is_known_fault(f) for f in failures)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_tracer_patches_and_restores():
    from repro.core import fusion, solver
    from repro.core import search as search_mod

    original = solver.solve_tiles
    tracer = Tracer()
    tracer.install()
    try:
        assert solver.solve_tiles is not original
        assert search_mod.solve_tiles is solver.solve_tiles
        assert fusion.plan_unfused.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert solver.solve_tiles is original
    assert search_mod.solve_tiles is original


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()
    tracer.record("outer", lambda: tracer.record("inner", sum, [1, 2]))
    inner, outer = tracer.spans
    assert inner.parent == outer.span_id
    self_of = tracer.self_times()
    assert self_of[outer.span_id] == pytest.approx(
        outer.duration - inner.duration)
    events = tracer.chrome_events(pid=1, origin=outer.start)
    assert {e["name"] for e in events} == {"outer", "inner"}


# ----------------------------------------------------------------------
# end to end, smoke mode
# ----------------------------------------------------------------------
def _run(*args, cwd=ROOT):
    """Run the benchmark in a session of its own; no process may outlive it."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd,
        start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=300)
    assert _session_members(proc.pid) == [], "a child outlived the run"
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout,
                                       stderr)


def _session_members(sid):
    """Pids (zombies too) still in session ``sid``; [] without /proc."""
    if not os.path.isdir("/proc/self"):
        return []
    members = []
    for entry in os.listdir("/proc"):
        try:
            if entry.isdigit() and os.getsid(int(entry)) == sid:
                members.append(int(entry))
        except OSError:
            continue
    return members


@pytest.mark.parametrize("workload", sorted(suite.RUNNERS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = suite.PER_LAYER if trace else suite.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        path = done.stdout.split("chrome trace: ", 1)[1].splitlines()[0]
        with open(path, encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "benchmark" in names
        if workload == "serve-novel":  # its compiles run in the server
            assert "server" in names
            assert any(e["name"] == "core.optimize" for e in events)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        suite.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        suite.PER_LAYER)


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out",
                                                  "__pycache__"))
    done = _run("--workload", "zoo-cold", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
