"""Span tracer for the benchmark's traced runs.

Spans are recorded around calls into each layer's public functions.  The
functions are wrapped from here, at run time, so the program itself carries
no tracing code: :meth:`Tracer.patch` replaces a function (or method) in its
defining module and in every ``repro`` module that imported it by name.

Spans are kept in memory and written out when the run ends, either as a
Chrome trace-event JSON (``chrome://tracing`` and https://ui.perfetto.dev
open it) or as per-name totals.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute) for every layer boundary the benchmark
#: times.  ``attribute`` may be ``Class.method``.
LAYER_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("ir.partition", "repro.ir.graph", "partition_graph"),
    ("core.optimize", "repro.core.optimizer", "ChimeraOptimizer.optimize"),
    ("core.plan_unfused", "repro.core.fusion", "plan_unfused"),
    ("core.placement", "repro.core.multicore", "best_partitioned_plan"),
    ("core.solve_tiles", "repro.core.solver", "solve_tiles"),
    ("codegen.lower", "repro.runtime.pipeline", "kernels_for_decision"),
    ("runtime.schedule", "repro.runtime.scheduler", "schedule_partition"),
    ("runtime.decode", "repro.serving.client", "CompileReply.decode"),
    ("sim.simulate", "repro.sim.profiler", "simulate_sequence"),
    ("sim.replay", "repro.sim.residency", "replay_schedule"),
)


@dataclasses.dataclass
class Span:
    """One timed call: ids, name, start/end (perf_counter seconds)."""

    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    args: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans per thread; thread-safe by construction.

    Each thread keeps its own stack of open spans (the parent of a new
    span is the innermost open span of the same thread).  Finished spans
    are appended to one list; ``list.append`` is atomic under the GIL.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self, name: str, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Any:
        """Call ``fn`` inside a span called ``name``; return its result."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = Span(span_id, parent, name, start, end, threading.get_ident())
        # A SimReport's block count rides on its span (sim.blocks).
        blocks = getattr(result, "blocks", None)
        if isinstance(blocks, int):
            span.args["blocks"] = blocks
        self.spans.append(span)
        return result

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.record(name, fn, *args, **kwargs)

        return traced

    def patch(self, name: str, module: str, attribute: str) -> None:
        """Wrap ``module.attribute`` wherever ``repro`` code can reach it."""
        owner: Any = importlib.import_module(module)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if path else getattr(owner, leaf)
        traced = self.wrap(name, original)
        self._set(owner, leaf, traced)
        if path:
            return
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is owner:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def _set(self, owner: Any, key: str, value: Any) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every function of :data:`LAYER_SPANS`."""
        for name, module, attribute in LAYER_SPANS:
            self.patch(name, module, attribute)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, value = self._patched.pop()
            setattr(owner, key, value)

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = (
                    covered.get(span.parent, 0.0) + span.duration
                )
        return {
            span.span_id: span.duration - covered.get(span.span_id, 0.0)
            for span in self.spans
        }

    def ancestors(self) -> Dict[int, Tuple[str, ...]]:
        """Span id -> names of every enclosing span, innermost first."""
        by_id = {span.span_id: span for span in self.spans}
        result: Dict[int, Tuple[str, ...]] = {}
        for span in self.spans:
            names = []
            parent = span.parent
            while parent is not None and parent in by_id:
                names.append(by_id[parent].name)
                parent = by_id[parent].parent
            result[span.span_id] = tuple(names)
        return result

    def table(self) -> List[Dict[str, Any]]:
        """Per-name calls, inclusive and self seconds, largest self first."""
        self_of = self.self_times()
        rows: Dict[str, Dict[str, Any]] = {}
        for span in self.spans:
            row = rows.setdefault(
                span.name, {"name": span.name, "calls": 0,
                            "total_s": 0.0, "self_s": 0.0},
            )
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += self_of[span.span_id]
        return sorted(rows.values(), key=lambda r: -r["self_s"])

    def chrome_events(self, pid: int, origin: float) -> List[Dict[str, Any]]:
        """Complete ("X") trace events, in microseconds after ``origin``.

        ``perf_counter`` is one monotonic clock for every process of the
        host on Linux, so spans of several processes share ``origin``.
        """
        return [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": span.thread,
                "args": {"id": span.span_id, "parent": span.parent,
                         **span.args},
            }
            for span in self.spans
        ]

    def dump(self, path: str) -> None:
        """Write the raw spans (for merging across processes)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dataclasses.asdict(s) for s in self.spans], handle)

    @staticmethod
    def load(path: str) -> "Tracer":
        tracer = Tracer()
        with open(path, encoding="utf-8") as handle:
            tracer.spans = [Span(**data) for data in json.load(handle)]
        return tracer


def render_table(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'span':<22}{'calls':>8}{'total_s':>12}{'self_s':>12}"]
    for row in rows:
        lines.append(
            f"{row['name']:<22}{row['calls']:>8}"
            f"{row['total_s']:>12.4f}{row['self_s']:>12.4f}"
        )
    return "\n".join(lines)
