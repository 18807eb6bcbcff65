"""Shared pieces of the benchmark: paths, inputs, memos, statistics, digests.

The benchmark runs from the root of a source checkout and imports the
program from ``src/`` of that checkout, never from an installed copy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import resource
import sys
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no program to benchmark."""


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` (and for children)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program at {SRC / 'repro'}")
    src = str(SRC)
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    parts = [src] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
#: The three presets of the paper's Table I, and the multi-core preset
#: where placement partitions (attention at p8).
PAPER_PRESETS = ("xeon-gold-6240", "a100", "ascend-910")
ZOO_PRESETS = PAPER_PRESETS + ("mesh-npu-16",)


@dataclasses.dataclass(frozen=True)
class Inputs:
    """The make-up of one benchmark size (full, or smoke)."""

    #: the zoo networks: a name in ``repro.workloads.NETWORKS``, or
    #: (name, layers, heads, seq, head_dim).
    zoo: Tuple[Any, ...]
    #: the zoo network whose kernels are executed numerically.
    numerics_network: str
    #: networks and presets of ``zoo-simulated``.
    sim_zoo: Tuple[str, ...]
    sim_presets: Tuple[str, ...]
    #: the cell every non-simulated workload also simulates.
    sim_probe: Tuple[str, str]
    #: (heads, seq, head_dim) of the novel transformers of ``serve-novel``.
    novel: Tuple[Tuple[int, int, int], ...]
    novel_presets: Tuple[str, ...]
    #: requests of one ``serve-novel`` round (a unit for per-round figures).
    novel_round: int

    def zoo_configs(self):
        from repro.workloads.networks import NetworkConfig, network_config

        return [
            network_config(entry) if isinstance(entry, str)
            else NetworkConfig(*entry)
            for entry in self.zoo
        ]

    def config(self, name: str):
        for cfg in self.zoo_configs():
            if cfg.name == name:
                return cfg
        raise KeyError(name)


FULL = Inputs(
    zoo=("Bert-Small", "Bert-Base", "ViT-Base/14", "TF-Base"),
    numerics_network="ViT-Base/14",
    sim_zoo=("Bert-Small",),
    sim_presets=PAPER_PRESETS,
    sim_probe=("Bert-Small", "a100"),
    # Each novel shape lies near one zoo network, in its own direction
    # (seq x1.19; or heads +1, seq x0.91; or heads -1, seq x0.91), so it is
    # nearer its zoo parent than to any other shape the cache will hold:
    # the warm-start neighbour, and so the work per request, does not
    # depend on the seeded order of the stream.
    novel=(
        (8, 608, 64), (9, 464, 66), (7, 464, 62),  # around Bert-Small
        (12, 608, 64), (13, 464, 68),  # around Bert-Base
        (12, 304, 64), (13, 232, 68),  # around ViT-Base/14
    ),
    novel_presets=ZOO_PRESETS,
    novel_round=8,
)

# Tiny shapes: every workload, check and the traced path in seconds.
# Tiny-B repeats Tiny-A's shapes, as TF-Base repeats Bert-Base's.
SMOKE = Inputs(
    zoo=(
        ("Tiny-A", 2, 2, 64, 16),
        ("Tiny-B", 3, 2, 64, 16),
        ("Tiny-C", 1, 4, 32, 8),
    ),
    numerics_network="Tiny-A",
    sim_zoo=("Tiny-C",),
    sim_presets=PAPER_PRESETS,
    sim_probe=("Tiny-C", "a100"),
    novel=((2, 76, 16), (3, 58, 17), (4, 38, 8), (5, 29, 9)),
    novel_presets=("a100", "mesh-npu-16"),
    novel_round=4,
)


def clear_memos() -> None:
    """Empty the process-global solve, tables and schedule memos."""
    from repro.codegen.schedule import clear_schedule_memo
    from repro.core.search import reset_search_stats, solve_memo
    from repro.core.tables import clear_tables_memo

    solve_memo().clear()
    clear_tables_memo()
    clear_schedule_memo()
    reset_search_stats()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile within the sample range (q in 0..100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def network_plan_digest(plan) -> str:
    from repro.runtime.serialization import network_plan_json

    return sha256(network_plan_json(plan))


def decision_json(decision) -> str:
    """Canonical JSON of a fuse-or-not decision's plans."""
    from repro.runtime.serialization import plan_to_dict

    return json.dumps(
        {
            "use_fusion": decision.use_fusion,
            "fused_plan": (
                None if decision.fused_plan is None
                else plan_to_dict(decision.fused_plan)
            ),
            "unfused_plans": [
                plan_to_dict(plan) for plan in decision.unfused_plans
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def decision_digest(decision) -> str:
    return sha256(decision_json(decision))


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def self_rss_peak_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_rss_peak_mb(pid: int) -> Optional[float]:
    """Peak resident set of another live process, from /proc."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
