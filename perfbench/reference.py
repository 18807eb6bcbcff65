"""Print the reference figures README.md records for a commit.

Usage (from the root of a source checkout)::

    python3 perfbench/reference.py

Prints, per zoo cell of a cold compile, the predicted speedup over the
all-unfused plan and the smallest node time over roofline ratio, the
tables-memo hit rate of the pass, and, per node of the zoo-simulated cells,
the predicted and simulated time.  Nothing here is a gate.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    FULL,
    ZOO_PRESETS,
    clear_memos,
    use_checkout_source,
)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(
        argv)
    use_checkout_source()
    import checks
    from repro.core.tables import tables_memo_stats
    from repro.hardware import preset
    from repro.runtime.network import compile_network
    from repro.workloads.networks import build_network

    inputs = FULL
    clear_memos()
    print(f"{'cell':<32}{'ms':>10}{'vs unfused':>12}{'min/roofline':>14}")
    for cfg in inputs.zoo_configs():
        dag = build_network(cfg)
        for name in ZOO_PRESETS:
            plan = compile_network(dag, preset(name))
            print(f"{cfg.name + '/' + name:<32}{plan.total_time * 1e3:>10.4f}"
                  f"{plan.speedup_over_unfused:>11.2f}x"
                  f"{checks.min_roofline_ratio(plan):>14.2f}")
    memo = tables_memo_stats()
    lookups = memo["hits"] + memo["misses"]
    print(f"tables memo: {memo['hits']} hits, {memo['misses']} misses, "
          f"{memo['evictions']} evictions at capacity {memo['capacity']} "
          f"({memo['hits'] / lookups:.1%} hit rate)")

    print(f"\n{'simulated node':<60}{'pred us':>10}{'sim us':>10}"
          f"{'pred/sim':>10}")
    for network in inputs.sim_zoo:
        dag = build_network(inputs.config(network))
        for name in inputs.sim_presets:
            plan = compile_network(dag, preset(name), timing="simulated")
            for node in plan.nodes:
                predicted = sum(p.predicted_time for p in node.plans)
                print(f"{network + '/' + name + '/' + node.name:<60}"
                      f"{predicted * 1e6:>10.2f}{node.time * 1e6:>10.2f}"
                      f"{predicted / node.time:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
