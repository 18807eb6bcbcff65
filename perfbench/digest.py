"""Print the sha256 of every zoo plan and every served plan.

Usage (from the root of a source checkout)::

    python3 perfbench/digest.py > digests.txt

One line per plan: ``<sha256>  <kind> <name>``.  ``zoo`` lines hash
``network_plan_json`` of a cold ``compile_network`` per (network, preset)
cell; ``served`` lines hash the decoded plans that ``python -m repro serve``
returns for the zoo's chains (cache hits) and for the novel grid of
``serve-novel`` (fresh compiles).  It checks nothing: diff the output of two
commits to see whether a change kept the plans byte-identical.  The digests
are computed afresh on every run and never stored.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    FULL,
    ZOO_PRESETS,
    clear_memos,
    network_plan_digest,
    use_checkout_source,
)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(
        argv)
    use_checkout_source()
    import suite
    from repro.hardware import preset
    from repro.runtime.network import compile_network
    from repro.workloads.networks import build_network

    inputs = FULL
    for cfg in inputs.zoo_configs():
        dag = build_network(cfg)
        for name in ZOO_PRESETS:
            clear_memos()
            plan = compile_network(dag, preset(name))
            print(f"{network_plan_digest(plan)}  zoo {cfg.name}/{name}",
                  flush=True)

    (suite.BENCH_DIR / ".work").mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="digest-",
                                dir=suite.BENCH_DIR / ".work")
    try:
        ctx = suite.Context(inputs=inputs, seed=0, seconds=0.0, tracer=None,
                            started=time.perf_counter(), workers=2,
                            work_dir=work_dir)
        _, zoo_requests, _, _ = suite.fill_cache(ctx, work_dir)
        novel = suite.novel_requests(inputs, {r.key for r in zoo_requests})
        server = suite.Server(ctx, work_dir)
        try:
            served, _ = suite.drive(server.port, zoo_requests + novel,
                                    connections=1, deadline=None,
                                    cycle=False)
        finally:
            server.stop()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for item in served:
        print(f"{item.digest or 'error'}  served {item.request.label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
