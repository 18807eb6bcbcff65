"""``python -m repro serve`` with the layer spans recorded.

Usage: ``python perfbench/serve_traced.py SPANS.json serve --port 0 ...``

Installs the benchmark's span wrappers, runs the server's own command line,
and writes the recorded spans to ``SPANS.json`` once the server has
drained.  Only traced runs use it; untraced runs start the server with
``python -m repro serve`` directly.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import use_checkout_source  # noqa: E402


def main() -> int:
    use_checkout_source()
    from repro.__main__ import main as repro_main
    from tracer import Tracer

    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
