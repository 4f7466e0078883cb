"""Run the bipot CLI with layer tracing.

    python perfbench/traced_cli.py <bipot arguments>

Behaves like ``python -m bipot.cli`` (same report bytes, same exit code) and
writes spans to the file named by ``PERFBENCH_SPANS``. ``PERFBENCH_SPAWN_T``
is the ``time.monotonic()`` reading taken by the parent just before the
spawn, so the span ``cli.startup`` runs from spawn to entering ``main``.
"""

import os
import sys
import time

import bipot.cli

from tracer import Tracer

tracer = Tracer(os.environ["PERFBENCH_SPANS"], os.environ.get("PERFBENCH_OP", ""))
tracer.install()
tracer.add_span("cli.startup", float(os.environ["PERFBENCH_SPAWN_T"]),
                time.monotonic())
sys.exit(bipot.cli.main(sys.argv[1:]))
