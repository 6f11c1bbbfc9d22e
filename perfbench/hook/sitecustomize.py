"""Startup hook: traces processes the program itself spawns.

The traced cluster run puts this directory on ``PYTHONPATH`` of the
router, whose ``python -m repro serve --worker-index ...`` children
inherit it, so each worker installs the span wrappers at interpreter
start-up.  Without ``PERFBENCH_TRACE_DIR`` it does nothing.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracer

    tracer.install_from_env()
