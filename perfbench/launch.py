"""Run the ``repro`` CLI with the benchmark's span wrappers installed.

    PERFBENCH_TRACE_DIR=DIR python perfbench/launch.py serve --port 0

The traced equivalent of ``python -m repro ...``: wrappers go in before
the command runs, and spans land in ``DIR/spans-<pid>.json`` on
``SIGUSR1`` and at exit.
"""

import sys

import tracer

if __name__ == "__main__":
    tracer.install_from_env()
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
