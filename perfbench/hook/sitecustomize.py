"""Interpreter start-up hook for the traced benchmark runs.

``perfbench/run.py`` puts this directory on ``PYTHONPATH`` and sets
``PERFBENCH_TRACE_DIR`` only for a traced run.  Python imports
``sitecustomize`` at start-up in every interpreter, so the hook reaches the
CLI process and each ``spawn`` worker alike; without the variable it does
nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import layer_trace

    layer_trace.install(os.environ["PERFBENCH_TRACE_DIR"])
