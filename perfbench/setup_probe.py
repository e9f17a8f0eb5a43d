"""Set-up time of a fresh interpreter for one workload.

``run.py`` starts this script as ``python3 perfbench/setup_probe.py
<workload> <seed>``. It prints two ``time.monotonic()`` stamps: when
``import rebalfreq`` finished, and when the workload's inputs were built
(the CLI parse of a table, or the YAML run configuration). The caller takes
both against the moment it started the process, so interpreter start-up is
included.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import rebalfreq  # noqa: E402,F401  the import is what is timed

imported = time.monotonic()

sys.path.insert(0, HERE)
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
built = time.monotonic()
print(imported, built)
