"""Time one set-up of a workload in this fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON object: ``import_s`` (import exceedlab) and ``config_s``
(build and validate the workload's config, resolve its level).
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import exceedlab  # noqa: E402
from exceedlab import experiments  # noqa: E402

t1 = time.perf_counter()
import workloads  # noqa: E402

experiments.resolve_level(workloads.config(sys.argv[1], int(sys.argv[2])))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "module": exceedlab.__file__}))
