"""Cold set-up of one workload, in a fresh interpreter: import bandpos
(numpy included) and make the workload's first operation once.

    python3 perfbench/cold.py <workload> <seed> <workdir>

run.py starts it several times and reports the median.  Building the
inputs is not counted.  Prints one JSON line: setup_s, ok and failure.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
import bandpos  # noqa: E402,F401

if workload == "cli-exact":
    import bandpos.cli  # noqa: E402,F401
T1 = time.perf_counter()

from run import WORKLOADS  # noqa: E402
from spans import NullTracer  # noqa: E402

op = importlib.import_module(WORKLOADS[workload]).build(seed, workdir)[0]
T2 = time.perf_counter()
value = op.run(NullTracer())
T3 = time.perf_counter()
failure = op.check(value)
print(json.dumps({"setup_s": (T1 - T0) + (T3 - T2), "ok": failure is None, "failure": failure}))
