"""Time one workload's set-up in a fresh interpreter and print it as JSON.

``run.py`` starts this several times per run and reports the median as
``setup_s``: imports only cost their full price in a new process.  The
clock starts before the program is imported and stops when the workload
could issue its first timed operation; tearing down (stopping the
service-mix server) is not timed.

    python3 perfbench/setup_probe.py <workload>
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402 — the clock above must start first
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    env = workloads.setup(sys.argv[1], ROOT / ".perfbench")
    raw_s = time.perf_counter() - _T0
    workloads.teardown(env)
    print(json.dumps({"raw_s": raw_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
