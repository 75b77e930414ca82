"""Regenerate ``goldens.json``: the payload digest of every cell each
workload runs at the default seed, for ``run.py`` to check against.

Run it only when payloads are meant to change.  It runs each workload for
``run_seconds`` of ``BENCHMARK.json``; a run's rounds are fixed by its
seconds, so this covers every cell a run of that length (or shorter, such
as each half of a traced run) computes.

    python3 perfbench/make_goldens.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import hostspeed
    import workloads

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    goldens = {}
    for workload in workloads.WORKLOADS:
        env = workloads.setup(workload, ROOT / ".perfbench")
        try:
            result = workloads.run_pass(
                env, workloads.DEFAULT_SEED, seconds, hostspeed.HostIndex()
            )
        finally:
            workloads.teardown(env)
        if result.failures:
            print("\n".join(result.failures), file=sys.stderr)
            return 1
        goldens[workload] = {
            key: digest[: workloads.GOLDEN_HEX] for key, digest in result.digests.items()
        }
        print(f"{workload}: {len(goldens[workload])} cells")
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
