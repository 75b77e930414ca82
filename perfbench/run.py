"""TrojanZero cell benchmark: one workload, its metrics, its output checks.

    python3 perfbench/run.py --workload table1-grid --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``.  With ``--trace 0`` it measures the workload and reports the
end-to-end metrics; with ``--trace 1`` it runs the workload twice, for
half the seconds each, untraced and then with every layer's public
functions wrapped in spans (``layers.py``), and reports the per-layer
metrics plus ``trace.overhead`` (traced over untraced ``cells_per_s``).

Every timing is host-normalized (``hostspeed.py``) and printed beside its
raw twin and sample count.  Each cell's payload digest is printed; at the
default seed it is compared with ``goldens.json``.  The last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is 1 if any output check failed and 2 if the program or
the arguments are missing.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 60
#: String hashing is randomized per process, and the dict layouts it gives
#: moved service-mix fresh-job latency by ±15% between processes (±2% with
#: a fixed seed), so every run uses the same one.
HASH_SEED = "0"

import hostspeed  # noqa: E402 — sibling modules, found via the script's directory
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_samples(workload: str, index) -> list:
    """Raw set-up seconds of :data:`SETUP_PROBES` fresh interpreters, with
    a kernel burst after each."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_PROBE_TIMEOUT_S,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["raw_s"])
        index.sample(workloads.CELL_SAMPLES, samples[-1])
    return samples


def _traced_pass(args, index):
    """Second, traced pass: fresh set-up, cold compile cache, hooks on."""
    workloads.clear_compile_cache()
    env = workloads.setup(args.workload, RUN_DIR)
    tracer = spans.Tracer()
    installed = spans.Installed(tracer, layers.HOOKS)
    try:
        result = workloads.run_pass(env, args.seed, args.seconds / 2, index, tracer)
    finally:
        installed.remove()
        workloads.teardown(env)
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(RUN_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    for missing in installed.missing:
        print(f"hook absent: {missing}")
    metrics = layers.span_metrics(tracer.spans, installed.absent_spans)
    metrics.update(workloads.per_cell_compile([result]))
    return result, metrics


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The index allocates its arrays before the program does, so where they
    # land in memory does not depend on the program's own allocations.
    index = hostspeed.HostIndex()
    sys.path.insert(0, str(ROOT / "src"))

    setup_raw = _setup_samples(args.workload, index)
    setup_ref_s = index.take()
    env = workloads.setup(args.workload, RUN_DIR)
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        passes = [workloads.run_pass(env, args.seed, seconds, index)]
    finally:
        workloads.teardown(env)
    if args.trace:
        traced, layer_metrics = _traced_pass(args, index)
        passes.append(traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.seed == workloads.DEFAULT_SEED:
        goldens = json.loads((HERE / "goldens.json").read_text())[args.workload]
        for p in passes:
            for key in workloads.golden_mismatches(p.digests, goldens):
                p.fail(p.op_of[key], f"{key}: payload digest differs from golden")
    failures = [msg for p in passes for msg in p.failures]
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(1 for p in passes for op in p.ops if op.failed)

    ref_s = index.ref_s
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} host.ref_s={ref_s:.6f} setup.ref_s={setup_ref_s:.6f} "
          f"kernel_samples={index.n_samples}")
    for p in passes:
        for key, digest in p.digests.items():
            print(f"digest {key} sha256={digest} raw_s={p.op_of[key].raw_s:.4f}")
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)

    setup_s = statistics.median(setup_raw)
    fail_frac = failed / max(attempted, 1)
    e2e = {
        "setup_s": {"value": hostspeed.normalize(setup_s, setup_ref_s), "raw": setup_s,
                    "n": len(setup_raw), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "raw": peak_rss_mb, "n": 1, "unit": "MB"},
        "fail_frac": {"value": fail_frac, "raw": fail_frac, "n": attempted, "unit": "ratio"},
    }
    e2e.update(workloads.end_to_end(passes[:1], ref_s))
    if args.trace:
        e2e.update({"traced." + k: m for k, m in workloads.end_to_end(passes[1:], ref_s).items()})
    for name, m in sorted(e2e.items()):
        print(f"metric {name} value={m['value']:.6g} unit={m['unit']} "
              f"raw={m['raw']:.6g} n={m['n']}")

    if args.trace:
        measured = dict(layer_metrics, **{"host.ref_s": ref_s})
        if "cells_per_s" in e2e and "traced.cells_per_s" in e2e:
            measured["trace.overhead"] = (
                e2e["traced.cells_per_s"]["value"] / e2e["cells_per_s"]["value"]
            )
        wanted = bench["per_layer"]
    else:
        measured = {name: m["value"] for name, m in e2e.items()}
        wanted = bench["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
            if args.trace:
                print(f"layer {m['name']} value={measured[m['name']]:.6g} unit={m['unit']}")
        else:
            print(f"absent: {m['name']}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replace this process (no child to wait for) with one whose string
        # hashing is fixed; the set-up probes inherit the variable.
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
