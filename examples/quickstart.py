#!/usr/bin/env python3
"""Quickstart: run the full TrojanZero flow on one benchmark circuit.

Reproduces the paper's Fig. 2 pipeline end to end:

1. Phase A  — verify the HT-free circuit, generate the defender's stuck-at
   ATPG test patterns, and freeze the power/area thresholds.
2. Algorithm 1 — find rarely-activated candidate gates and salvage the ones
   the defender's tests cannot see.
3. Algorithm 2 — insert a counter-based hardware Trojan (Fig. 4) and pad so
   the infected circuit matches the HT-free thresholds.

Run:  python examples/quickstart.py [OUT.bench]

With an output path, the TZ-infected netlist is also written there as an
ISCAS ``.bench`` file; without one, nothing is written.
"""

import sys
from typing import Optional

from repro.bench import c432_like, save_bench
from repro.core import TableRow, TrojanZeroPipeline, format_table


def main(out_path: Optional[str] = None) -> None:
    circuit = c432_like()
    print(f"Target circuit: {circuit}")

    pipeline = TrojanZeroPipeline.default()
    result = pipeline.run(circuit, p_threshold=0.975, counter_bits=2)

    print()
    print(result.summary())
    print()

    ts = result.thresholds.test_set
    print(
        f"Defender ATPG: {ts.n_patterns} patterns, "
        f"{100 * ts.coverage:.1f}% stuck-at coverage "
        f"({len(ts.aborted)} aborted, {len(ts.not_attempted)} beyond budget)"
    )

    accepted = result.salvage.accepted_removals()
    print(f"\nAlgorithm 1 accepted {len(accepted)} candidate removals:")
    for record in accepted[:8]:
        stripped = f" (+{len(record.stripped_gates)} stripped)" if record.stripped_gates else ""
        print(f"  tie {record.net} -> {record.tied_value}{stripped}")

    if result.success:
        print(f"\nAlgorithm 2 placed {result.insertion.design.name} "
              f"on victim net {result.insertion.victim!r}, "
              f"clocked by rare node {result.insertion.instance.clock_source!r}")
        print(f"Dummy padding: {len(result.insertion.dummy_gates)} cells")
        print()
        print(format_table([TableRow.from_result(result)]))

        if out_path is not None:
            save_bench(result.insertion.infected, out_path)
            print(f"\nTZ-infected netlist written to {out_path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
