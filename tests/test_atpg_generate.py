"""Unit tests for the full ATPG flow (the defender model)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg import (
    AtpgConfig,
    FaultSimulator,
    collapse_faults,
    generate_test_set,
    uncovered_faults,
)
from repro.atpg import generate as generate_module
from repro.atpg.testability import compute_testability
from repro.bench import c17, c432_like, c499_like, c880_like
from repro.netlist import Circuit, GateType
from tests.test_properties import random_circuits


def oracle_compact(simulator, patterns, faults, mode="auto"):
    """Re-simulating reverse-order compaction, kept as the oracle.

    Re-fault-simulates the baseline fault list once per pattern: drop row
    *r* iff the remaining rows still detect every fault the full set did.
    Returns the kept row indices.
    """
    full = simulator.run(patterns, faults, drop_detected=True, mode=mode)
    baseline = set(full.detected)
    keep = np.ones(patterns.shape[0], dtype=bool)
    for row in range(patterns.shape[0] - 1, -1, -1):
        keep[row] = False
        trial = simulator.run(
            patterns[keep], list(baseline), drop_detected=True, mode=mode
        )
        if set(trial.detected) != baseline:
            keep[row] = True
    return np.flatnonzero(keep)


def generate_with_oracle(circuit, config, monkeypatch):
    """Run the flow, and the oracle compaction + coverage on its inputs."""
    seen = []

    def capture(masks, patterns):
        seen.append(patterns)
        return real_compact(masks, patterns)

    real_compact = generate_module._compact
    monkeypatch.setattr(generate_module, "_compact", capture)
    ts = generate_test_set(circuit, config)
    monkeypatch.undo()
    faults = collapse_faults(circuit)
    simulator = FaultSimulator(circuit)
    expected = ts.patterns
    if seen:
        (matrix,) = seen
        kept = oracle_compact(simulator, matrix, faults, config.fault_sim_mode)
        expected = matrix[kept[: config.max_patterns]]
    covered = set(simulator.run(expected, faults).detected) if expected.size else set()
    return ts, expected, covered


class TestFlowOnC17:
    def test_full_coverage(self, c17_circuit):
        ts = generate_test_set(c17_circuit)
        assert ts.coverage == 1.0
        assert not ts.aborted
        assert not ts.untestable
        assert ts.n_patterns >= 1

    def test_coverage_claim_verified_by_simulation(self, c17_circuit):
        ts = generate_test_set(c17_circuit)
        sim = FaultSimulator(c17_circuit)
        outcome = sim.run(ts.patterns, collapse_faults(c17_circuit))
        assert len(outcome.detected) == ts.detected_faults

    def test_compaction_never_loses_coverage(self, c17_circuit):
        with_c = generate_test_set(c17_circuit, AtpgConfig(compaction=True))
        without = generate_test_set(c17_circuit, AtpgConfig(compaction=False))
        assert with_c.detected_faults == without.detected_faults
        assert with_c.n_patterns <= without.n_patterns

    def test_deterministic_given_seed(self, c17_circuit):
        a = generate_test_set(c17_circuit, AtpgConfig(seed=5))
        b = generate_test_set(c17_circuit, AtpgConfig(seed=5))
        assert (a.patterns == b.patterns).all()


class TestCompactionOracle:
    """Mask set cover vs. the re-simulating compaction it replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "build", [c17, c432_like, c499_like, c880_like], ids=lambda f: f.__name__
    )
    def test_benchmarks_identical(self, build, seed, monkeypatch):
        ts, expected, covered = generate_with_oracle(
            build(), AtpgConfig(seed=seed, backtrack_limit=20), monkeypatch
        )
        assert np.array_equal(ts.patterns, expected)
        assert ts.covered == covered
        assert ts.detected_faults == len(covered)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        random_circuits(max_gates=16),
        st.integers(0, 2**31),
        st.sampled_from([None, 1, 3]),
    )
    def test_random_netlists_identical(self, circuit, seed, max_patterns):
        with pytest.MonkeyPatch.context() as monkeypatch:
            config = AtpgConfig(
                seed=seed, random_blocks=2, block_size=8, max_patterns=max_patterns
            )
            ts, expected, covered = generate_with_oracle(circuit, config, monkeypatch)
        assert np.array_equal(ts.patterns, expected)
        assert ts.covered == covered

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(random_circuits(max_gates=16), st.integers(1, 200), st.integers(0, 2**31))
    def test_random_pattern_sets_identical(self, circuit, n_patterns, seed):
        rng = np.random.default_rng(seed)
        patterns = (rng.random((n_patterns, len(circuit.inputs))) < 0.5).astype(np.uint8)
        faults = collapse_faults(circuit)
        simulator = FaultSimulator(circuit)
        kept = generate_module._compact(
            simulator.detection_masks(patterns, faults), patterns
        )
        assert np.array_equal(kept, oracle_compact(simulator, patterns, faults))


class TestBudgets:
    def test_coverage_target_stops_early(self, c432_circuit):
        full = generate_test_set(c432_circuit, AtpgConfig(target_coverage=1.0,
                                                          backtrack_limit=20))
        capped = generate_test_set(c432_circuit, AtpgConfig(target_coverage=0.9,
                                                            backtrack_limit=20))
        assert capped.coverage <= full.coverage
        assert len(capped.not_attempted) >= len(full.not_attempted)

    def test_pattern_budget_truncates(self, c432_circuit):
        capped = generate_test_set(
            c432_circuit, AtpgConfig(max_patterns=10, backtrack_limit=20)
        )
        assert capped.n_patterns <= 10

    def test_testability_ordering_leaves_hard_faults(self, rare_node_circuit):
        """With SCOAP ordering and a tight coverage target, the rare-node
        faults (hardest) are exactly the unattempted ones."""
        ts = generate_test_set(
            rare_node_circuit,
            AtpgConfig(target_coverage=0.80, random_blocks=1, block_size=16),
        )
        hard = uncovered_faults(ts, collapse_faults(rare_node_circuit))
        measures = compute_testability(rare_node_circuit)
        if hard:
            easiest_uncovered = min(measures.fault_difficulty(f) for f in hard)
            covered = [f for f in collapse_faults(rare_node_circuit) if ts.covers(f)]
            median_covered = sorted(
                measures.fault_difficulty(f) for f in covered
            )[len(covered) // 2]
            assert easiest_uncovered >= median_covered


class TestUncoveredFaults:
    def test_uncovered_subset(self, c432_circuit):
        ts = generate_test_set(
            c432_circuit, AtpgConfig(target_coverage=0.9, backtrack_limit=10)
        )
        faults = collapse_faults(c432_circuit)
        unc = uncovered_faults(ts, faults)
        assert all(f not in ts.covered for f in unc)
        assert len(unc) + ts.detected_faults == len(faults)


class TestScoap:
    def test_primary_input_costs(self, c17_circuit):
        t = compute_testability(c17_circuit)
        assert t.cc0["N1"] == 1
        assert t.cc1["N1"] == 1

    def test_nand_controllability(self, c17_circuit):
        t = compute_testability(c17_circuit)
        # N10 = NAND(N1, N3): CC0 = CC1(N1)+CC1(N3)+1 = 3, CC1 = min CC0 + 1 = 2.
        assert t.cc0["N10"] == 3
        assert t.cc1["N10"] == 2

    def test_output_observability_zero(self, c17_circuit):
        t = compute_testability(c17_circuit)
        assert t.co["N22"] == 0
        assert t.co["N23"] == 0

    def test_deeper_nets_harder(self, rare_node_circuit):
        t = compute_testability(rare_node_circuit)
        # Setting the 8-wide AND to 1 costs all eight inputs.
        assert t.cc1["rare"] > t.cc1["r1"] > t.cc1["a0"]

    def test_tie_cells(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("one", GateType.TIE1, ())
        c.add_gate("out", GateType.AND, ("a", "one"))
        c.set_output("out")
        t = compute_testability(c)
        assert t.cc1["one"] == 0
        assert t.cc0["one"] >= 10**9  # unreachable

    def test_fault_difficulty_combines_both(self, rare_node_circuit):
        t = compute_testability(rare_node_circuit)
        from repro.atpg import StuckAtFault

        hard = t.fault_difficulty(StuckAtFault("rare", 0))  # excite to 1: hard
        easy = t.fault_difficulty(StuckAtFault("rare", 1))  # excite to 0: easy
        assert hard > easy

    def test_xor_controllability(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate("x", GateType.XOR, ("a", "b"))
        c.set_output("x")
        t = compute_testability(c)
        assert t.cc0["x"] == 3  # both-same: min(1+1, 1+1) + 1
        assert t.cc1["x"] == 3

    def test_mux_observability(self):
        c = Circuit()
        c.add_input("d0")
        c.add_input("d1")
        c.add_input("s")
        c.add_gate("m", GateType.MUX, ("d0", "d1", "s"))
        c.set_output("m")
        t = compute_testability(c)
        # d0 observable when s=0: CO = 0 + CC0(s) + 1 = 2.
        assert t.co["d0"] == 2
        assert t.co["d1"] == 2
        assert t.co["s"] == 3  # data must differ: min cross cost 2, +1
