"""Differential tests: compiled sequential engine vs. the reference dict engine.

The compiled sequential schedule (DFF outputs as source rows, vectorized
edge-driven state update) must be bit-exact against the retained per-gate
dict engine (``reference_step_packed`` / ``ReferenceSequentialSimulator``)
on Trojan-infected N'/N'' circuits: counter triggers, asynchronous ripple
edges, multi-word sequence batches, and the pure-combinational degenerate
case.  Also covers the structural-fingerprint compile cache and the patched
(tie/strip) compiles that salvage's edit/revert loop relies on.
"""

import numpy as np
import pytest

from repro.atpg import FaultSimulator, full_fault_list
from repro.bench import c17, c432_like, c880_like
from repro.netlist import Circuit, GateType
from repro.netlist.transform import strip_dead_logic, tie_net_to_constant
from repro.prob.montecarlo import mc_signal_probabilities, mc_toggle_rates
from repro.sim import BitSimulator, compile_circuit
from repro.sim.compiled import COMPILE_STATS, CompiledCircuit
from repro.sim.seqsim import SequentialSimulator
from repro.trojan import insert_counter_trojan
from repro.trojan.trigger import monte_carlo_pft
from tests.oracles import ReferenceSequentialSimulator, reference_fault_sim


def infected_c17(n_bits=2):
    c = c17()
    instance = insert_counter_trojan(c, "N22", "N10", n_bits=n_bits)
    return c, instance


def infected_c880(n_bits=3):
    c = c880_like()
    instance = insert_counter_trojan(
        c, victim=c.outputs[1], clock_source=c.internal_nets()[40], n_bits=n_bits
    )
    return c, instance


def ripple_counter_circuit(n_bits):
    c = Circuit(f"ripple{n_bits}")
    c.add_input("clk")
    clock = "clk"
    for k in range(n_bits):
        c.add_gate(f"q{k}", GateType.DFF, (f"qn{k}", clock))
        c.add_gate(f"qn{k}", GateType.NOT, (f"q{k}",))
        c.set_output(f"q{k}")
        clock = f"qn{k}"
    return c


def random_sequences(circuit, n_seqs, n_steps, seed=0, p_one=0.5):
    rng = np.random.default_rng(seed)
    return (rng.random((n_seqs, n_steps, len(circuit.inputs))) < p_one).astype(
        np.uint8
    )


def assert_sequences_match(circuit, sequences, watch=None):
    """Compiled and reference engines agree on every watched net, every step."""
    watch = list(watch) if watch is not None else list(circuit.nets)
    got = SequentialSimulator(circuit).run_sequences_nets(sequences, watch)
    want = ReferenceSequentialSimulator(circuit).run_sequences_nets(sequences, watch)
    assert got.shape == want.shape
    assert (got == want).all()


class TestInfectedCircuits:
    @pytest.mark.parametrize("n_bits", [1, 2, 3])
    def test_counter_trigger_all_nets(self, n_bits):
        circuit, instance = infected_c17(n_bits)
        seqs = random_sequences(circuit, 40, 30, seed=n_bits)
        assert_sequences_match(circuit, seqs)

    def test_counter_trigger_fires_identically(self):
        circuit, instance = infected_c17(2)
        # Deterministic edge pump: N10 = NAND(N1, N3) rises on the 0-vector.
        steps = []
        for _ in range(6):
            steps.append([1, 0, 1, 0, 0])
            steps.append([0, 0, 0, 0, 0])
        seqs = np.array(steps, dtype=np.uint8)[np.newaxis]
        watch = [instance.trigger_net, *instance.state_nets]
        got = SequentialSimulator(circuit).run_sequences_nets(seqs, watch)
        want = ReferenceSequentialSimulator(circuit).run_sequences_nets(seqs, watch)
        assert (got == want).all()
        assert got[0, :, 0].any()  # the trigger actually fires in this pump

    def test_infected_c880_outputs_and_trigger(self):
        circuit, instance = infected_c880(3)
        seqs = random_sequences(circuit, 70, 25, seed=7)
        watch = [*circuit.outputs, instance.trigger_net, *instance.state_nets]
        assert_sequences_match(circuit, seqs, watch)


class TestRippleEdges:
    @pytest.mark.parametrize("n_bits", [1, 3, 5])
    def test_async_ripple_chain(self, n_bits):
        circuit = ripple_counter_circuit(n_bits)
        seqs = random_sequences(circuit, 64, 60, seed=n_bits, p_one=0.4)
        assert_sequences_match(circuit, seqs)

    def test_held_high_clock_single_edge(self):
        circuit = ripple_counter_circuit(2)
        seqs = np.array([[[0], [1], [1], [1], [0], [1]]], dtype=np.uint8)
        assert_sequences_match(circuit, seqs)


class TestMultiWordSequences:
    def test_batches_crossing_word_boundaries(self):
        circuit, _ = infected_c17(2)
        for n_seqs in (1, 63, 64, 65, 130):
            seqs = random_sequences(circuit, n_seqs, 12, seed=n_seqs)
            assert_sequences_match(circuit, seqs)

    def test_chunked_extraction_matches_unchunked(self, monkeypatch):
        circuit, instance = infected_c17(2)
        seqs = random_sequences(circuit, 10, 40, seed=3)
        watch = list(circuit.nets)
        want = SequentialSimulator(circuit).run_sequences_nets(seqs, watch)
        monkeypatch.setattr("repro.sim.seqsim._CHUNK_WORD_BUDGET", 4)
        got = SequentialSimulator(circuit).run_sequences_nets(seqs, watch)
        assert (got == want).all()


class TestCombinationalDegenerate:
    def test_pure_combinational_circuit(self, c17_circuit):
        seqs = random_sequences(c17_circuit, 50, 10, seed=9)
        assert_sequences_match(c17_circuit, seqs)

    def test_matches_bitsimulator(self, c17_circuit):
        pats = random_sequences(c17_circuit, 30, 1, seed=5)[:, 0, :]
        seq_out = SequentialSimulator(c17_circuit).run_sequences(pats[np.newaxis])[0]
        comb_out = BitSimulator(c17_circuit).run(pats)
        assert (seq_out == comb_out).all()


class TestConsumerBitIdentity:
    """monte_carlo_pft / mc_* give bit-identical results on either engine."""

    def test_monte_carlo_pft(self, monkeypatch):
        circuit, instance = infected_c17(2)
        got = monte_carlo_pft(
            circuit, instance, n_test_vectors=40, n_sessions=96,
            rng=np.random.default_rng(11),
        )
        monkeypatch.setattr(
            "repro.trojan.trigger.SequentialSimulator", ReferenceSequentialSimulator
        )
        want = monte_carlo_pft(
            circuit, instance, n_test_vectors=40, n_sessions=96,
            rng=np.random.default_rng(11),
        )
        assert got == want

    def test_mc_toggle_rates_sequential(self, monkeypatch):
        circuit, _ = infected_c17(2)
        got = mc_toggle_rates(circuit, n_vectors=256, rng=np.random.default_rng(4))
        monkeypatch.setattr(
            "repro.prob.montecarlo.SequentialSimulator", ReferenceSequentialSimulator
        )
        want = mc_toggle_rates(circuit, n_vectors=256, rng=np.random.default_rng(4))
        assert set(got) == set(want)
        for net in got:
            assert got[net].value == want[net].value, net

    def test_mc_signal_probabilities_sequential(self, monkeypatch):
        circuit, _ = infected_c17(3)
        got = mc_signal_probabilities(
            circuit, n_samples=256, rng=np.random.default_rng(8)
        )
        monkeypatch.setattr(
            "repro.prob.montecarlo.SequentialSimulator", ReferenceSequentialSimulator
        )
        want = mc_signal_probabilities(
            circuit, n_samples=256, rng=np.random.default_rng(8)
        )
        assert set(got) == set(want)
        for net in got:
            assert got[net].value == want[net].value, net

    def test_tracking_batched_unpack(self):
        circuit, instance = infected_c17(2)
        seq = random_sequences(circuit, 1, 35, seed=2)[0]
        watch = [instance.trigger_net, *instance.state_nets, "N22"]
        got = SequentialSimulator(circuit).run_sequence_tracking(seq, watch)
        want = ReferenceSequentialSimulator(circuit).run_sequence_tracking(seq, watch)
        for net in watch:
            assert (got[net] == want[net]).all(), net


class TestStructuralCompileCache:
    def test_fingerprint_stable_across_copies_and_names(self, c17_circuit):
        clone = c17_circuit.copy("other_name")
        assert clone.structural_fingerprint() == c17_circuit.structural_fingerprint()

    def test_fingerprint_changes_on_mutation(self, c17_circuit):
        before = c17_circuit.structural_fingerprint()
        c17_circuit.add_gate("extra", GateType.NOT, ("N22",))
        assert c17_circuit.structural_fingerprint() != before

    def test_edit_revert_round_trip_hits_fingerprint_cache(self, c432_circuit):
        work = c432_circuit.copy("work")
        compile_circuit(work)
        # Edit on a throwaway copy, then "revert" by rebuilding the same
        # structure as another fresh copy: must not recompile in full.
        victim = work.internal_nets()[10]
        trial = work.copy("trial")
        tie_net_to_constant(trial, victim, 0)
        strip_dead_logic(trial)
        compile_circuit(trial)
        before = COMPILE_STATS.snapshot()
        reverted = c432_circuit.copy("reverted")
        compile_circuit(reverted)
        delta = COMPILE_STATS.delta_since(before)
        assert delta["full_compiles"] == 0
        assert delta["patched_compiles"] == 0

    def test_tie_strip_trial_compiles_by_patching(self, c432_circuit):
        work = c432_circuit.copy("work")
        compile_circuit(work)
        trial = work.copy("trial")
        tie_net_to_constant(trial, work.internal_nets()[25], 1)
        stripped = strip_dead_logic(trial)
        before = COMPILE_STATS.snapshot()
        compiled = compile_circuit(trial)
        delta = COMPILE_STATS.delta_since(before)
        assert delta["patched_compiles"] == 1
        assert delta["full_compiles"] == 0
        # Patched form answers for the trial circuit, dead rows included.
        assert compiled.n_nets >= len(trial)

    def test_patched_compile_is_bit_exact(self, c432_circuit):
        rng = np.random.default_rng(21)
        pats = (rng.random((130, len(c432_circuit.inputs))) < 0.5).astype(np.uint8)
        work = c432_circuit.copy("work")
        compile_circuit(work)
        trial = work.copy("trial")
        tie_net_to_constant(trial, work.internal_nets()[25], 1)
        strip_dead_logic(trial)
        patched = compile_circuit(trial)
        got = BitSimulator(trial).run(pats)
        # Fresh full compile of the identical structure (new object, cleared
        # caches) is the ground truth.
        fresh = CompiledCircuit(trial)
        baseline = trial.copy("baseline")
        baseline._compiled_cache = fresh
        want = BitSimulator(baseline).run(pats)
        assert (got == want).all()
        # run_full hides the dead-stripped rows the patched matrix carries.
        full = BitSimulator(trial).run_full(pats)
        assert set(full) == set(trial.nets)

    def test_fault_sim_on_patched_compile(self, c432_circuit):
        work = c432_circuit.copy("work")
        compile_circuit(work)
        trial = work.copy("trial")
        tie_net_to_constant(trial, work.internal_nets()[25], 1)
        strip_dead_logic(trial)
        assert compile_circuit(trial).n_nets > len(trial)  # really patched
        faults = full_fault_list(trial)[::7]
        rng = np.random.default_rng(3)
        pats = (rng.random((96, len(trial.inputs))) < 0.5).astype(np.uint8)
        got = FaultSimulator(trial).run(pats, faults)
        want = reference_fault_sim(trial, pats, faults, drop_detected=False)
        assert got.detected == want.detected
        assert got.undetected == want.undetected

    def test_sequential_compile_shared_across_simulators(self):
        circuit, _ = infected_c17(2)
        first = SequentialSimulator(circuit)
        second = SequentialSimulator(circuit.copy("copy"))
        assert first._compiled is second._compiled
