"""Differential tests: compiled sequential engine vs. the reference dict engine.

The compiled sequential engine (DFF outputs as source rows, free rows in one
wide pass, only the state rows stepped per vector) must be bit-exact against
the retained per-gate dict engine (``reference_step_packed`` /
``ReferenceSequentialSimulator``) on Trojan-infected N'/N'' circuits:
counter triggers, asynchronous ripple edges, oscillating DFF loops that hit
the ripple cap, DFFs outside the watched cone, multi-word sequence batches,
step chunks, infected ISCAS cells, and the pure-combinational degenerate
case.  Every consumer of the engine gives the same result on either engine.
Also covers the structural-fingerprint compile cache.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSpec, execute_experiment
from repro.atpg.mero import generate_mero_tests, mero_trigger_exposure
from repro.bench import c17, c432_like, c880_like
from repro.netlist import Circuit, GateType
from repro.netlist.transform import strip_dead_logic, tie_net_to_constant
from repro.prob.montecarlo import mc_signal_probabilities, mc_toggle_rates
from repro.power import tech65_library
from repro.sim import BitSimulator, compile_circuit, functional_test
from repro.sim import seqsim as seqsim_module
from repro.sim.compiled import COMPILE_STATS
from repro.sim.seqsim import SequentialSimulator
from repro.traces import TraceGenerator
from repro.traces.lab import defender_hypotheses
from repro.trojan import insert_counter_trojan
from repro.trojan.trigger import monte_carlo_pft
from tests.oracles import (
    ReferenceSequentialSimulator,
    WholeCircuitSequentialSimulator,
)


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


def oscillator_circuit(n_outside):
    """Two toggle DFFs that clock each other once ``en`` rises with a == b.

    Every ripple pass fires one of them, cycling (a, b) through four states,
    so a step with ``en`` high runs the ripple loop to its cap of #DFFs + 2
    passes.  ``n_outside`` DFFs no output reads still count toward that cap.
    """
    c = Circuit(f"osc{n_outside}")
    c.add_input("en")
    c.add_input("x")
    c.add_gate("a", GateType.DFF, ("na", "ca"))
    c.add_gate("na", GateType.NOT, ("a",))
    c.add_gate("b", GateType.DFF, ("nb", "cb"))
    c.add_gate("nb", GateType.NOT, ("b",))
    c.add_gate("eq", GateType.XNOR, ("a", "b"))
    c.add_gate("ca", GateType.AND, ("eq", "en"))
    c.add_gate("cb", GateType.XOR, ("a", "b"))
    c.set_output("cb")
    for k in range(n_outside):
        c.add_gate(f"o{k}", GateType.DFF, ("x", "en"))
    return c


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


_HOST_GATES = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUFF,
    GateType.MUX,
]


@st.composite
def sequential_circuits(draw):
    """A random host with 0-2 counters (1-5 bits) on random nets, and
    optionally a DFF clocked by another DFF, a DFF nothing reads, and an
    oscillating DFF loop.  Returns the circuit and its trigger nets."""
    circuit = Circuit("hyp_seq")
    nets = [circuit.add_input(f"i{k}") for k in range(draw(st.integers(2, 5)))]
    for g in range(draw(st.integers(1, 12))):
        gate_type = draw(st.sampled_from(_HOST_GATES))
        if gate_type in (GateType.NOT, GateType.BUFF):
            arity = 1
        elif gate_type is GateType.MUX:
            arity = 3
        else:
            arity = draw(st.integers(2, 3))
        circuit.add_gate(f"g{g}", gate_type, [draw(st.sampled_from(nets)) for _ in range(arity)])
        nets.append(f"g{g}")
    for net in nets[-1:] + [n for n in nets if not circuit.gate(n).is_input]:
        if not circuit.fanout(net) and net not in circuit.outputs:
            circuit.set_output(net)
    triggers = []
    for k in range(draw(st.integers(0, 2))):
        logic = [n for n in circuit.nets if circuit.gate(n).gate_type in _HOST_GATES]
        instance = insert_counter_trojan(
            circuit,
            victim=draw(st.sampled_from(logic)),
            clock_source=draw(st.sampled_from(list(circuit.nets))),
            n_bits=draw(st.integers(1, 5)),
            prefix=f"tz{k}",
        )
        triggers.append(instance.trigger_net)
    dffs = [n for n in circuit.nets if circuit.gate(n).is_sequential]
    if dffs and draw(st.booleans()):  # ripple: clocked by another DFF
        d = draw(st.sampled_from(list(circuit.nets)))
        circuit.add_gate("rip", GateType.DFF, (d, draw(st.sampled_from(dffs))))
        circuit.add_gate("rip_o", GateType.XOR, ("rip", draw(st.sampled_from(nets))))
        circuit.set_output("rip_o")
    if draw(st.booleans()):  # outside every cone but its own
        d, clk = draw(st.sampled_from(nets)), draw(st.sampled_from(nets))
        circuit.add_gate("orphan", GateType.DFF, (d, clk))
    if draw(st.booleans()):  # oscillates up to the ripple cap
        en = draw(st.sampled_from(nets))
        circuit.add_gate("osc_a", GateType.DFF, ("osc_na", "osc_ca"))
        circuit.add_gate("osc_na", GateType.NOT, ("osc_a",))
        circuit.add_gate("osc_b", GateType.DFF, ("osc_nb", "osc_cb"))
        circuit.add_gate("osc_nb", GateType.NOT, ("osc_b",))
        circuit.add_gate("osc_eq", GateType.XNOR, ("osc_a", "osc_b"))
        circuit.add_gate("osc_ca", GateType.AND, ("osc_eq", en))
        circuit.add_gate("osc_cb", GateType.XOR, ("osc_a", "osc_b"))
        circuit.set_output("osc_cb")
    return circuit, triggers


class TestSplitEngineDifferential:
    """Split stepping against the per-gate dict engine, watched set by set."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        sequential_circuits(),
        st.sampled_from(["trigger", "outputs", "all"]),
        st.sampled_from([1, 63, 64, 65, 130]),
        st.integers(1, 24),
        st.sampled_from([None, 1, 2, 5]),
        st.integers(0, 2**31),
    )
    def test_matches_reference(self, drawn, watched, n_seqs, n_steps, chunk_steps, seed):
        circuit, triggers = drawn
        if watched == "trigger":
            watch = triggers[:1] or [circuit.nets[-1]]
        elif watched == "outputs":
            watch = list(circuit.outputs)
        else:
            watch = list(circuit.nets)
        seqs = random_sequences(circuit, n_seqs, n_steps, seed=seed)
        budget = seqsim_module._CHUNK_WORD_BUDGET
        if chunk_steps is not None:  # force step chunks of this length
            budget = compile_circuit(circuit).n_nets * ((n_seqs + 63) // 64) * chunk_steps
        with mock.patch.object(seqsim_module, "_CHUNK_WORD_BUDGET", budget):
            got = SequentialSimulator(circuit).run_sequences_nets(seqs, watch)
        want = ReferenceSequentialSimulator(circuit).run_sequences_nets(seqs, watch)
        assert (got == want).all()

    @pytest.mark.parametrize("n_outside", [0, 1, 2])
    def test_oscillating_loop_stops_at_the_whole_circuits_cap(self, n_outside):
        circuit = oscillator_circuit(n_outside)
        seqs = random_sequences(circuit, 65, 30, seed=n_outside)
        seqs[0, :, 0] = np.arange(30) % 2  # en pumps the loop every other step
        for watch in (["a", "b"], ["cb"], list(circuit.nets)):
            assert_sequences_match(circuit, seqs, watch)
        # The outside DFFs move the cap, and with it where the loop stops.
        inside = SequentialSimulator(oscillator_circuit(0)).run_sequences_nets(seqs, ["a", "b"])
        got = SequentialSimulator(circuit).run_sequences_nets(seqs, ["a", "b"])
        assert (got == inside).all() == (n_outside == 0)

    def test_watched_set_no_dff_reaches_is_one_wide_pass(self):
        circuit, _ = infected_c17(2)
        compiled = compile_circuit(circuit)
        plan = compiled.sequential_plan((compiled.index["N23"],))
        assert not plan.state and plan.dff_idx.size == 0
        seqs = random_sequences(circuit, 70, 20, seed=4)
        assert_sequences_match(circuit, seqs, ["N23", "N1"])


@pytest.fixture(scope="module")
def infected_iscas():
    """Infected ISCAS cells: c432 counter2 @ 0.975 (the trigger fires) and
    the c880 Table I operating point."""
    cells = {}
    for name, pth, design in (("c432", 0.975, "counter2"), ("c880", 0.992, "counter3")):
        spec = ExperimentSpec(circuit=name, pth=pth, design=design, seed=0)
        result = execute_experiment(spec).result
        assert result.success
        cells[name] = result
    return cells


class TestInfectedIscasCells:
    @pytest.mark.parametrize("name", ["c432", "c880"])
    def test_trigger_sessions_match_whole_circuit_stepping(self, infected_iscas, name):
        result = infected_iscas[name]
        infected, instance = result.insertion.infected, result.insertion.instance
        seqs = random_sequences(
            infected, 64, result.thresholds.n_test_vectors, seed=1
        )
        watch = [instance.trigger_net]
        got = SequentialSimulator(infected).run_sequences_nets(seqs, watch)
        want = WholeCircuitSequentialSimulator(infected).run_sequences_nets(seqs, watch)
        assert (got == want).all()
        if name == "c432":
            assert got.any(axis=(0, 2)).sum() > 100  # fires on many steps

    @pytest.mark.parametrize("name", ["c432", "c880"])
    def test_outputs_and_all_nets_match_reference(self, infected_iscas, name):
        infected = infected_iscas[name].insertion.infected
        one = random_sequences(infected, 1, 120, seed=2)
        assert_sequences_match(infected, one, infected.outputs)
        few = random_sequences(infected, 3, 40, seed=3)
        assert_sequences_match(infected, few)


class TestConsumerBitIdentity:
    """Every consumer of the sequential engine gives bit-identical results on
    the compiled engine and the per-gate dict engine: Monte-Carlo Pft, the
    mc_* estimators, the sequential functional test, the trace lab's toggles
    and hypotheses, and MERO's session tracking."""

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

    def test_sequential_functional_test(self, monkeypatch):
        golden = c17()
        infected, _ = infected_c17(2)
        pattern_sets = [random_sequences(golden, 1, n, seed=n)[0] for n in (30, 64, 90)]
        got = [functional_test(infected, golden, [p]) for p in pattern_sets]
        monkeypatch.setattr(
            "repro.sim.equivalence.SequentialSimulator", ReferenceSequentialSimulator
        )
        want = [functional_test(infected, golden, [p]) for p in pattern_sets]
        assert got == want
        assert not all(got)  # the payload shows on some pattern set

    def test_trace_toggles_and_hypotheses(self, monkeypatch):
        infected, _ = infected_c17(2)
        golden = c17()
        seqs = random_sequences(infected, 40, 25, seed=6)
        got_toggles = TraceGenerator(infected, tech65_library()).toggles(seqs)
        got_hyp = defender_hypotheses(golden, seqs, 3)
        monkeypatch.setattr(
            "repro.traces.generator.SequentialSimulator", ReferenceSequentialSimulator
        )
        monkeypatch.setattr(
            "repro.traces.lab.SequentialSimulator", ReferenceSequentialSimulator
        )
        want_toggles = TraceGenerator(infected, tech65_library()).toggles(seqs)
        want_hyp = defender_hypotheses(golden, seqs, 3)
        assert (got_toggles == want_toggles).all()
        assert got_hyp[0] == want_hyp[0]
        assert (got_hyp[1] == want_hyp[1]).all()

    def test_mero_session_tracking(self, monkeypatch, rare_node_circuit):
        infected = rare_node_circuit.copy("infected")
        instance = insert_counter_trojan(infected, "y", "rare", n_bits=1)
        mero = generate_mero_tests(
            rare_node_circuit, rare_threshold=0.95, n_target=4, pool_size=8192
        )

        def exposure():
            return mero_trigger_exposure(
                infected, instance.clock_source, instance.trigger_net, mero, shuffles=8
            )

        got = exposure()
        monkeypatch.setattr(
            "repro.sim.seqsim.SequentialSimulator", ReferenceSequentialSimulator
        )
        assert exposure() == got
        assert got > 0

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

    def test_sequential_compile_shared_across_simulators(self):
        circuit, _ = infected_c17(2)
        first = SequentialSimulator(circuit)
        second = SequentialSimulator(circuit.copy("copy"))
        assert first._compiled is second._compiled
