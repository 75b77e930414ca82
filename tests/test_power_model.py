"""PowerModel: the incremental characterization behind ``analyze``.

The oracle is a fresh :func:`repro.power.analyze` of the edited circuit,
compared with ``==`` — dataclass equality, so every per-net/per-gate dict
must match float for float — plus the dicts' key order.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import c17, c432_like
from repro.netlist import GateType
from repro.power import PowerModel, analyze, tech65_library
from repro.trojan import insert_counter_trojan
from repro.trojan.library import insert_dummy_gates, insert_filler_cells

LIBRARY = tech65_library()


def _c432_infected():
    circuit = c432_like()
    insert_counter_trojan(
        circuit, victim=circuit.outputs[0], clock_source=circuit.internal_nets()[7], n_bits=3
    )
    return circuit


BASES = {"c17": c17(), "c432": c432_like(), "c432+counter": _c432_infected()}


def assert_matches_fresh(model, circuit):
    report = model.report()
    fresh = analyze(circuit, LIBRARY)
    assert report == fresh
    assert list(report.dynamic_by_net) == list(fresh.dynamic_by_net)
    assert list(report.leakage_by_gate) == list(fresh.leakage_by_gate)
    assert list(report.area_by_gate) == list(fresh.area_by_gate)


#: One padding step: (medium, batch size, kept?) — a dropped batch is undone
#: on the circuit and the model keeps its pre-batch state, as in
#: ``_pad_with_dummies``.
padding_steps = st.lists(
    st.tuples(st.sampled_from(["dummy", "filler"]), st.integers(1, 4), st.booleans()),
    min_size=1,
    max_size=6,
)


class TestPaddingOracle:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(sorted(BASES)), padding_steps)
    def test_every_step_equals_fresh_analyze(self, base, steps):
        circuit = BASES[base].copy()
        model = PowerModel(circuit, LIBRARY)
        assert_matches_fresh(model, circuit)
        for k, (medium, n, keep) in enumerate(steps):
            if medium == "dummy":
                batch = insert_dummy_gates(circuit, n, prefix=f"dummy{k}_")
            else:
                batch = insert_filler_cells(circuit, n, prefix=f"fill{k}_")
            trial = model.copy()
            trial.add_gates(circuit, batch)
            assert_matches_fresh(trial, circuit)
            if keep:
                model = trial
            else:
                circuit.remove_gates(batch)
            assert_matches_fresh(model, circuit)


class TestPowerModel:
    def test_analyze_is_the_model_report(self, c432_circuit, library):
        assert analyze(c432_circuit, library) == PowerModel(c432_circuit, library).report()

    def test_copy_is_independent(self, library):
        circuit = c17()
        model = PowerModel(circuit, library)
        before = model.report()
        trial = model.copy()
        trial.add_gates(circuit, insert_dummy_gates(circuit, 2))
        assert model.report() == before
        assert trial.report().area_um2 > before.area_um2

    def test_report_is_a_snapshot(self, library):
        circuit = c17()
        model = PowerModel(circuit, library)
        report = model.report()
        model.add_gates(circuit, insert_filler_cells(circuit, 2))
        assert report == analyze(c17(), library)

    def test_follows_any_batch_on_primary_inputs(self, library):
        """Repeated pins, chains and wide gates inside one batch."""
        circuit = _c432_infected()
        model = PowerModel(circuit, library)
        a, b, c = circuit.inputs[:3]
        batch = [
            circuit.add_gate("p0", GateType.NAND, (a, a)),
            circuit.add_gate("p1", GateType.NOT, ("p0",)),
            circuit.add_gate("p2", GateType.MUX, (b, "p1", c)),
            circuit.add_gate("p3", GateType.XOR, ("p2", "p1", "p0", a, b)),
            circuit.add_gate("p4", GateType.TIE1, ()),
            circuit.add_gate("p5", GateType.AND, (*circuit.inputs[:9], "p4")),
        ]
        model.add_gates(circuit, batch)
        assert_matches_fresh(model, circuit)

    @pytest.mark.parametrize(
        "build",
        [
            # reads an internal net: its load, drive and energy would change
            lambda c: [c.add_gate("x", GateType.BUFF, ("N10",))],
            # a DFF joins the probability fixed point
            lambda c: [c.add_gate("x", GateType.DFF, ("N1", "N2"))],
            # reads a gate added later in the batch
            lambda c: [
                c.add_gate("x", GateType.BUFF, ("y",)),
                c.add_gate("y", GateType.BUFF, ("N1",)),
            ],
            # already characterized
            lambda c: ["N10"],
        ],
        ids=["internal-net", "dff", "forward-read", "known-net"],
    )
    def test_rejects_batches_it_cannot_follow_exactly(self, library, build):
        circuit = c17()
        model = PowerModel(circuit, library)
        before = model.report()
        with pytest.raises(ValueError):
            model.add_gates(circuit, build(circuit))
        assert model.report() == before

    def test_given_activity_cannot_follow_edits(self, library):
        circuit = c17()
        model = PowerModel(circuit, library, activity={net: 0.5 for net in circuit.nets})
        with pytest.raises(ValueError):
            model.add_gates(circuit, insert_dummy_gates(circuit, 1))
