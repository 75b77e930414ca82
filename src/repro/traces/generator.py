"""Per-cycle power-trace generation on the compiled levelized engine.

The aggregate detectors of :mod:`repro.detect` judge one number per chip
(total power); a side-channel tester sees a *trace* — switching energy per
clock cycle.  :class:`TraceGenerator` produces such traces directly from the
gate-level model: simulate the circuit over an input sequence on the compiled
engine (:class:`repro.sim.seqsim.SequentialSimulator`, which covers pure
combinational circuits too), XOR consecutive settles into per-net toggle
vectors (:func:`repro.sim.bitsim.toggle_matrix`, the kernel shared with
:func:`repro.prob.montecarlo.mc_toggle_rates`), and weight them with the
per-net switching energies of :func:`repro.power.analysis.switching_energy_fj`
— the *same* cost table the aggregate dynamic-power model integrates, so a
trace averaged over a long random sequence reproduces
:func:`repro.power.analysis.analyze`'s dynamic power exactly.

Everything is batched: one simulation pass per sequence block, one toggle
XOR over all watched rows, and one (chunked) toggle-matrix x energy-vector
product per trace batch.  No per-net Python loops anywhere in the hot path.

Trace flavours
--------------
* **sequential clocked traces** — ``generate(sequences)`` on a DFF-bearing
  circuit: sample *t* is the energy of the settle-to-settle transition when
  vector ``t+1`` is applied (flip-flop ripple included).
* **combinational pattern-pair traces** — the same call on a combinational
  circuit scores consecutive pattern pairs; :meth:`pattern_pair_trace` is
  the single-sequence convenience wrapper.
* **watched-cone restriction** — pass ``cone_roots`` to watch only the
  fanout cones of a few nets (e.g. a suspected trigger region) instead of
  the whole chip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..detect.variation import VariationModel
from ..netlist.circuit import Circuit
from ..power.analysis import switching_energy_fj
from ..power.library import CellLibrary
from ..power.synthesis import MappedNetlist
from ..sim.bitsim import toggle_matrix
from ..sim.seqsim import SequentialSimulator

#: Cast-and-multiply chunk for the toggle-matrix x energy-vector product
#: (bounds the float64 copy of the uint8 toggle block to ~32 MB).
_MATMUL_CHUNK_FLOATS = 1 << 22


def cone_watch_nets(circuit: Circuit, roots: Sequence[str]) -> List[str]:
    """The roots plus every net in their fanout cones, in circuit net order."""
    member = set()
    for root in roots:
        member.add(root)
        member.update(circuit.fanout_cone(root))
    return [net for net in circuit.nets if net in member]


@dataclass(frozen=True)
class TraceBatch:
    """A batch of per-cycle energy traces plus its provenance."""

    #: ``(n_traces, n_cycles)`` float64, fJ of switching energy per cycle.
    traces: np.ndarray
    circuit_name: str
    nets_watched: int

    @property
    def n_traces(self) -> int:
        return int(self.traces.shape[0])

    @property
    def n_cycles(self) -> int:
        return int(self.traces.shape[1])

    def mean_energy_fj(self) -> float:
        """Mean per-cycle switching energy over the whole batch."""
        return float(self.traces.mean()) if self.traces.size else 0.0


class TraceGenerator:
    """Vectorized per-cycle switching-energy traces for one circuit.

    Parameters
    ----------
    nets:
        Watched nets (default: every net — total-chip power).  Order is
        preserved; energies align with it.
    cone_roots:
        Alternative to ``nets``: watch only the fanout cones of these nets
        (plus the roots themselves).
    mapped:
        Pre-computed technology mapping, forwarded to
        :func:`~repro.power.analysis.switching_energy_fj`.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        nets: Optional[Sequence[str]] = None,
        cone_roots: Optional[Sequence[str]] = None,
        mapped: Optional[MappedNetlist] = None,
    ) -> None:
        if nets is not None and cone_roots is not None:
            raise ValueError("pass either nets or cone_roots, not both")
        if cone_roots is not None:
            nets = cone_watch_nets(circuit, cone_roots)
        self.circuit = circuit
        self.library = library
        self.nets: Tuple[str, ...] = tuple(nets if nets is not None else circuit.nets)
        energy = switching_energy_fj(circuit, library, mapped=mapped)
        #: Per-net energy per toggle (fJ), aligned with :attr:`nets`.
        self.energies_fj = np.array([energy[n] for n in self.nets], dtype=np.float64)
        self._sim = SequentialSimulator(circuit)

    # ------------------------------------------------------------------
    def toggles(self, sequences: np.ndarray) -> np.ndarray:
        """Per-net toggle tensor for ``(n_seqs, n_steps, n_inputs)`` sequences.

        Returns ``(n_seqs, n_steps - 1, n_nets)`` uint8 — entry ``[s, t, i]``
        is 1 where watched net *i* changed between settles ``t`` and ``t+1``
        of sequence *s*.  One compiled-engine pass over the block, one
        batched XOR; toggles depend only on the netlist and the stimuli, so
        a chip population under process variation reuses one tensor.
        """
        sequences = np.asarray(sequences)
        values = self._sim.run_sequences_nets(sequences, list(self.nets))
        return toggle_matrix(values, axis=1)

    def traces_from_toggles(
        self, toggles: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Weight a toggle tensor into ``(n_seqs, n_cycles)`` energy traces.

        ``weights`` defaults to the nominal :attr:`energies_fj`; pass
        :meth:`chip_weights` output to realize one varied die.  The product
        is chunked so the float64 cast of the uint8 tensor stays bounded.
        """
        w = self.energies_fj if weights is None else np.asarray(weights, dtype=np.float64)
        n_seqs, n_cycles, n_nets = toggles.shape
        if w.shape != (n_nets,):
            raise ValueError(f"expected {n_nets} weights, got {w.shape}")
        flat = toggles.reshape(n_seqs * n_cycles, n_nets)
        out = np.empty(flat.shape[0], dtype=np.float64)
        step = max(1, _MATMUL_CHUNK_FLOATS // max(n_nets, 1))
        for start in range(0, flat.shape[0], step):
            block = flat[start : start + step]
            out[start : start + block.shape[0]] = block.astype(np.float64) @ w
        return out.reshape(n_seqs, n_cycles)

    def generate(
        self, sequences: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Noiseless energy traces for a sequence block: ``(n_seqs, n_steps-1)``."""
        return self.traces_from_toggles(self.toggles(sequences), weights)

    def pattern_pair_trace(self, patterns: np.ndarray) -> np.ndarray:
        """Combinational pattern-pair trace: one sample per consecutive pair.

        ``patterns`` is ``(n_patterns, n_inputs)``; returns ``(n_patterns-1,)``.
        """
        patterns = np.atleast_2d(np.asarray(patterns))
        return self.generate(patterns[np.newaxis])[0]

    def batch(
        self, sequences: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> TraceBatch:
        """Like :meth:`generate`, wrapped with provenance."""
        return TraceBatch(
            traces=self.generate(sequences, weights),
            circuit_name=self.circuit.name,
            nets_watched=len(self.nets),
        )

    # ------------------------------------------------------------------
    def chip_weights(
        self,
        model: VariationModel,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-net energy weights of one fabricated die.

        Reuses the per-net dynamic multiplier of
        :class:`repro.detect.variation.VariationModel` — Gaussian with
        ``dynamic_sigma``, clipped like
        :meth:`~repro.detect.variation.PopulationSampler.sample_chip` — so
        trace populations and aggregate-power populations model the same
        process spread.
        """
        mult = rng.normal(loc=1.0, scale=model.dynamic_sigma, size=self.energies_fj.shape)
        return self.energies_fj * np.clip(mult, 0.5, 1.5)
