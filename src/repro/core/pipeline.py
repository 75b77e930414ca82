"""End-to-end TrojanZero flow (Fig. 2): thresholds → salvage → insertion.

:class:`TrojanZeroPipeline` glues the three phases together and produces a
:class:`TrojanZeroResult` carrying everything Table I / Fig. 7 report: the
HT-free, modified, and TZ-infected circuits with their power/area
characterizations, candidate/expendable counts, the inserted design, and the
trigger probability Pft.

Every simulation in the flow — threshold fault-sims, salvage's trials, the
sequential functional tests of the infected N'', and the Monte-Carlo Pft
sessions — runs on the compiled levelized engine of
:mod:`repro.sim.compiled`, sharing schedules across circuit copies through
the structural-fingerprint cache.  Salvage's trials are stuck-at cone walks
on N's compiled form, which Phase A already built, so they compile nothing.

Phase A depends only on N, the defender model (with its derived seeds) and
the cell library — Pth first appears in Algorithm 1 — so :func:`phase_a`
memoizes it per process: the cells of a Pth sweep of one (circuit, seed)
compute it once.  Campaign and fleet workers build a fresh pipeline per cell,
which is why the memo is module-level and not held by the pipeline.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit
from ..power.analysis import PowerDelta, PowerReport
from ..power.library import CellLibrary
from ..power.tech65 import tech65_library
from ..trojan.counter import CounterTrojanInstance
from ..trojan.library import TrojanDesign, default_trojan_library
from ..trojan.trigger import TriggerReport, trigger_report
from .insertion import InsertionConfig, InsertionResult, insert_trojan_zero
from .salvage import SalvageResult, salvage
from .thresholds import DefenderModel, ThresholdReport, compute_thresholds


def derive_seed(seed: int, index: int) -> int:
    """Deterministic sub-seed ``index`` of a master ``seed``.

    One master seed must reach several independent RNG consumers (ATPG
    pattern fill, bespoke defender vectors, Monte-Carlo Pft sessions,
    detector variation models); spawning through :class:`numpy.random.
    SeedSequence` keeps the streams statistically independent while staying
    reproducible across processes.
    """
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


#: Fixed sub-seed indices of a master experiment seed.
SEED_ATPG = 0
SEED_BESPOKE = 1
SEED_TRIGGER_MC = 2
SEED_DETECT = 3

#: Phase A reports the per-process memo keeps, least recently used evicted
#: first.  Each entry holds a synthesized circuit and its defender patterns.
PHASE_A_CAPACITY = 4

_phase_a_lock = threading.Lock()
_phase_a_memo: "OrderedDict[Hashable, Tuple[ThresholdReport, CellLibrary]]" = OrderedDict()


def _phase_a_key(
    circuit: Circuit, library: CellLibrary, defender: DefenderModel
) -> Hashable:
    """Everything that can reach a Phase A report.

    The name reaches the reports; the fingerprint covers the structure and
    the PI/PO order but sorts gate names, while power sums run in gate-map
    order, so that order is part of the key too.  The library is keyed by
    identity: its entry holds a strong reference, so the id is not reused
    while the entry lives.
    """
    return (
        circuit.name,
        circuit.structural_fingerprint(),
        circuit.nets,
        defender,
        id(library),
    )


def phase_a(
    circuit: Circuit, library: CellLibrary, defender: DefenderModel
) -> Tuple[ThresholdReport, bool]:
    """Phase A (:func:`compute_thresholds`) through the per-process memo.

    Returns the report and whether it was shared from an earlier call.  The
    stored report is never handed out: every caller gets its own circuit copy
    and pattern-set lists, and the stored pattern arrays are read-only.
    """
    key = _phase_a_key(circuit, library, defender)
    with _phase_a_lock:
        entry = _phase_a_memo.get(key)
        if entry is not None:
            _phase_a_memo.move_to_end(key)
    shared = entry is not None
    if shared:
        report = entry[0]
    else:
        report = compute_thresholds(circuit, library, defender)
        arrays = (report.test_set.patterns, *report.pattern_sets, *report.bespoke_sets)
        for patterns in arrays:
            patterns.setflags(write=False)
        entry = (replace(report, circuit=_lean_copy(report.circuit)), library)
        with _phase_a_lock:
            _phase_a_memo[key] = entry
            while len(_phase_a_memo) > PHASE_A_CAPACITY:
                _phase_a_memo.popitem(last=False)
    return (
        replace(
            report,
            circuit=report.circuit.copy(),
            pattern_sets=list(report.pattern_sets),
            bespoke_sets=list(report.bespoke_sets),
        ),
        shared,
    )


def _lean_copy(circuit: Circuit) -> Circuit:
    """A copy of ``circuit`` for the memo that pins no ATPG cache.

    Phase A's fault simulation leaves per-site cone row lists on the
    compiled form (on c3540, 1087 lists holding 90k row ints).  Nothing
    after Phase A reads them (salvage walks a cache-free view of its own),
    so the stored copy keeps the compiled schedule (sharing cells still skip
    the cold compile) without those caches.
    """
    lean = circuit.copy()
    if lean._compiled_cache is not None:
        lean._compiled_cache = lean._compiled_cache.without_caches()
    return lean


def _clear_phase_a() -> None:
    """Empty the Phase A memo (tests only)."""
    with _phase_a_lock:
        _phase_a_memo.clear()


@dataclass
class TrojanZeroResult:
    """Everything one benchmark run produces."""

    benchmark: str
    p_threshold: float
    thresholds: ThresholdReport
    salvage: SalvageResult
    insertion: InsertionResult
    trigger: Optional[TriggerReport]
    #: ``"computed"`` when this run did Phase A, ``"shared"`` when
    #: :func:`phase_a` served it from an earlier run in the process.
    phase_a: str = "computed"

    # ------------------------------------------------------------------
    @property
    def success(self) -> bool:
        return self.insertion.success

    @property
    def power_free(self) -> PowerReport:
        """P/A of the HT-free circuit N."""
        return self.thresholds.power

    @property
    def power_modified(self) -> PowerReport:
        """P/A of the modified circuit N'."""
        return self.salvage.power_after

    @property
    def power_infected(self) -> Optional[PowerReport]:
        """P/A of the TZ-infected circuit N''."""
        return self.insertion.power_infected

    @property
    def delta_tz(self) -> Optional[PowerDelta]:
        """ΔP(TZ)/ΔA(TZ) = N − N'' (the paper's zero-footprint metric)."""
        return self.insertion.delta_tz

    @property
    def pft(self) -> Optional[float]:
        return self.trigger.pft_analytic if self.trigger else None

    def summary(self) -> str:
        """Human-readable run summary (Table-I-row style)."""
        n = self.power_free
        np_ = self.power_modified
        stats = self.salvage.compile_stats
        lines = [
            f"TrojanZero on {self.benchmark} (Pth = {self.p_threshold}):",
            f"  candidates |C| = {self.salvage.candidate_count}, "
            f"expendable Eg = {self.salvage.expendable_gates}",
            f"  salvage compiles: {stats.get('full_compiles', 0)} full, "
            f"{stats.get('fingerprint_hits', 0)} fingerprint hits",
            f"  N : total {n.total_uw:8.2f} uW  area {n.area_ge:8.1f} GE",
            f"  N': total {np_.total_uw:8.2f} uW  area {np_.area_ge:8.1f} GE",
        ]
        if self.success:
            nn = self.power_infected
            d = self.delta_tz
            lines.append(
                f"  N'': total {nn.total_uw:8.2f} uW  area {nn.area_ge:8.1f} GE"
                f"  (HT: {self.insertion.design.name} on {self.insertion.victim})"
            )
            lines.append(
                f"  dTZ: total {d.total_uw:+.3f} uW  dynamic {d.dynamic_uw:+.3f} uW  "
                f"leakage {d.leakage_uw:+.4f} uW  area {d.area_ge:+.2f} GE"
            )
            if self.pft is not None:
                lines.append(f"  Pft = {self.pft:.3e}")
        else:
            lines.append("  insertion FAILED — see attempts log")
        return "\n".join(lines)


@dataclass
class TrojanZeroPipeline:
    """Configured end-to-end flow."""

    library: CellLibrary
    defender: DefenderModel = field(default_factory=DefenderModel)
    insertion_config: InsertionConfig = field(default_factory=InsertionConfig)

    @classmethod
    def default(cls) -> "TrojanZeroPipeline":
        """Pipeline with the shared 65nm-class library and default defender."""
        return cls(library=tech65_library())

    def run(
        self,
        circuit: Circuit,
        p_threshold: float,
        designs: Optional[Sequence[TrojanDesign]] = None,
        counter_bits: Optional[int] = None,
        max_candidates: Optional[int] = None,
        monte_carlo_sessions: int = 0,
        seed: Optional[int] = None,
    ) -> TrojanZeroResult:
        """Run the full TrojanZero flow on one HT-free circuit.

        Parameters
        ----------
        p_threshold:
            Algorithm 1's Pth (paper Table I gives per-benchmark values).
        counter_bits:
            Restrict the HT library to the n-bit counter design (Table I
            fixes the counter size per benchmark); default tries the whole
            library, largest first.
        seed:
            Master seed reaching every RNG draw of the run (ATPG, bespoke
            defender vectors, Monte-Carlo Pft sessions) via
            :func:`derive_seed`.  ``None`` keeps the legacy per-module fixed
            seeds, reproducing historical results exactly.
        """
        defender = self.defender
        trigger_rng: Optional[np.random.Generator] = None
        if seed is not None:
            defender = replace(
                defender,
                atpg=replace(defender.atpg, seed=derive_seed(seed, SEED_ATPG)),
                random_seed=derive_seed(seed, SEED_BESPOKE),
            )
            trigger_rng = np.random.default_rng(derive_seed(seed, SEED_TRIGGER_MC))
        thresholds, shared = phase_a(circuit, self.library, defender)
        salvage_result = salvage(
            thresholds.circuit,
            thresholds.pattern_sets,
            self.library,
            p_threshold,
            power_before=thresholds.power,
            max_candidates=max_candidates,
        )
        if designs is None:
            if counter_bits is not None:
                designs = [TrojanDesign(f"counter{counter_bits}", "counter", counter_bits)]
            else:
                designs = default_trojan_library()
        insertion = insert_trojan_zero(
            salvage_result,
            thresholds.circuit,
            thresholds.pattern_sets,
            thresholds.power,
            self.library,
            designs=designs,
            config=self.insertion_config,
            session_vectors=thresholds.n_test_vectors,
        )
        trig: Optional[TriggerReport] = None
        if insertion.success and isinstance(insertion.instance, CounterTrojanInstance):
            trig = trigger_report(
                insertion.infected,
                insertion.instance,
                n_test_vectors=thresholds.n_test_vectors,
                monte_carlo_sessions=monte_carlo_sessions,
                rng=trigger_rng,
            )
        return TrojanZeroResult(
            benchmark=circuit.name,
            p_threshold=p_threshold,
            thresholds=thresholds,
            salvage=salvage_result,
            insertion=insertion,
            trigger=trig,
            phase_a="shared" if shared else "computed",
        )
