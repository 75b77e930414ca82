"""Defender-side test generation: stuck-at faults, PODEM, fault simulation."""

from .dcalc import X
from .fault import StuckAtFault, collapse_faults, full_fault_list
from .faultsim import FaultSimResult, FaultSimulator, fault_coverage
from .generate import AtpgConfig, TestSet, generate_test_set, uncovered_faults
from .mero import MeroTestSet, generate_mero_tests, mero_trigger_exposure
from .testability import Testability, compute_testability
from .podem import PodemEngine, PodemResult, PodemStatus, generate_test
from .random_patterns import (
    count_distinguishing_vectors,
    flat_random_vectors,
    untargeted_trigger_probability,
    weighted_random_vectors,
)

__all__ = [
    "StuckAtFault",
    "full_fault_list",
    "collapse_faults",
    "X",
    "PodemEngine",
    "PodemResult",
    "PodemStatus",
    "generate_test",
    "FaultSimulator",
    "FaultSimResult",
    "fault_coverage",
    "TestSet",
    "AtpgConfig",
    "generate_test_set",
    "uncovered_faults",
    "MeroTestSet",
    "generate_mero_tests",
    "mero_trigger_exposure",
    "Testability",
    "compute_testability",
    "flat_random_vectors",
    "weighted_random_vectors",
    "untargeted_trigger_probability",
    "count_distinguishing_vectors",
]
