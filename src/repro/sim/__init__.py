"""Logic simulation: bit-parallel combinational, sequential, and comparison."""

from .bitsim import (
    BitSimulator,
    exhaustive_patterns,
    pack_patterns,
    random_patterns,
    reference_run_packed,
    simulate,
    unpack_patterns,
)
from .compiled import (
    COMPILE_STATS,
    CompiledCircuit,
    CompileStats,
    GateGroup,
    compile_circuit,
)
from .equivalence import (
    ComparisonResult,
    compare_exhaustive,
    compare_on_patterns,
    compare_sequential_on_patterns,
    functional_test,
)
from .seqsim import (
    ReferenceSequentialSimulator,
    SequentialSimulator,
    reference_step_packed,
)

__all__ = [
    "BitSimulator",
    "COMPILE_STATS",
    "CompiledCircuit",
    "CompileStats",
    "GateGroup",
    "compile_circuit",
    "reference_run_packed",
    "reference_step_packed",
    "ReferenceSequentialSimulator",
    "SequentialSimulator",
    "simulate",
    "random_patterns",
    "exhaustive_patterns",
    "pack_patterns",
    "unpack_patterns",
    "ComparisonResult",
    "compare_on_patterns",
    "compare_sequential_on_patterns",
    "compare_exhaustive",
    "functional_test",
]
