"""Logic simulation: bit-parallel combinational, sequential, and comparison."""

from .bitsim import (
    BitSimulator,
    exhaustive_patterns,
    pack_patterns,
    random_patterns,
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
from .seqsim import SequentialSimulator

__all__ = [
    "BitSimulator",
    "COMPILE_STATS",
    "CompiledCircuit",
    "CompileStats",
    "GateGroup",
    "compile_circuit",
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
