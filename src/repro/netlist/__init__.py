"""Gate-level netlist substrate: gates, circuits, transforms, validation."""

from .circuit import Circuit, NetlistError
from .gate import (
    COMBINATIONAL_TYPES,
    FIXED_ARITY,
    Gate,
    GateType,
    SEQUENTIAL_TYPES,
    VARIADIC_TYPES,
    evaluate_gate,
)
from .transform import (
    insert_mux_on_net,
    optimize_netlist,
    strip_dead_logic,
    tie_net_to_constant,
)
from .validate import assert_valid, validate

__all__ = [
    "Circuit",
    "NetlistError",
    "Gate",
    "GateType",
    "COMBINATIONAL_TYPES",
    "SEQUENTIAL_TYPES",
    "VARIADIC_TYPES",
    "FIXED_ARITY",
    "evaluate_gate",
    "tie_net_to_constant",
    "strip_dead_logic",
    "optimize_netlist",
    "insert_mux_on_net",
    "assert_valid",
    "validate",
]
