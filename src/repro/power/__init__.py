"""Technology library, synthesis-lite, and power/area analysis."""

from .analysis import PowerDelta, PowerModel, PowerReport, analyze, switching_energy_fj
from .library import Cell, CellLibrary, LibraryParams, MAX_FANIN
from .synthesis import MappedNetlist, map_circuit, optimize_netlist
from .tech65 import TECH65_PARAMS, tech65_library
from .timing import DelayDetector, TimingReport, static_timing

__all__ = [
    "Cell",
    "CellLibrary",
    "LibraryParams",
    "MAX_FANIN",
    "MappedNetlist",
    "map_circuit",
    "optimize_netlist",
    "PowerReport",
    "PowerDelta",
    "PowerModel",
    "analyze",
    "switching_energy_fj",
    "tech65_library",
    "TECH65_PARAMS",
    "TimingReport",
    "static_timing",
    "DelayDetector",
]
