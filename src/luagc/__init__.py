"""Executable model of Lua garbage collection.

An interpreter for a Lua subset with reachability-based GC, finalizers and
weak tables driven by explicit schedules, plus a static analyzer that
flags weak-table accesses whose outcome collection can change.
"""

from .checker import AnalysisReport, Diagnostic, check_program
from .executor import (
    ExhaustiveExplorer,
    ObservationSet,
    ProgramResult,
    Schedule,
    ScheduleSampler,
    check_postponement,
    is_garbage,
    observations,
    reach_equivalent,
    result,
    run,
)
from .gc import (
    GcOutcome,
    enumerate_gc_steps,
    reach,
    reach_cte,
    reach_set,
    run_cycle,
    set_fin,
    strong_reach_set,
)
from .heap import Configuration, ObjectStore, TableObject, ValueStore, validate
from .interp import load_program, step
from .parser import LuaSyntaxError, parse

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "Configuration",
    "Diagnostic",
    "ExhaustiveExplorer",
    "GcOutcome",
    "LuaSyntaxError",
    "ObjectStore",
    "ObservationSet",
    "ProgramResult",
    "Schedule",
    "ScheduleSampler",
    "TableObject",
    "ValueStore",
    "check_postponement",
    "check_program",
    "enumerate_gc_steps",
    "is_garbage",
    "load_program",
    "observations",
    "parse",
    "reach",
    "reach_cte",
    "reach_equivalent",
    "reach_set",
    "result",
    "run",
    "run_cycle",
    "set_fin",
    "step",
    "strong_reach_set",
    "validate",
]
