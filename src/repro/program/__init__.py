"""Whole-program compilation (inter-binding dataflow + storage reuse).

The :func:`compile_program` entry point turns a ``parse_program``
binding list into one :class:`CompiledProgram`: topologically
scheduled, with dependence-driven loop fusion collapsing dead
producer comprehensions into their sole consumers, §9 storage reuse
threaded across bindings wherever liveness proves it safe, and with
``iterate``/``converge`` bindings driven by a convergence loop.
:class:`ProgramReport` records every decision.
"""

from repro.program.compile import classify_source, compile_program
from repro.program.iterate import (
    CONVERGE_CAP,
    IterateShapeError,
    IterateSpec,
    find_iterate,
    max_abs_diff,
)
from repro.program.report import (
    BindingInfo,
    FusedChain,
    ProgramReport,
    ReuseEdge,
)
from repro.program.run import (
    CompiledProgram,
    IteratePlan,
    ProgramError,
    ProgramStep,
)

__all__ = [
    "classify_source",
    "compile_program",
    "CompiledProgram",
    "ProgramReport",
    "ProgramError",
    "ProgramStep",
    "IteratePlan",
    "BindingInfo",
    "ReuseEdge",
    "FusedChain",
    "IterateSpec",
    "IterateShapeError",
    "find_iterate",
    "max_abs_diff",
    "CONVERGE_CAP",
]
