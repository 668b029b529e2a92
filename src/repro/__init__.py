"""repro — Compilation of Haskell Array Comprehensions for Scientific Computing.

A faithful, self-contained reproduction of Anderson & Hudak (PLDI
1990).  The package contains a small Haskell-like front end with array
comprehensions, a lazy reference interpreter, the paper's subscript
analysis (GCD / Banerjee / exact tests with direction-vector
refinement), dependence-graph construction, the §8 static scheduling
algorithms, §7 collision/empties analysis, §9 in-place update with
node-splitting, and Python code generation.

Quick start::

    import repro

    wavefront = '''
    letrec* a = array ((1,1),(n,n))
       ([ (1,j) := 1 | j <- [1..n] ] ++
        [ (i,1) := 1 | i <- [2..n] ] ++
        [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)
          | i <- [2..n], j <- [2..n] ])
    in a
    '''
    compiled = repro.compile(wavefront, params={"n": 100})
    a = compiled({"n": 100})          # thunkless, scheduled loops
    print(compiled.report.summary())  # what the compiler proved
    oracle = repro.evaluate(wavefront, bindings={"n": 100}, deep=False)

``repro.compile`` is the single entry point: ``strategy=`` selects
monolithic (``"array"``), in-place (``"inplace"`` + ``old_array=``),
``"bigupd"``, or accumulated (``"accum"``) compilation — or ``"auto"``
(the default) to detect it from the source.

Multi-binding *programs* (``;``-separated top-level bindings) compile
as a whole through ``repro.compile_program`` — inter-binding liveness
threads §9 storage reuse across statements, and ``iterate``/
``converge`` bindings get a convergence-loop driver::

    prog = repro.compile_program(jacobi_src, params={"m": 128})
    u = prog({"m": 128, "tol": 1e-8})
    print(prog.report.summary())      # topo order, reuse edges, ...

``repro.compile`` auto-dispatches to ``compile_program`` when handed
program-shaped source.
"""

from repro.codegen import CodegenOptions, FlatArray
from repro.core.pipeline import (
    CompileError,
    Report,
    analyze,
    compile,
    detect_strategy,
)
from repro.interp import evaluate, run_program
from repro.lang import parse_expr, parse_program, pretty
from repro.obs import Explanation, explain, explain_report
from repro.program import (
    CompiledProgram,
    ProgramError,
    ProgramReport,
    compile_program,
)
from repro.service import (
    CompileRequest,
    CompileResult,
    CompileService,
    fingerprint,
)
from repro.runtime import (
    Bounds,
    NonStrictArray,
    StrictArray,
    accum_array,
    bigupd,
    force_elements,
    letrec_star,
    recursive_array,
    upd,
)

__version__ = "1.0.0"

__all__ = [
    "Bounds",
    "CodegenOptions",
    "CompileError",
    "CompileRequest",
    "CompileResult",
    "CompileService",
    "CompiledProgram",
    "Explanation",
    "FlatArray",
    "NonStrictArray",
    "ProgramError",
    "ProgramReport",
    "Report",
    "StrictArray",
    "accum_array",
    "analyze",
    "bigupd",
    "compile",
    "compile_program",
    "detect_strategy",
    "evaluate",
    "explain",
    "explain_report",
    "fingerprint",
    "force_elements",
    "letrec_star",
    "parse_expr",
    "parse_program",
    "pretty",
    "recursive_array",
    "run_program",
    "upd",
]
