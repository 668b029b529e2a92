"""Loop-nest IR for array comprehensions.

The subscript/value-pair list of an array comprehension is represented
as a tree whose internal nodes are loops (one per generator) and whose
leaves are **s/v clauses** — the paper's unit of dependence analysis,
playing the role of assignment statements in imperative DO loops (§5).

Loops are stored *normalized* (paper §6): analysis-space index runs
``1..M`` with stride 1, recorded in a shared
:class:`~repro.core.subscripts.LoopInfo`.  The original index value is
``start + step*(t - 1)``; code generation iterates the original
sequence (forward or backward as scheduled), while all affine
subscripts here are expressed over the normalized indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.core.affine import Affine
from repro.core.subscripts import LoopInfo, Reference
from repro.lang import ast
from repro.runtime.bounds import Bounds


@dataclass
class Read:
    """One array read ``name ! subscript`` inside a clause.

    ``subscripts`` holds per-dimension affine forms over normalized
    loop indices, or ``None`` when the subscript is not affine — in
    which case analysis must be pessimistic about this read.
    """

    array: str
    subscripts: Optional[Tuple[Affine, ...]]
    node: ast.Index = field(repr=False, default=None)


@dataclass
class SVClause:
    """A subscript/value clause ``s := v`` with its loop context.

    ``subscripts`` are the write subscripts in normalized loop space
    (``None`` if non-affine).  ``value`` is the original value AST
    (over original index names) used by code generation; ``guards`` and
    ``lets`` apply to this clause; ``reads`` are the array references
    found in the value, guards, and let right-hand sides.
    """

    index: int
    subscripts: Optional[Tuple[Affine, ...]]
    subscript_ast: ast.Node = field(repr=False, default=None)
    value: ast.Node = field(repr=False, default=None)
    guards: List[ast.Node] = field(default_factory=list, repr=False)
    lets: List[ast.Binding] = field(default_factory=list, repr=False)
    loops: Tuple["LoopNest", ...] = ()
    reads: List[Read] = field(default_factory=list)

    @property
    def loop_infos(self) -> Tuple[LoopInfo, ...]:
        """The normalized loops surrounding this clause, outermost first."""
        return tuple(loop.info for loop in self.loops)

    @property
    def label(self) -> str:
        """Human-readable clause name (paper-style 1-based number)."""
        return f"clause {self.index + 1}"

    def write_reference(self, array: str) -> Optional[Reference]:
        """This clause's write as an analysis :class:`Reference`."""
        if self.subscripts is None:
            return None
        return Reference(array, self.subscripts, self.loop_infos,
                         is_write=True, clause=self)

    def read_references(self, array: str) -> List[Reference]:
        """This clause's affine reads of ``array`` as references."""
        out = []
        for read in self.reads:
            if read.array == array and read.subscripts is not None:
                out.append(Reference(array, read.subscripts,
                                     self.loop_infos, clause=self))
        return out

    def has_opaque_reads(self, array: str) -> bool:
        """Whether some read of ``array`` has a non-affine subscript."""
        return any(
            read.array == array and read.subscripts is None
            for read in self.reads
        )

    def __repr__(self):
        return f"SVClause#{self.index + 1}(subs={self.subscripts})"


@dataclass
class LoopNest:
    """A generator loop in the comprehension tree.

    ``info`` is the shared normalized-loop descriptor; ``var`` the
    original index name; the original index takes value
    ``start + step*(t-1)`` for normalized ``t`` in ``1..info.count``.
    ``start``/``stop`` are affine over *enclosing original* index names
    (for codegen); ``step`` is a nonzero integer.
    """

    info: LoopInfo
    var: str
    start: ast.Node = field(repr=False, default=None)
    stop: ast.Node = field(repr=False, default=None)
    step: int = 1
    children: List["Entity"] = field(default_factory=list)

    def __repr__(self):
        return f"LoopNest({self.var}, M={self.info.count})"


Entity = Union[SVClause, LoopNest]


@dataclass
class ArrayComp:
    """A whole array comprehension in loop-IR form.

    ``roots`` are the top-level entities (append order preserved);
    ``clauses`` lists every clause in source order.  ``bounds`` is
    concrete when size parameters were supplied, else ``None``.
    """

    name: str
    bounds_ast: ast.Node = field(repr=False, default=None)
    bounds: Optional[Bounds] = None
    roots: List[Entity] = field(default_factory=list)
    clauses: List[SVClause] = field(default_factory=list)
    rank: int = 1

    def clause(self, number: int) -> SVClause:
        """Clause by paper-style 1-based number."""
        return self.clauses[number - 1]

    def iter_loops(self):
        """Yield every loop nest, preorder."""

        def walk(entities):
            for entity in entities:
                if isinstance(entity, LoopNest):
                    yield entity
                    yield from walk(entity.children)

        yield from walk(self.roots)

    def __repr__(self):
        return (
            f"ArrayComp({self.name!r}, clauses={len(self.clauses)}, "
            f"bounds={self.bounds!r})"
        )

