"""Domain decompositions (paper §2.3).

A *domain decomposition* tells the compiler where data lives. Scalars get
a :class:`Placement` — a single owner processor (``a:P1``) or replication
(``a:ALL``). Arrays get a :class:`Distribution`, the paper's
``<map, local, alloc>`` triple:

* ``map``   — owner processor of an element, as a symbolic expression in
  the element's indices (e.g. wrapped columns: ``(j - 1) mod S``);
* ``local`` — the element's location in the owner's local array;
* ``alloc`` — the local array shape a processor must allocate.

Both symbolic forms (used by compile-time resolution) and concrete forms
(used by run-time resolution and the simulator runtime) come from the
same per-axis rules (:mod:`repro.distrib.base`): given ``Expr`` operands
they build the expressions, given ints they compute the values.
Processors are numbered ``0 .. S-1``.
"""

from repro.distrib.base import Distribution, OnAll, OnProc, Placement
from repro.distrib.builtin import (
    DISTRIBUTIONS,
    BlockCols,
    BlockGrid,
    BlockCyclicCols,
    BlockCyclicRows,
    BlockRows,
    BlockVector,
    WrappedCols,
    WrappedRows,
    WrappedVector,
    distribution_by_name,
)
from repro.distrib.spec import DecompositionSpec

__all__ = [
    "DISTRIBUTIONS",
    "BlockCols",
    "BlockCyclicCols",
    "BlockCyclicRows",
    "BlockGrid",
    "BlockRows",
    "BlockVector",
    "DecompositionSpec",
    "Distribution",
    "OnAll",
    "OnProc",
    "Placement",
    "WrappedCols",
    "WrappedRows",
    "WrappedVector",
    "distribution_by_name",
]
