"""What each IR node costs under the paper's machine model (§2.2, §4).

One table, read by the statement emitter (:mod:`repro.spmd.codegen`) for
both of its domains: the ``compiled`` backend's values and the abstract
walk's rows. ``ops`` and ``mems`` are the node's own static charge — an
operator's one operation, an element access's one memory access, a
loop's increment and bound test per iteration, the membership tests of
an owner-computes transfer. ``flush``: the node sits behind a flush, so
the charges pending before it are recorded as one compute burst first,
and a straight-line run of statements ends there.

Charges that depend on run-time values (a vector's length, the right
operand of a short-circuit, what the inspector's executor meters) are
made where they occur, not here. :mod:`repro.spmd.interp` spells every
charge out on its own and stays the oracle: the differential tests hold
both domains' charges to it.
"""

from __future__ import annotations

from collections import namedtuple

from repro.spmd import ir

Charge = namedtuple("Charge", "ops mems flush")

_FREE = Charge(0, 0, False)
_MESSAGE = Charge(0, 0, True)

CHARGES = {
    # expressions
    ir.NConst: _FREE,
    ir.NVar: _FREE,
    ir.NMyNode: _FREE,
    ir.NNProcs: _FREE,
    ir.NBin: Charge(1, 0, False),  # ``and``/``or`` too, before the right
    ir.NUn: Charge(1, 0, False),
    ir.NCall: Charge(1, 0, False),
    ir.NIsRead: Charge(0, 1, False),
    ir.NBufRead: Charge(0, 1, False),
    ir.NIndirect: _FREE,  # the executor meters the access itself
    # store targets
    ir.VarLV: _FREE,
    ir.IsLV: Charge(0, 1, False),
    ir.BufLV: Charge(0, 1, False),
    # statements
    ir.NAssign: _FREE,
    ir.NAllocIs: _FREE,
    ir.NAllocBuf: _FREE,
    ir.NFor: Charge(1, 0, False),  # per iteration: increment + bound test
    ir.NIf: _FREE,
    ir.NReturn: _FREE,
    ir.NComment: _FREE,
    ir.NArrayAlias: _FREE,
    ir.NSend: _MESSAGE,
    ir.NRecv: _MESSAGE,
    ir.NSendVec: _MESSAGE,  # + one memory access per element sent
    ir.NRecvVec: _MESSAGE,  # + one per element stored, after the flush
    # the membership tests every processor makes before its role
    ir.NCoerce: Charge(2, 0, True),
    ir.NBroadcast: Charge(1, 0, True),
    ir.NCallProc: _FREE,
    ir.NExchange: _MESSAGE,
    ir.NScatterFlush: _MESSAGE,
    ir.NResolve: _FREE,
    ir.NAccum: _FREE,
    ir.NAccumLocal: _FREE,
}
