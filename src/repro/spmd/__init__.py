"""SPMD node programs: the compiler's target language.

A :class:`NodeProgram` is the message-passing program that every simulated
processor executes (parameterized by its rank ``p``), playing the role of
the C code the paper's compiler emits for the iPSC/2. The package
provides the IR itself, structural validation, a C-like pretty-printer
(matching the style of the paper's Appendix A listings), and an
interpreter that runs the program on the machine simulator.
"""

from repro.spmd.ir import (
    BufLV,
    IsLV,
    NAllocBuf,
    NAllocIs,
    NAssign,
    NBin,
    NBufRead,
    NCall,
    NCallProc,
    NCoerce,
    NConst,
    NExpr,
    NFor,
    NIf,
    NIsRead,
    NMyNode,
    NNProcs,
    NodeProc,
    NodeProgram,
    NRecv,
    NRecvVec,
    NReturn,
    NSend,
    NSendVec,
    NStmt,
    NUn,
    NVar,
    VarLV,
)
from repro.spmd.compile import (
    CompiledNode,
    compiled_node,
)
from repro.spmd.interp import SPMDResult, run_spmd
from repro.spmd.pretty import pretty_program
from repro.spmd.validate import validate_program

__all__ = [
    "BufLV",
    "CompiledNode",
    "IsLV",
    "NAllocBuf",
    "NAllocIs",
    "NAssign",
    "NBin",
    "NBufRead",
    "NCall",
    "NCallProc",
    "NCoerce",
    "NConst",
    "NExpr",
    "NFor",
    "NIf",
    "NIsRead",
    "NMyNode",
    "NNProcs",
    "NRecv",
    "NRecvVec",
    "NReturn",
    "NSend",
    "NSendVec",
    "NStmt",
    "NUn",
    "NVar",
    "NodeProc",
    "NodeProgram",
    "SPMDResult",
    "VarLV",
    "compiled_node",
    "pretty_program",
    "run_spmd",
    "validate_program",
]
