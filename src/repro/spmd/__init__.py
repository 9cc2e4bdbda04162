"""SPMD node programs: the compiler's target language.

A :class:`NodeProgram` is the message-passing program that every simulated
processor executes (parameterized by its rank ``p``), playing the role of
the C code the paper's compiler emits for the iPSC/2. The package
provides the IR itself, structural validation, a C-like pretty-printer
(matching the style of the paper's Appendix A listings), and an
interpreter that runs the program on the machine simulator.
"""

from repro import perf
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

# The value backend's table of compiled programs (``compiled_node``),
# registered here because the backend itself loads on first use (as
# ``run_spmd`` imports it): a process that only walks, replays or
# verifies programs never imports it.
perf.register_cache("spmd_compile", {})


def __getattr__(name):
    if name in ("CompiledNode", "compiled_node"):
        from repro.spmd import compile as backend

        return getattr(backend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
