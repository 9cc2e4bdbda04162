"""The wavefront program: Gauss-Seidel relaxation in normal order.

Three forms of the same computation:

* :data:`SOURCE` — the sequential mini-Id program of Figure 1, with the
  wrapped-column domain decomposition as ``map`` declarations.
* :func:`reference_rows` — a plain-Python oracle for the same kernel.
* :func:`handwritten_wavefront` — the hand-optimized message-passing
  program of Figure 3, written directly in the SPMD IR. It wraps columns
  around the ring, sends ``Old`` columns one message per column, and
  pipelines ``New`` values in blocks of ``blksize`` — the baseline every
  compiled version is measured against.

Conventions: 1-based global indices, columns wrapped so column ``j``
lives on processor ``(j - 1) mod S``; boundary elements carry the value
``bval`` (the paper's ``init-boundary``); interior elements are
``c * (New[i-1,j] + New[i,j-1] + Old[i+1,j] + Old[i,j+1])``.
"""

from __future__ import annotations

from functools import lru_cache

from repro.distrib import WrappedCols
from repro.spmd.ir import (
    BufLV,
    VarLV,
    IsLV,
    NAllocBuf,
    NAllocIs,
    NAssign,
    NBin,
    NBufRead,
    NCall,
    NCallProc,
    NComment,
    NConst,
    NFor,
    NIf,
    NIsRead,
    NMyNode,
    NNProcs,
    NodeProc,
    NodeProgram,
    NRecvVec,
    NReturn,
    NSendVec,
    NVar,
)

SOURCE = """
-- Figure 1: Gauss-Seidel iteration (wavefront) with wrapped columns.
param N;
const c = 1;
const bval = 1;

map Old by wrapped_cols;
map New by wrapped_cols;
map c on all;
map bval on all;

procedure gs_iteration(Old: matrix) returns matrix {
    let New = matrix(N, N);
    call init_boundary(New);
    for j = 2 to N - 1 {
        for i = 2 to N - 1 {
            New[i, j] = c * (New[i - 1, j] + New[i, j - 1]
                             + Old[i + 1, j] + Old[i, j + 1]);
        }
    }
    return New;
}

procedure init_boundary(A: matrix) {
    for i = 1 to N {
        A[i, 1] = bval;
        A[i, N] = bval;
    }
    for j = 2 to N - 1 {
        A[1, j] = bval;
        A[N, j] = bval;
    }
}
"""

ENTRY = "gs_iteration"

ENTRY_SHAPES = {"Old": ("N", "N")}

# The source with the i/j loops reversed — used for the loop-interchange
# study (§4: "if the sequential version of Gauss-Seidel had had the i and
# j-loops reversed then generated code would not have shown any
# parallelism, so loop interchange would be required").
SOURCE_REVERSED_LOOPS = SOURCE.replace(
    """    for j = 2 to N - 1 {
        for i = 2 to N - 1 {""",
    """    for i = 2 to N - 1 {
        for j = 2 to N - 1 {""",
)

DISTRIBUTION = WrappedCols()


def reference_rows(n: int, old: list[list[int]], c: int = 1, bval: int = 1):
    """Sequential oracle: returns New as nested 0-based rows."""
    new: list[list[int | None]] = [[None] * n for _ in range(n)]
    for k in range(n):
        new[k][0] = bval
        new[k][n - 1] = bval
        new[0][k] = bval
        new[n - 1][k] = bval
    for j in range(1, n - 1):
        for i in range(1, n - 1):
            new[i][j] = c * (
                new[i - 1][j] + new[i][j - 1] + old[i + 1][j] + old[i][j + 1]
            )
    return new


# ---------------------------------------------------------------------------
# Figure 3: the handwritten message-passing program
# ---------------------------------------------------------------------------

# IR shorthand (local to this module, keeps the builder readable).
def _c(v) -> NConst:
    return NConst(v)


def _v(name) -> NVar:
    return NVar(name)


def _b(op, left, right) -> NBin:
    return NBin(op, left, right)


@lru_cache(maxsize=8)
def handwritten_wavefront(channel_old="old", channel_new="new") -> NodeProgram:
    """Figure 3 in SPMD IR, generalized to handle boundary columns.

    The program is immutable (frozen IR), so the memoized instance is
    safely shared — and a stable identity lets the closure-compiling
    backend's per-program table hit across measurements.

    Globals expected at run time: ``N`` (grid size), ``blksize`` (the
    pipeline block size), ``c`` and ``bval``. Entry takes the local part
    of ``Old`` and returns the local part of ``New``.

    Per owned global column ``j`` (in increasing order):

    1. if ``j >= 3``: send ``Old[2..N-1, j]`` to the owner of column
       ``j-1`` in *one* message (the paper's vectorized Old send);
    2. if ``2 <= j <= N-1``: receive ``Old[2..N-1, j+1]`` from the right,
       then walk the column in blocks — receive a block of
       ``New[.., j-1]``, compute the block, send it right as one message
       (computation/communication pipelining via blocking);
    3. if ``j == 1``: the column is pure boundary; its blocks are sent
       right so the owner of column 2 can start — this is what lights the
       wavefront.
    """
    p = NMyNode()
    S = NNProcs()
    N = _v("N")
    blk = _v("blksize")

    # Global column for local column jl on this processor.
    j_of = _b("+", _b("+", p, _c(1)), _b("*", _b("-", _v("jl"), _c(1)), S))

    multi = _b(">", S, _c(1))

    def fill_send_old():
        # soldbuf[i] = Old_local[i, jl] for i in 2..N-1; one vector send left.
        return NIf(
            _b("and", multi, _b(">=", _v("j"), _c(3))),
            [
                NComment("send Old column j to the owner of column j-1"),
                NFor(
                    "i",
                    _c(2),
                    _b("-", N, _c(1)),
                    _c(1),
                    [
                        NAssign(
                            BufLV("soldvalues", (_v("i"),)),
                            NIsRead("Old", (_v("i"), _v("jl"))),
                        )
                    ],
                ),
                NSendVec(
                    _b("mod", _b("-", p, _c(1)), S),
                    channel_old,
                    "soldvalues",
                    _c(2),
                    _b("-", N, _c(1)),
                ),
            ],
            [],
        )

    def get_old_right():
        # oldvalues[2..N-1] := Old[.., j+1] (recv from right, or local copy).
        local_copy = NFor(
            "i",
            _c(2),
            _b("-", N, _c(1)),
            _c(1),
            [
                NAssign(
                    BufLV("oldvalues", (_v("i"),)),
                    NIsRead("Old", (_v("i"), _b("+", _v("jl"), _c(1)))),
                )
            ],
        )
        return NIf(
            multi,
            [
                NRecvVec(
                    _b("mod", _b("+", p, _c(1)), S),
                    channel_old,
                    "oldvalues",
                    _c(2),
                    _b("-", N, _c(1)),
                )
            ],
            [local_copy],
        )

    ilo = _b("+", _c(2), _b("*", _v("k"), blk))
    ihi = NCall("min", (_b("+", ilo, _b("-", blk, _c(1))), _b("-", N, _c(1))))

    def blocks_of_column(compute: bool):
        """The k-loop over row blocks of the current column.

        compute=True: receive New[.., j-1] block, compute, stash into
        snewvalues. compute=False (column 1): copy boundary values into
        snewvalues. Either way, send the block right when j <= N-2.
        """
        body: list = []
        body.append(NAssign(_mk_var("ilo"), ilo))
        body.append(NAssign(_mk_var("ihi"), ihi))
        if compute:
            get_new_left = NIf(
                multi,
                [
                    NRecvVec(
                        _b("mod", _b("-", p, _c(1)), S),
                        channel_new,
                        "rnewvalues",
                        _c(1),
                        _b("+", _b("-", _v("ihi"), _v("ilo")), _c(1)),
                    )
                ],
                [
                    NFor(
                        "i",
                        _v("ilo"),
                        _v("ihi"),
                        _c(1),
                        [
                            NAssign(
                                BufLV(
                                    "rnewvalues",
                                    (_b("+", _b("-", _v("i"), _v("ilo")), _c(1)),),
                                ),
                                NIsRead(
                                    "New", (_v("i"), _b("-", _v("jl"), _c(1)))
                                ),
                            )
                        ],
                    )
                ],
            )
            body.append(get_new_left)
            body.append(
                NFor(
                    "i",
                    _v("ilo"),
                    _v("ihi"),
                    _c(1),
                    [
                        NAssign(
                            _mk_var("t"),
                            _b(
                                "*",
                                _v("c"),
                                _b(
                                    "+",
                                    _b(
                                        "+",
                                        _b(
                                            "+",
                                            NIsRead(
                                                "New",
                                                (_b("-", _v("i"), _c(1)), _v("jl")),
                                            ),
                                            NBufRead(
                                                "rnewvalues",
                                                (
                                                    _b(
                                                        "+",
                                                        _b("-", _v("i"), _v("ilo")),
                                                        _c(1),
                                                    ),
                                                ),
                                            ),
                                        ),
                                        NIsRead(
                                            "Old",
                                            (_b("+", _v("i"), _c(1)), _v("jl")),
                                        ),
                                    ),
                                    NBufRead("oldvalues", (_v("i"),)),
                                ),
                            ),
                        ),
                        NAssign(IsLV("New", (_v("i"), _v("jl"))), _v("t")),
                        NAssign(
                            BufLV(
                                "snewvalues",
                                (_b("+", _b("-", _v("i"), _v("ilo")), _c(1)),),
                            ),
                            _v("t"),
                        ),
                    ],
                )
            )
        else:
            body.append(
                NFor(
                    "i",
                    _v("ilo"),
                    _v("ihi"),
                    _c(1),
                    [
                        NAssign(
                            BufLV(
                                "snewvalues",
                                (_b("+", _b("-", _v("i"), _v("ilo")), _c(1)),),
                            ),
                            NIsRead("New", (_v("i"), _v("jl"))),
                        )
                    ],
                )
            )
        body.append(
            NIf(
                _b("and", multi, _b("<=", _v("j"), _b("-", N, _c(2)))),
                [
                    NSendVec(
                        _b("mod", _b("+", p, _c(1)), S),
                        channel_new,
                        "snewvalues",
                        _c(1),
                        _b("+", _b("-", _v("ihi"), _v("ilo")), _c(1)),
                    )
                ],
                [],
            )
        )
        nb = _b("div", _b("+", _b("-", N, _c(2)), _b("-", blk, _c(1))), blk)
        return NFor("k", _c(0), _b("-", nb, _c(1)), _c(1), body)

    column_body: list = [
        NAssign(_mk_var("j"), j_of),
        NIf(
            _b("<=", _v("j"), N),
            [
                fill_send_old(),
                NIf(
                    _b(
                        "and",
                        _b(">=", _v("j"), _c(2)),
                        _b("<=", _v("j"), _b("-", N, _c(1))),
                    ),
                    [
                        NComment("compute column j, pipelined in blocks"),
                        get_old_right(),
                        blocks_of_column(compute=True),
                    ],
                    [
                        NIf(
                            _b("==", _v("j"), _c(1)),
                            [
                                NComment(
                                    "column 1 is boundary; stream it right"
                                ),
                                blocks_of_column(compute=False),
                            ],
                            [],
                        )
                    ],
                ),
            ],
            [],
        ),
    ]

    nlocal = _b("div", _b("+", N, _b("-", S, _c(1))), S)
    main_body: list = [
        NAllocIs("New", (N, nlocal)),
        NCallProc("init_boundary", ("New",)),
        NAllocBuf("oldvalues", (N,)),
        NAllocBuf("soldvalues", (N,)),
        NAllocBuf("rnewvalues", (_v("blksize"),)),
        NAllocBuf("snewvalues", (_v("blksize"),)),
        NFor("jl", _c(1), nlocal, _c(1), column_body),
        NReturn("New"),
    ]

    init_body: list = [
        NFor(
            "jl",
            _c(1),
            nlocal,
            _c(1),
            [
                NAssign(_mk_var("j"), j_of),
                NIf(
                    _b("<=", _v("j"), N),
                    [
                        NIf(
                            _b(
                                "or",
                                _b("==", _v("j"), _c(1)),
                                _b("==", _v("j"), N),
                            ),
                            [
                                NFor(
                                    "i",
                                    _c(1),
                                    N,
                                    _c(1),
                                    [
                                        NAssign(
                                            IsLV("A", (_v("i"), _v("jl"))),
                                            _v("bval"),
                                        )
                                    ],
                                )
                            ],
                            [
                                NAssign(IsLV("A", (_c(1), _v("jl"))), _v("bval")),
                                NAssign(IsLV("A", (N, _v("jl"))), _v("bval")),
                            ],
                        )
                    ],
                    [],
                ),
            ],
        )
    ]

    procs = {
        "wavefront": NodeProc(
            "wavefront",
            params=["Old"],
            array_params={"Old"},
            body=main_body,
        ),
        "init_boundary": NodeProc(
            "init_boundary", params=["A"], array_params={"A"}, body=init_body
        ),
    }
    return NodeProgram(name="handwritten-wavefront", procs=procs, entry="wavefront")


def _mk_var(name: str) -> VarLV:
    return VarLV(name)


def handwritten_message_count(n: int, blksize: int, nprocs: int) -> int:
    """Closed-form message count of the handwritten program.

    For S >= 2: one Old-column message per column 3..N, plus
    ceil((N-2)/blksize) New-block messages per column 1..N-2. At N=128,
    blksize=8 this is 126 + 126*16 = 2142, the paper's footnote-3 figure.
    """
    if nprocs == 1:
        return 0
    interior = n - 2
    nblocks = -(-interior // blksize)
    old_messages = n - 2  # columns 3..N
    new_messages = (n - 2) * nblocks  # columns 1..N-2
    return old_messages + new_messages
