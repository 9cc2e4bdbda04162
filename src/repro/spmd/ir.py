"""The SPMD intermediate representation.

Design notes:

* One program for all processors. ``NMyNode()`` is the executing
  processor's rank ``p``; ``NNProcs()`` is the ring size ``S``. Both
  run-time-resolved and compile-time-resolved programs are SPMD — the
  difference is how much rank-dependence has been folded into guards vs
  loop bounds.
* All array accesses use *local* indices. The compiler emits the
  distribution's ``local`` function explicitly (the ``col-local(i, j)``
  calls of Figure 5); the IR itself knows nothing about distributions.
* Communication is point-to-point on named channels with FIFO matching
  per (src, dst, channel). ``NCoerce`` is run-time resolution's
  communication primitive (§3.1); compile-time resolution splits every
  coerce into explicit ``NSend``/``NRecv`` halves.
* Expressions are pure. Only statements touch memory or the network.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

#: Deepest node-procedure call nesting any executor of this IR follows
#: (both value backends and the abstract walk) before raising.
MAX_CALL_DEPTH = 64

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class NExpr:
    """Base class for node-program expressions (pure)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class NConst(NExpr):
    value: int | float | bool


@dataclass(frozen=True, slots=True)
class NVar(NExpr):
    name: str


@dataclass(frozen=True, slots=True)
class NMyNode(NExpr):
    """The executing processor's rank (``mynode()``)."""


@dataclass(frozen=True, slots=True)
class NNProcs(NExpr):
    """The number of processors (the ring size S)."""


@dataclass(frozen=True, slots=True)
class NBin(NExpr):
    op: str  # + - * / div mod == != < <= > >= and or
    left: NExpr
    right: NExpr


#: The total binary operators, spelled as in Python, and the two partial
#: integer ones — ``op -> (function, what a zero divisor is called)``.
#: ``and``/``or`` short-circuit and belong to each executor. Shared by
#: the value compiler and the abstract walk; the interpreter, being
#: their oracle, spells its own.
BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
DIVOPS = {
    "div": (operator.floordiv, "division"),
    "mod": (operator.mod, "modulo"),
}


@dataclass(frozen=True, slots=True)
class NUn(NExpr):
    op: str  # - not
    operand: NExpr


@dataclass(frozen=True, slots=True)
class NCall(NExpr):
    """A builtin scalar function (min/max/abs)."""

    func: str
    args: tuple[NExpr, ...]


@dataclass(frozen=True, slots=True)
class NIsRead(NExpr):
    """``is_read(arr, local indices)`` on this processor's part of ``arr``."""

    array: str
    indices: tuple[NExpr, ...]


@dataclass(frozen=True, slots=True)
class NBufRead(NExpr):
    """Read a slot of a local scratch buffer."""

    buf: str
    indices: tuple[NExpr, ...]


@dataclass(frozen=True, slots=True)
class NIndirect(NExpr):
    """A gather read ``array[g]`` through a data-dependent *global* index.

    The affine machinery cannot place ``g`` statically, so the value is
    served from the ghost table that the matching :class:`NExchange`
    (same ``sched``) filled: reading a global index the exchange never
    fetched is a runtime error. Rank-1 arrays only.
    """

    sched: str
    array: str
    index: NExpr


# ---------------------------------------------------------------------------
# L-values (targets of assignment / receive)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class VarLV:
    name: str


@dataclass(frozen=True, slots=True)
class IsLV:
    array: str
    indices: tuple[NExpr, ...]


@dataclass(frozen=True, slots=True)
class BufLV:
    buf: str
    indices: tuple[NExpr, ...]


LValue = VarLV | IsLV | BufLV


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class NStmt:
    """Base class for node-program statements.

    Statements are frozen, slotted dataclasses: cheap to allocate and
    (structurally) hashable, which the closure-compiling backend's
    compilation cache relies on. Nodes carrying statement lists coerce
    them to tuples on construction, so call sites may keep passing
    lists. Rewrites always build fresh trees (see ``repro.spmd.rewrite``).
    """

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class NAssign(NStmt):
    target: LValue
    value: NExpr


@dataclass(frozen=True, slots=True)
class NAllocIs(NStmt):
    """Allocate this processor's local part of a distributed I-structure."""

    name: str
    shape: tuple[NExpr, ...]


@dataclass(frozen=True, slots=True)
class NAllocBuf(NStmt):
    """Allocate a local scratch buffer (calloc in the paper's listings)."""

    name: str
    shape: tuple[NExpr, ...]


@dataclass(frozen=True, slots=True)
class NFor(NStmt):
    var: str
    lo: NExpr
    hi: NExpr
    step: NExpr
    body: tuple[NStmt, ...]

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))


@dataclass(frozen=True, slots=True)
class NIf(NStmt):
    cond: NExpr
    then_body: tuple[NStmt, ...]
    else_body: tuple[NStmt, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "then_body", tuple(self.then_body))
        object.__setattr__(self, "else_body", tuple(self.else_body))


@dataclass(frozen=True, slots=True)
class NSend(NStmt):
    """``csend``: transmit scalar values to processor ``dst``."""

    dst: NExpr
    channel: str
    values: tuple[NExpr, ...]


@dataclass(frozen=True, slots=True)
class NRecv(NStmt):
    """``crecv``: block for one message from ``src``; store its scalars.

    The message must carry exactly ``len(targets)`` scalars.
    """

    src: NExpr
    channel: str
    targets: tuple[LValue, ...]


@dataclass(frozen=True, slots=True)
class NSendVec(NStmt):
    """Send buffer slots ``lo..hi`` (inclusive) as one message."""

    dst: NExpr
    channel: str
    buf: str
    lo: NExpr
    hi: NExpr


@dataclass(frozen=True, slots=True)
class NRecvVec(NStmt):
    """Receive one message into buffer slots ``lo..hi`` (inclusive)."""

    src: NExpr
    channel: str
    buf: str
    lo: NExpr
    hi: NExpr


@dataclass(frozen=True, slots=True)
class NCoerce(NStmt):
    """Run-time resolution's ``coerce`` (§3.1, Figure 4b).

    Executed by every processor. Dynamically: let ``o = owner`` and
    ``d = dest``. If ``o == d``, the owner simply evaluates ``value`` into
    ``target``. Otherwise the owner sends the value to ``d`` and ``d``
    receives it into ``target``. ``value`` is evaluated only on the owner
    (it reads data that exists only there).
    """

    target: VarLV
    value: NExpr
    owner: NExpr
    dest: NExpr
    channel: str


@dataclass(frozen=True, slots=True)
class NBroadcast(NStmt):
    """Owner sends ``value`` to every other processor; all store it.

    Coercion to the ALL mapping: needed when a replicated variable is
    defined from owned data.
    """

    target: VarLV
    value: NExpr
    owner: NExpr
    channel: str


@dataclass(frozen=True, slots=True)
class NResolve(NStmt):
    """Inspector enumeration leaf: record one needed global index.

    Only meaningful inside an :class:`NExchange`'s ``enum_body``; the
    executor appends ``index``'s value to the executing rank's need list
    (first occurrence wins, duplicates are dropped).
    """

    sched: str
    index: NExpr


@dataclass(frozen=True, slots=True)
class NExchange(NStmt):
    """Inspector/executor gather exchange for one irregular site.

    Executed by every processor. On the first execution the inspector
    runs: ``enum_body`` (a copy of the site's loop nest whose leaves are
    :class:`NResolve` statements) enumerates the global indices this
    rank will read, the ranks exchange request lists once on
    ``channel + ".req"``, and the resulting schedule (who serves whom,
    which elements, in what order) is retained under ``sched``. Every
    execution — including the first — then replays the *data phase*:
    one packed message per (server, needer) pair with a non-empty
    element list on ``channel + ".dat"``, landing values in the ghost
    table that :class:`NIndirect` reads. When a pre-planned schedule was
    injected (a cache hit on the index-array digest), the enumeration
    and request traffic are skipped entirely.

    ``owner``/``local`` are the array's distribution templates over the
    placeholder variable ``__gidx``.
    """

    sched: str
    array: str
    channel: str
    enum_body: tuple[NStmt, ...]
    owner: NExpr
    local: NExpr

    def __post_init__(self):
        object.__setattr__(self, "enum_body", tuple(self.enum_body))


@dataclass(frozen=True, slots=True)
class NAccum(NStmt):
    """Buffer one scatter contribution ``array[g] += value`` locally.

    Contributions accumulate in issue order in the executor's buffer for
    ``sched``; the matching :class:`NScatterFlush` routes and applies
    them.
    """

    sched: str
    array: str
    index: NExpr
    value: NExpr


@dataclass(frozen=True, slots=True)
class NScatterFlush(NStmt):
    """Route and apply the contributions buffered under ``sched``.

    First execution resolves each buffered global index against the
    ``owner`` template and exchanges per-destination index lists once on
    ``channel + ".req"``; every execution sends one values-only packed
    message per non-empty destination on ``channel + ".dat"`` and
    applies contributions via I-structure accumulation (own
    contributions in buffer order, then one message per sending rank in
    rank order).
    """

    sched: str
    array: str
    channel: str
    owner: NExpr
    local: NExpr


@dataclass(frozen=True, slots=True)
class NAccumLocal(NStmt):
    """Owner-local accumulate ``array[locals] += value`` (no routing)."""

    array: str
    indices: tuple[NExpr, ...]
    value: NExpr


@dataclass(frozen=True, slots=True)
class NArrayAlias(NStmt):
    """Rebind array ``name`` to the object currently bound to ``source``.

    The ping-pong step of iterative irregular kernels (``x = xn;``):
    aliasing is a frame update, it moves no data and charges nothing.
    """

    name: str
    source: str


@dataclass(frozen=True, slots=True)
class NCallProc(NStmt):
    """Invoke another node procedure.

    ``args`` are scalar expressions or array names (strings) — arrays are
    passed by reference. ``result`` optionally names a local variable that
    receives the return value.
    """

    proc: str
    args: tuple[object, ...]  # NExpr | str (array name)
    result: VarLV | None = None
    array_result: str | None = None  # bind a returned array under this name


@dataclass(frozen=True, slots=True)
class NReturn(NStmt):
    """Return a scalar expression or an array (by name) from a procedure."""

    value: object | None = None  # NExpr | str (array name) | None


@dataclass(frozen=True, slots=True)
class NComment(NStmt):
    """A no-op annotation, preserved by the pretty printer."""

    text: str


# ---------------------------------------------------------------------------
# Procedures and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NodeProc:
    """One node-level procedure.

    ``params`` lists parameter names; ``array_params`` flags which of them
    are arrays (bound by reference to local parts). Sequences are coerced
    to immutable forms on construction, making procedures hashable.
    """

    name: str
    params: tuple[str, ...]
    array_params: frozenset[str] = frozenset()
    body: tuple[NStmt, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "array_params", frozenset(self.array_params))
        object.__setattr__(self, "body", tuple(self.body))


@dataclass(frozen=True, slots=True, eq=False)
class NodeProgram:
    """A complete SPMD program: procedures plus an entry point.

    ``eq=False`` keeps identity comparison/hashing (inherited from
    ``object``): a program *is* its object, which is exactly the key the
    per-program closure tables (``spmd_compile``, ``walk_code``) need. Its
    ``repr`` is the pretty-printed program — deterministic across
    processes, which is what lets a program stand in a persistent cache
    key (:func:`repro.perf.stable_key`).
    """

    name: str
    procs: dict[str, NodeProc]
    entry: str

    def entry_proc(self) -> NodeProc:
        return self.procs[self.entry]

    def __repr__(self) -> str:
        from repro.spmd.pretty import pretty_program

        return pretty_program(self)


def walk_stmts(body: list[NStmt]):
    """Yield every statement in a body, depth-first (pre-order)."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, NFor):
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, NIf):
            yield from walk_stmts(stmt.then_body)
            yield from walk_stmts(stmt.else_body)
        elif isinstance(stmt, NExchange):
            yield from walk_stmts(stmt.enum_body)


def proc_binders(proc: NodeProc):
    """Yield ``(name, is_array)`` for each name ``proc`` binds, in binding
    order: its parameters, then — statement by statement, pre-order —
    loop variables, allocated / aliased / call-returned arrays and the
    scalar targets of assign, receive, coerce, broadcast and call
    results. Names repeat; both closure compilers lay their frame slots
    out from this one scan."""
    for name in proc.params:
        yield name, name in proc.array_params
    for stmt in walk_stmts(proc.body):
        kind = type(stmt)
        if kind is NFor:
            yield stmt.var, False
        elif kind in (NAllocIs, NAllocBuf, NArrayAlias):
            yield stmt.name, True
        elif kind is NCallProc and stmt.array_result is not None:
            yield stmt.array_result, True
        else:
            if kind is NRecv:
                targets = stmt.targets
            elif kind in (NAssign, NCoerce, NBroadcast):
                targets = (stmt.target,)
            elif kind is NCallProc:
                targets = (stmt.result,)  # None when the call binds nothing
            else:
                targets = ()
            for target in targets:
                if type(target) is VarLV:
                    yield target.name, False


def walk_exprs(e: NExpr):
    """Yield every expression node under ``e``, depth-first."""
    yield e
    if isinstance(e, NBin):
        yield from walk_exprs(e.left)
        yield from walk_exprs(e.right)
    elif isinstance(e, NUn):
        yield from walk_exprs(e.operand)
    elif isinstance(e, NCall):
        for a in e.args:
            yield from walk_exprs(a)
    elif isinstance(e, (NIsRead, NBufRead)):
        for a in e.indices:
            yield from walk_exprs(a)
    elif isinstance(e, NIndirect):
        yield from walk_exprs(e.index)


def stmt_channels(stmt: NStmt) -> list[str]:
    """Channel names a statement communicates on (empty for local ops)."""
    if isinstance(stmt, (NSend, NRecv, NSendVec, NRecvVec, NCoerce, NBroadcast)):
        return [stmt.channel]
    if isinstance(stmt, (NExchange, NScatterFlush)):
        # The inspector's one-time request round and the executor's
        # per-iteration data round use distinct derived channels.
        return [stmt.channel + ".req", stmt.channel + ".dat"]
    return []
