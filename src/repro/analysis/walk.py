"""The verifier's per-rank abstract walk — which is also the predictor's.

:class:`VerifyWalk` runs the compiled abstract walk
(:mod:`repro.spmd.walk`) through its hooks for static checking — it
holds no statement or expression dispatch of its own:

* it keeps the plain walker's charge sink and rows: ``events`` holds
  ``(kind, peer, channel id, plen, ops, mems)`` with a compute row per
  flush and repeat markers where a plain :class:`~repro.spmd.walk.
  Walker` would put them, so :func:`repro.tune.predict` clocks these
  rows and walks nothing itself. ``origins`` pairs each send and
  receive row with its *origin*: the stack of enclosing
  ``proc``/``for``/``if`` labels, so balance and deadlock findings can
  say which loop or guard produced an event;
* invalid communication partners (self-sends, ranks outside the ring)
  become guard-coverage findings instead of aborting the walk — the
  offending event is skipped and analysis continues; the error the plain
  walker raises there is kept in ``raised`` for the predictor;
* it defines the access observers (``on_alloc``/``on_read``/
  ``on_write``), so its walk code evaluates every access index: locally
  allocated I-structures get a :class:`~repro.analysis.footprint.
  Tracker` recording every write and read as an exact index set;
* loops are *summarized* whenever possible: the body runs once with the
  loop variable bound to an :class:`Affine` value and every scalar the
  body may assign or receive bound to :data:`CARRIED`; every array
  access whose indices stay affine in the loop variable is recorded as
  one block instead of ``trips`` points, and the body's rows — compute
  charges included — are a template the plain walker's repeat step
  (:meth:`~repro.spmd.walk.Walker.replicate`) writes ``trips`` times.
  ``bodies`` counts the loop bodies run, ``covered`` the iterations
  they stood for. That is exact, because any data flow that could change which
  events an iteration emits or what it costs passes an :class:`Affine`
  or a previous iteration's scalar through a boolean or non-affine
  position and raises :class:`NotAffine`, rolling the transaction back
  to concrete iteration. Summarization is a pure speedup, never a
  soundness trade.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.footprint import Prog, Tracker
from repro.errors import ModelError, NodeRuntimeError
from repro.spmd.walk import (
    ARRAY,
    KIND_COMPUTE,
    KIND_RECV,
    KIND_SEND,
    UNKNOWN,
    ProcReturn,
    Walker,
)

#: Entry array parameters are scattered from fully defined inputs, so
#: every local element is readable and none is writable again; they are
#: marked rather than tracked.
DEFINED = object()


class NotAffine(ModelError):
    """A summarized body produced a value outside the affine domain.

    Caught where the summary was attempted; one that escapes the walk
    (a stale symbolic value met outside its loop) is an abstention like
    any other :class:`ModelError`."""


class Affine:
    """``base + k*delta`` for the ``k``-th iteration of one loop axis.

    Live instances always have ``trips > 1`` and ``delta != 0`` (the
    :func:`affine` factory collapses everything else to a plain int), so
    arithmetic can assume a genuine progression. Any operation that
    leaves the affine-in-one-axis domain — mixing axes, nonlinear terms,
    truth tests, comparisons — raises :class:`NotAffine`."""

    __slots__ = ("base", "delta", "axis", "trips")

    def __init__(self, base: int, delta: int, axis: int, trips: int):
        self.base = base
        self.delta = delta
        self.axis = axis
        self.trips = trips

    def __repr__(self) -> str:
        return f"Affine({self.base}+k*{self.delta}, axis={self.axis})"

    # -- additive ----------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, int):
            return Affine(self.base + other, self.delta, self.axis,
                          self.trips)
        if isinstance(other, Affine):
            if other.axis != self.axis:
                raise NotAffine("mixed loop axes")
            return affine(self.base + other.base, self.delta + other.delta,
                          self.axis, self.trips)
        raise NotAffine("non-integer operand")

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return Affine(self.base - other, self.delta, self.axis,
                          self.trips)
        if isinstance(other, Affine):
            if other.axis != self.axis:
                raise NotAffine("mixed loop axes")
            return affine(self.base - other.base, self.delta - other.delta,
                          self.axis, self.trips)
        raise NotAffine("non-integer operand")

    def __rsub__(self, other):
        if isinstance(other, int):
            return Affine(other - self.base, -self.delta, self.axis,
                          self.trips)
        raise NotAffine("non-integer operand")

    def __neg__(self):
        return Affine(-self.base, -self.delta, self.axis, self.trips)

    # -- multiplicative ----------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, int):
            return affine(self.base * other, self.delta * other, self.axis,
                          self.trips)
        raise NotAffine("nonlinear product")

    __rmul__ = __mul__

    def __floordiv__(self, other):
        # (base + k*delta) // c == base//c + k*(delta//c) exactly when c
        # divides delta (k*delta is then a multiple of c).
        if isinstance(other, int) and other > 0 \
                and self.delta % other == 0:
            return affine(self.base // other, self.delta // other,
                          self.axis, self.trips)
        raise NotAffine("floor division off the affine lattice")

    def __mod__(self, other):
        if isinstance(other, int) and other > 0 \
                and self.delta % other == 0:
            return self.base % other
        raise NotAffine("modulo off the affine lattice")

    def __truediv__(self, other):
        raise NotAffine("true division")

    def __rfloordiv__(self, other):
        raise NotAffine("division by a loop-dependent value")

    __rtruediv__ = __rfloordiv__
    __rmod__ = __rfloordiv__

    # -- everything else leaves the domain --------------------------------
    def _escape(self, *_args):
        raise NotAffine("loop-dependent value in a non-affine position")

    __bool__ = _escape
    __eq__ = _escape
    __ne__ = _escape
    __lt__ = _escape
    __le__ = _escape
    __gt__ = _escape
    __ge__ = _escape
    __hash__ = None


def affine(base: int, delta: int, axis: int, trips: int):
    """Build an :class:`Affine`, collapsing degenerate cases to ints."""
    if trips <= 1 or delta == 0:
        return base
    return Affine(base, delta, axis, trips)


class _Carried:
    """What a summarized body finds in a scalar it may assign or receive
    until it has stored to it: the previous iteration's value, which
    one symbolic run cannot know. Every use raises :class:`NotAffine`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "CARRIED"

    def _escape(self, *_args):
        raise NotAffine("scalar carried from the previous iteration")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _escape
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = _escape
    __truediv__ = __rtruediv__ = __neg__ = __abs__ = _escape
    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _escape
    __hash__ = None


CARRIED = _Carried()


class VerifyWalk(Walker):
    """One rank's walk: the plain walker's rows, plus the origins of its
    events and I-structure footprints."""

    def __init__(self, code, rank, nprocs, globals_, chan_ids=None):
        super().__init__(code, rank, nprocs, globals_, chan_ids)
        #: 1:1 with the send and receive rows of ``events``.
        self.origins: list[tuple[str, ...]] = []
        self.findings: list[Diagnostic] = []
        self.trackers: list[Tracker] = []
        self.path: list[str] = []
        self.completed = False
        #: The exception that ended the walk, and the error the plain
        #: walker raises at the first event this one skipped instead.
        self.error: Exception | None = None
        self.raised: NodeRuntimeError | None = None
        self._next_axis = 0
        self._active_axes: list[tuple[int, int]] = []  # (axis, trips)
        self._txn: list[tuple] = []  # footprints buffered while summarizing
        # Loops that failed to summarize (usually: they communicate).
        # Retrying on every visit would double-execute their prefix each
        # outer iteration, so after a couple of failures we stop trying.
        self._no_summarize: dict = {}
        #: Loop bodies run, and iterations those loop visits stand for.
        self.bodies = self.covered = 0

    # -- entry -------------------------------------------------------------
    def run(self, args) -> list[tuple]:
        """Walk the entry procedure; an abstention or a structural
        error ends the walk and is kept in ``error``, not raised."""
        try:
            super().run(args)
            self.completed = True
        except (ModelError, NodeRuntimeError) as err:
            self.error = err
        return self.events

    def call(self, name, args) -> None:
        self.path.append(f"proc {name}")
        try:
            super().call(name, args)
        finally:
            self.path.pop()

    def finding(
        self, code: str, pass_name: str, message: str,
        severity: Severity = Severity.ERROR, **details,
    ) -> None:
        self.findings.append(Diagnostic(
            code=code, severity=severity, pass_name=pass_name,
            message=message, rank=self.rank, path=tuple(self.path),
            details=details,
        ))

    # -- communication events ----------------------------------------------
    def emit_send(self, dst, channel: str, plen: int) -> None:
        if dst is UNKNOWN or isinstance(dst, Affine) or dst == self.rank \
                or not 0 <= dst < self.nprocs:
            return self._skip(dst, channel, (dst, channel, plen))
        Walker.emit_send(self, dst, channel, plen)
        self.origins.append(tuple(self.path))

    def emit_recv(self, src, channel: str) -> None:
        if src is UNKNOWN or isinstance(src, Affine) or src == self.rank \
                or not 0 <= src < self.nprocs:
            return self._skip(src, channel, (src, channel))
        Walker.emit_recv(self, src, channel)
        self.origins.append(tuple(self.path))

    def _skip(self, peer, channel: str, event: tuple) -> None:
        """An event the plain walker stops at (``event``: the arguments
        of its hook; a send's are three). A partner that depends on array
        data or on a summarized loop abstains; any other bad one is a
        guard-coverage finding, skipped — keeping the error the plain
        walker raises at the first — so the walk goes on."""
        send = len(event) == 3
        if peer is UNKNOWN:
            side = "send destination" if send else "receive source"
            raise ModelError(f"{side} depends on array data")
        if isinstance(peer, Affine):
            raise NotAffine("communication inside a summarized loop")
        if self.raised is None:
            try:
                (Walker.emit_send if send else Walker.emit_recv)(self, *event)
            except NodeRuntimeError as err:
                self.raised = err
        if peer == self.rank:
            self.finding(
                "GC002", "guard-coverage",
                f"self-{'send' if send else 'receive'} on channel "
                f"{channel!r}: the owner guard admits rank {self.rank} as "
                "its own partner",
                channel=channel, partner=peer,
            )
        else:
            self.finding(
                "GC001", "guard-coverage",
                f"{'send' if send else 'recv'} on channel {channel!r} "
                f"{'to' if send else 'from'} processor {peer}, outside "
                f"ring 0..{self.nprocs - 1}",
                channel=channel, partner=peer,
            )

    def copy(self, mark: int, more: int) -> None:
        """The plain walker's copy, and the copied events' origins."""
        comm = sum(row[0] == KIND_SEND or row[0] == KIND_RECV
                   for row in self.events[mark:])
        super().copy(mark, more)
        self.origins += self.origins[len(self.origins) - comm:] * more

    # -- loop policy -------------------------------------------------------
    def loop(self, loop, frame, lo, hi, step) -> None:
        if isinstance(lo, Affine) or isinstance(hi, Affine) \
                or isinstance(step, Affine):
            raise NotAffine("loop bounds vary with an outer summarized loop")
        trips = self.trips(lo, hi, step)
        if not trips:
            return
        self.covered += trips
        slot = len(self.path)
        self.path.append("")
        try:
            if trips > 1 and self._no_summarize.get(loop, 0) < 2:
                self.path[slot] = f"for {loop.name}={lo}..{hi}"
                if self._try_summarize(loop, frame, lo, step, trips):
                    return
                self._no_summarize[loop] = \
                    self._no_summarize.get(loop, 0) + 1
            self.bodies += trips
            for v in range(lo, hi + 1, step):
                self.path[slot] = f"for {loop.name}={v}"
                frame[loop.var] = v
                loop.body(self, frame)
        finally:
            self.path.pop()

    def _try_summarize(self, loop, frame, lo, step, trips) -> bool:
        """Run the body once over an Affine loop variable. True on success;
        on failure the frame's scalars, the pending charge and every
        record of the attempt are rolled back.

        The attempt is a transaction: it starts from zero pending charge
        and writes rows and origins to fresh lists, so what it leaves is
        one iteration's *template*, which :meth:`Walker.replicate`
        writes ``trips`` times. A ``return`` from inside the body
        (``ProcReturn``) also rolls back: it would end the loop
        mid-iteration, which only the concrete walk can place
        correctly."""
        axis = self._next_axis
        self._next_axis += 1
        saved_scalars = frame[:loop.nscalars]
        outer = self.events, self.origins
        pre_ops, pre_mems = self.ops, self.mems
        repeats = self.repeats
        mark = len(self._txn)
        self._active_axes.append((axis, trips))
        rows, origins = self.events, self.origins = [], []
        self.ops = self.mems = 0
        self.bodies += 1
        try:
            for slot in loop.event_assigned:
                frame[slot] = CARRIED
            frame[loop.var] = Affine(lo, step, axis, trips)
            loop.body(self, frame)
        except (NotAffine, ProcReturn):
            del self._txn[mark:]
            frame[:loop.nscalars] = saved_scalars
            self.ops, self.mems = pre_ops, pre_mems
            self.repeats = repeats
            return False
        finally:
            self._active_axes.pop()
            self.events, self.origins = outer
        # Every iteration emits the template verbatim (rank-varying
        # partners, data flow between iterations and loop-dependent
        # branches or bounds raised NotAffine above): the charge before
        # its first flush, which the plain walker's flush merges with
        # what is pending there, its rows and markers, and the charge
        # pending after them (all of it when it flushed nothing).
        markers, self.repeats = self.repeats - repeats, repeats
        flushed = bool(rows)
        tail_ops, tail_mems = self.ops, self.mems
        lead_ops = lead_mems = 0
        if flushed and rows[0][0] == KIND_COMPUTE:
            lead_ops, lead_mems = rows.pop(0)[4:]
        self.ops, self.mems = pre_ops, pre_mems

        def template(_walker, _frame) -> None:
            """Write one iteration (the repeat step's ``body``)."""
            if not flushed:
                self.ops += tail_ops
                self.mems += tail_mems
                return
            self.ops += lead_ops
            self.mems += lead_mems
            self.flush()
            self.events += rows
            self.origins += origins
            self.repeats += markers
            self.ops, self.mems = tail_ops, tail_mems

        # A scalar the body never stored to keeps its value; an assigned
        # one is iteration-dependent and forgotten.
        for slot in loop.event_assigned:
            if frame[slot] is CARRIED:
                frame[slot] = saved_scalars[slot]
        self.replicate(loop, frame, lo, step, trips, template)
        self.leave(loop, frame, lo, step, trips, loop.assigned)
        if not self._active_axes:
            records, self._txn = self._txn, []
            for record in records:
                self._commit(*record)
        return True

    # -- access observers: I-structure footprints --------------------------
    def on_alloc(self, name: str, shape):
        if not self._active_axes and all(
            isinstance(s, int) and s >= 0 for s in shape
        ):
            tracker = Tracker(name, shape, self.rank)
            self.trackers.append(tracker)
            return tracker
        return ARRAY  # unanalyzable or per-iteration allocation

    def on_read(self, arr, dims) -> None:
        if isinstance(arr, Tracker):
            self._record("r", arr, dims)

    def on_write(self, name: str, arr, dims) -> None:
        if isinstance(arr, Tracker):
            self._record("w", arr, dims)
        elif arr is DEFINED:
            # Writing a scattered entry array would re-define an
            # element; record against a virtual full footprint.
            self._record_defined_write(name, dims)

    def _record_defined_write(self, name: str, dims) -> None:
        self.findings.append(Diagnostic(
            code="IS001", severity=Severity.ERROR,
            pass_name="single-assignment",
            message=f"write to entry array {name!r}: every element of a "
                    "scattered input is already defined",
            rank=self.rank, path=tuple(self.path),
            details={"array": name},
        ))

    def _record(self, kind: str, tracker: Tracker, dims) -> None:
        if tracker.inexact:
            return
        progs = []
        axes_seen = set()
        for value in dims:
            if isinstance(value, int):
                progs.append(Prog(value, 0, 1))
            elif isinstance(value, Affine):
                if value.axis in axes_seen:
                    raise NotAffine("loop axis used in two dimensions")
                axes_seen.add(value.axis)
                progs.append(Prog(value.base, value.delta, value.trips))
            elif value is CARRIED:
                raise NotAffine("index carried from the previous iteration")
            else:  # UNKNOWN or non-integer: give up on this array
                tracker.inexact = True
                self.finding(
                    "IS004", "single-assignment",
                    f"array {tracker.name!r}: index not statically "
                    "analyzable; single-assignment tracking abandoned",
                    severity=Severity.WARNING, array=tracker.name,
                )
                return
        dims_t = tuple(progs)
        if kind == "w":
            # A write whose indices miss an active summarized axis is
            # repeated verbatim on every iteration of that loop: a
            # certain double write, reported without committing.
            for axis, trips in self._active_axes:
                if axis not in axes_seen and trips > 1:
                    self.finding(
                        "IS001", "single-assignment",
                        f"{tracker.name}[{', '.join(map(repr, dims_t))}] "
                        f"is written on every one of {trips} iterations "
                        "of the enclosing loop",
                        array=tracker.name,
                        element=tuple(p.base for p in dims_t),
                    )
                    return
            bad_dim = tracker.out_of_bounds(dims_t)
            if bad_dim is not None:
                self.finding(
                    "IS003", "single-assignment",
                    f"write {tracker.name}[{', '.join(map(repr, dims_t))}] "
                    f"escapes shape {tracker.shape} in dimension "
                    f"{bad_dim + 1}",
                    array=tracker.name, dimension=bad_dim + 1,
                )
                return
        origin = tuple(self.path)
        if self._active_axes:
            self._txn.append((kind, tracker, dims_t, origin))
        else:
            self._commit(kind, tracker, dims_t, origin)

    def _commit(self, kind, tracker, dims, origin) -> None:
        if tracker.inexact:
            return
        if kind == "r":
            tracker.record_read(dims, origin)
            return
        conflict = tracker.record_write(dims, origin)
        if conflict is not None:
            other_origin, witness = conflict
            self.findings.append(Diagnostic(
                code="IS001", severity=Severity.ERROR,
                pass_name="single-assignment",
                message=f"{tracker.name}[{', '.join(map(str, witness))}] "
                        "is written twice",
                rank=self.rank, path=origin,
                details={
                    "array": tracker.name, "element": witness,
                    "first_write": " > ".join(other_origin),
                    "second_write": " > ".join(origin),
                },
            ))
