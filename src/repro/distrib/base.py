"""Placement and distribution base classes."""

from __future__ import annotations

from dataclasses import dataclass

from repro import perf
from repro.errors import MappingError
from repro.symbolic import Expr, sym


# ---------------------------------------------------------------------------
# Scalar placements
# ---------------------------------------------------------------------------


class Placement:
    """Where a scalar variable lives."""

    def is_replicated(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class OnProc(Placement):
    """The scalar is owned by a single processor (``a:P1``).

    ``proc`` is a symbolic expression so mapping-polymorphic procedures
    (§5.1) can place arguments on a processor named by a map parameter.
    """

    proc: Expr

    def __init__(self, proc: "Expr | int | str"):
        object.__setattr__(self, "proc", sym(proc))

    def is_replicated(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"proc({self.proc})"


@dataclass(frozen=True)
class OnAll(Placement):
    """The scalar is replicated on every processor (``a:ALL``)."""

    def is_replicated(self) -> bool:
        return True

    def __str__(self) -> str:
        return "all"


# ---------------------------------------------------------------------------
# Array distributions
# ---------------------------------------------------------------------------


def ceil_div(a, b):
    """``ceil(a / b)`` for positive ``b``: an ``Expr`` for ``Expr``
    operands, an int for ints."""
    return (a + b - 1) // b


# One rule per axis kind. A rule maps 1-based index ``i`` of an axis of
# extent ``n``, dealt over ``p`` processors, to its owner along the axis,
# its local index and the axis's local extent; ``b`` is the fixed block
# of a block-cyclic axis. The rules use only ``//``, ``%``, ``*``, ``+``
# and :func:`ceil_div`, so ``Expr`` operands build the symbolic map and
# ints compute the concrete one: the two cannot disagree.


def whole(i, n, p, b):
    """Not distributed: every index stays where it is."""
    return 0, i, n


def cyclic(i, n, p, b):
    """Indices dealt one at a time, like cards (``b = 1``)."""
    return (i - 1) % p, (i - 1) // p + 1, ceil_div(n, p)


def block(i, n, p, b):
    """One contiguous block of ``ceil(n / p)`` indices per processor."""
    width = ceil_div(n, p)
    return (i - 1) // width, (i - 1) % width + 1, width


def block_cyclic(i, n, p, b):
    """Blocks of ``b`` indices dealt cyclically."""
    return (
        ((i - 1) // b) % p,
        ((i - 1) // (b * p)) * b + (i - 1) % b + 1,
        ceil_div(ceil_div(n, b), p) * b,
    )


perf.register_cache("tile", {})


class Distribution:
    """The ``<map, local, alloc>`` triple for one array (paper §2.3), as
    a tiling applied one axis at a time.

    A subclass is a declaration: its ``name``, one rule per array axis in
    ``axes``, and, for a map that takes an argument, ``arg`` — the
    attribute it sets (``block`` for a block-cyclic axis, ``q`` for the
    processor rows of a grid) and what it is called in errors. The
    distributed axes share the ring row-major: ``S`` processors for a
    one-axis map, ``q`` by ``S div q`` for a grid.
    """

    name = "<abstract>"
    axes: tuple = ()
    arg: tuple[str, str] | None = None
    block = None
    q = None

    def __init__(self, *args: int):
        wanted = 0 if self.arg is None else 1
        if len(args) != wanted:
            raise TypeError(
                f"{self.name} takes {wanted} arguments, got {len(args)}"
            )
        if args:
            attr, what = self.arg
            if args[0] < 1:
                raise MappingError(f"{what} must be positive, got {args[0]}")
            setattr(self, attr, args[0])

    @property
    def rank(self) -> int:
        """The number of indices the distribution expects."""
        return len(self.axes)

    def procs(self, nprocs):
        """Processors along each distributed axis."""
        return (nprocs,) if self.q is None else (self.q, nprocs // self.q)

    def check_ring(self, nprocs: int) -> None:
        """Raise :class:`MappingError` when a ring of ``nprocs`` leaves a
        distributed axis without processors (a grid needs ``S >= q``)."""
        if min(self.procs(nprocs)) < 1:
            raise MappingError(
                f"{self}: a ring of {nprocs} leaves an axis no processors"
            )

    def tile(self, indices, nprocs, shape):
        """Owner, local indices and alloc shape of element ``indices``:
        ``Expr``s for ``Expr`` operands, ints for ints."""
        owner, local, alloc = None, [], []
        procs = iter(self.procs(nprocs))
        for rule, i, n in zip(self.axes, indices, shape):
            p = None if rule is whole else next(procs)
            o, l, a = rule(i, n, p, self.block)
            local.append(l)
            alloc.append(a)
            if p is not None:
                owner = o if owner is None else owner * p + o
        return owner, tuple(local), tuple(alloc)

    # -- symbolic forms (compile-time resolution) --------------------------
    def _symbolic_tile(self, indices, nprocs, shape):
        """:meth:`tile` over ``Expr``s, memoized: the operands are
        interned, and a map depends only on its class and argument."""
        return perf.memo(
            "tile", (type(self), self.block, self.q, indices, nprocs, shape),
            lambda: self.tile(indices, nprocs, shape),
        )

    def owner_expr(
        self, indices: tuple[Expr, ...], nprocs: Expr, shape: tuple[Expr, ...]
    ) -> Expr:
        """``map``: the owner processor of element ``indices``."""
        return self._symbolic_tile(indices, nprocs, shape)[0]

    def local_expr(
        self, indices: tuple[Expr, ...], nprocs: Expr, shape: tuple[Expr, ...]
    ) -> tuple[Expr, ...]:
        """``local``: the element's indices within the owner's local array."""
        return self._symbolic_tile(indices, nprocs, shape)[1]

    def alloc_shape_expr(
        self, shape: tuple[Expr, ...], nprocs: Expr
    ) -> tuple[Expr, ...]:
        """``alloc``: the local array shape each processor allocates."""
        # Any indices do: the extents do not depend on them.
        return self._symbolic_tile(shape, nprocs, shape)[2]

    # -- concrete forms: the symbolic ones evaluated ------------------------
    def _symbols(self, shape: tuple) -> tuple:
        return _vars("__i", self.rank), _NPROCS, _vars("__n", len(shape))

    def _env(self, indices: tuple, nprocs: int, shape: tuple) -> dict:
        if len(indices) != self.rank:
            raise MappingError(
                f"{self.name} expects {self.rank} indices, got {len(indices)}"
            )
        self.check_ring(nprocs)
        env = {"S": nprocs}
        for k, idx in enumerate(indices):
            env[f"__i{k + 1}"] = idx
        for k, extent in enumerate(shape):
            env[f"__n{k + 1}"] = extent
        return env

    def owner(self, indices: tuple[int, ...], nprocs: int, shape: tuple[int, ...]) -> int:
        env = self._env(indices, nprocs, shape)
        return self.owner_expr(*self._symbols(shape)).evaluate(env)

    def local(
        self, indices: tuple[int, ...], nprocs: int, shape: tuple[int, ...]
    ) -> tuple[int, ...]:
        env = self._env(indices, nprocs, shape)
        return tuple(
            e.evaluate(env) for e in self.local_expr(*self._symbols(shape))
        )

    def alloc_shape(self, shape: tuple[int, ...], nprocs: int) -> tuple[int, ...]:
        env = self._env(shape, nprocs, shape)
        exprs = self.alloc_shape_expr(_vars("__n", len(shape)), _NPROCS)
        return tuple(e.evaluate(env) for e in exprs)

    def __str__(self) -> str:
        if self.arg is None:
            return self.name
        return f"{self.name}({getattr(self, self.arg[0])})"


# Canonical symbolic names used when evaluating the symbolic forms
# concretely. ``__i1``/``__i2`` are element indices, ``__n1``/``__n2`` the
# global array extents, ``S`` the number of processors.
_NPROCS = sym("S")


def _vars(prefix: str, count: int) -> tuple[Expr, ...]:
    return tuple(sym(f"{prefix}{k + 1}") for k in range(count))
