"""Scatter/gather between global arrays and per-processor local parts.

The simulator's processors hold only their local parts (the paper's
``alloc``). The harness uses these helpers to distribute input arrays
before a run and to reassemble the result afterwards, so results can be
compared element-for-element with the sequential interpreter.

Both directions are driven by a *transfer plan*: the owner and local
row-major offset of every element, combined row-major from one list per
array axis, which the distribution's axis rules fill with one call per
index. The per-call work is flat list copying instead of per-element
symbolic evaluation. Any irregularity (a rule mapping outside its
alloc or onto a taken cell, exotic part objects) falls back to the
per-element path, which evaluates the symbolic map and reproduces the
exact errors.
"""

from __future__ import annotations

from itertools import product

from repro.distrib.base import Distribution, whole
from repro.errors import MappingError
from repro.runtime import IStructure
from repro.runtime.istructure import UNDEFINED


def _cells(shape: tuple[int, ...]):
    if len(shape) not in (1, 2):
        raise MappingError(f"unsupported array rank {len(shape)}")
    return product(*(range(1, n + 1) for n in shape))


def _plan(dist: Distribution, nprocs: int, shape: tuple[int, ...],
          local_shape: tuple[int, ...]):
    """``(owners, offsets)`` in :class:`IStructure`'s row-major cell
    order, or None when the distribution has no rule for some axis, or a
    rule maps an index outside its processors or its alloc extent, or two
    indices onto one local cell."""
    if len(dist.axes) != len(shape):
        return None
    owners, offsets = [0], [0]
    procs = iter(dist.procs(nprocs))
    for rule, n, extent in zip(dist.axes, shape, local_shape):
        p = None if rule is whole else next(procs)
        tiles = [rule(i, n, p, dist.block)[:2] for i in range(1, n + 1)]
        if len(set(tiles)) < n or not all(
            1 <= l <= extent and (p is None or 0 <= o < p) for o, l in tiles
        ):
            return None
        if p is not None:
            owners = [o * p + t for o in owners for t, _ in tiles]
        else:
            owners = [o for o in owners for _ in tiles]
        offsets = [f * extent + l - 1 for f in offsets for _, l in tiles]
    return owners, offsets


def scatter(
    source: IStructure, dist: Distribution, nprocs: int, name: str = "arr"
) -> list[IStructure]:
    """Split a global I-structure into per-processor local parts.

    Undefined elements of the source stay undefined in the local parts
    (I-structures are allocated empty and filled element by element).
    """
    shape = source.shape
    local_shape = dist.alloc_shape(shape, nprocs)
    parts = [
        IStructure(local_shape, name=f"{name}@p{rank}") for rank in range(nprocs)
    ]
    plan = (
        _plan(dist, nprocs, shape, local_shape)
        if type(source) is IStructure else None
    )
    if plan is not None:
        pcells = [p._cells for p in parts]
        counts = [0] * nprocs
        for v, owner, loff in zip(source._cells, *plan):
            if v is not UNDEFINED:
                pcells[owner][loff] = v
                counts[owner] += 1
        for part, count in zip(parts, counts):
            part._defined_count = count
        return parts
    for cell in _cells(shape):
        if source.is_defined(*cell):
            parts[dist.owner(cell, nprocs, shape)].write(
                *dist.local(cell, nprocs, shape), source.read(*cell)
            )
    return parts


def gather(
    parts: list[IStructure],
    dist: Distribution,
    nprocs: int,
    shape: tuple[int, ...],
    name: str = "arr",
) -> IStructure:
    """Reassemble a global I-structure from per-processor local parts."""
    if len(parts) != nprocs:
        raise MappingError(
            f"gather expected {nprocs} parts, got {len(parts)}"
        )
    out = IStructure(shape, name=name)
    local_shape = dist.alloc_shape(shape, nprocs)
    plan = (
        _plan(dist, nprocs, shape, local_shape)
        if all(
            type(p) is IStructure and p.shape == local_shape for p in parts
        )
        else None
    )
    if plan is not None:
        ocells = out._cells
        pcells = [p._cells for p in parts]
        count = 0
        for goff, (owner, loff) in enumerate(zip(*plan)):
            v = pcells[owner][loff]
            if v is not UNDEFINED:
                ocells[goff] = v
                count += 1
        out._defined_count = count
        return out
    for cell in _cells(shape):
        local = dist.local(cell, nprocs, shape)
        part = parts[dist.owner(cell, nprocs, shape)]
        if part.is_defined(*local):
            out.write(*cell, part.read(*local))
    return out


def make_full(shape: tuple[int, ...], fill, name: str = "arr") -> IStructure:
    """A fully defined I-structure; ``fill`` is a value or ``fn(*cell)``."""
    out = IStructure(shape, name=name)
    if not callable(fill):
        out._cells = [fill] * out.size
        out._defined_count = out.size
        return out
    for cell in _cells(shape):
        out.write(*cell, fill(*cell))
    return out
