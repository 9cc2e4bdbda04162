"""The symbolic maps and the programs compiled against them, pinned by
digest.

One SHA-256 pins the ``repr`` of ``owner_expr``, ``local_expr`` and
``alloc_shape_expr`` over symbolic indices, ``S`` and shape for every
registered spelling. The expressions are interned nodes, so the ``repr``
is their exact structure, not just their value.

One SHA-256 per app pins the ``pretty_program`` text of the app
retargeted (:func:`repro.tune.space.retarget_source`) onto each matrix
spelling in ``MATRIX_DISTS``, under each strategy; where compiling fails,
the error text is pinned instead. Names a compiler mints from parse order
are replaced by their rank in program order first.

A change to how a distribution builds its map must leave every digest as
it is; a change that means to alter a map updates them here, in the same
commit (``python -m tests.distrib.test_map_digest`` prints the current
ones).
"""

import hashlib

import pytest

from repro.core.compiler import compile_program_cached
from repro.distrib import distribution_by_name
from repro.spmd import pretty_program
from repro.symbolic import sym
from repro.tune.space import DEFAULT_DISTS, STRATEGIES, retarget_source
from tests.spmd.test_compiled_rows import AFFINE_STRATEGIES, APPS
from tests.spmd.test_walk_digest import _digest

SPELLINGS = (
    ("wrapped_cols", ()), ("wrapped_rows", ()), ("block_cols", ()),
    ("block_rows", ()),
    *(("block_cyclic_cols", (b,)) for b in (1, 3, 4)),
    *(("block_cyclic_rows", (b,)) for b in (1, 3, 4)),
    ("block_grid", (1,)), ("block_grid", (2,)),
    ("wrapped", ()), ("block", ()),
)
MATRIX_DISTS = (*DEFAULT_DISTS, "block_grid(2)")

EXPRS_DIGEST = (
    "01e994e5bf5d0bc31b5602c28bd002e81a7207400034674f191fff837a5ddd17"
)
PROGRAM_DIGESTS = {
    "gauss_seidel":
        "149476f47cf503c5977a19b5c255c6cbfa0bf20b3ef11a8373850e20db35a159",
    "jacobi":
        "3f95e9b7110def63709841b83e047ec16d97a3ff386e839b4c60fc94f91c8ec5",
    "matmul":
        "ef3c6c9117a8c3fd3c9c1c5b75e3bf1453a186b75eda2b84eb2f06925ee68780",
    "triangular":
        "6a3a7b9b07162e5fb6fdfe2109d7f07fa3b796b48b23e29ff3c6cd7ebd008efc",
}


def exprs_digest() -> str:
    nprocs = sym("S")
    parts = []
    for name, args in SPELLINGS:
        dist = distribution_by_name(name, list(args))
        indices = (sym("i"), sym("j"))[:dist.rank]
        shape = (sym("N1"), sym("N2"))[:dist.rank]
        parts.append((
            str(dist),
            repr(dist.owner_expr(indices, nprocs, shape)),
            repr(dist.local_expr(indices, nprocs, shape)),
            repr(dist.alloc_shape_expr(shape, nprocs)),
        ))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def program_digest(app) -> str:
    source, entry, arrays = APPS[app]
    parts, programs = [], []
    for dist in MATRIX_DISTS:
        for strategy in AFFINE_STRATEGIES:
            strat, opt_level = STRATEGIES[strategy]
            try:
                compiled = compile_program_cached(
                    retarget_source(source, dist), entry=entry,
                    strategy=strat, opt_level=opt_level,
                    entry_shapes={a: ("N", "N") for a in arrays} or None,
                    assume_nprocs_min=2,
                )
            except Exception as err:  # pinned, not swallowed
                parts.append((dist, strategy, type(err).__name__, str(err)))
                continue
            programs.append(compiled.program)
            parts.append((dist, strategy, pretty_program(compiled.program)))
    return _digest(parts, programs)


def test_symbolic_maps_are_pinned():
    assert exprs_digest() == EXPRS_DIGEST


@pytest.mark.parametrize("app", sorted(APPS))
def test_compiled_programs_are_pinned(app):
    assert program_digest(app) == PROGRAM_DIGESTS[app]


if __name__ == "__main__":
    print(f"EXPRS_DIGEST = {exprs_digest()!r}")
    for app in sorted(APPS):
        print(f"    {app!r}:\n        {program_digest(app)!r},")
