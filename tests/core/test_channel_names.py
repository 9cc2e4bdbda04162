"""Compiled program text does not depend on parse order.

Every AST node carries a process-global ``uid``, so a channel named after
its node's uid comes out differently for each parse of one source, and a
program loaded from the artifact store stops printing like a freshly
compiled one. The resolvers number channels in first-use order instead.
"""

import pytest

from repro.core.compiler import compile_program
from repro.core.polymorphism import monomorphize
from repro.lang import check_program, parse_program
from repro.spmd import pretty_program
from repro.tune.space import STRATEGIES
from tests.spmd.test_compiled_rows import AFFINE_STRATEGIES, APPS


def _text(app: str, strategy: str) -> str:
    source, entry, arrays = APPS[app]
    strat, opt_level = STRATEGIES[strategy]
    compiled = compile_program(
        check_program(monomorphize(parse_program(source))),
        entry=entry, strategy=strat, opt_level=opt_level,
        entry_shapes={a: ("N", "N") for a in arrays} or None,
        assume_nprocs_min=2,
    )
    return pretty_program(compiled.program)


@pytest.mark.parametrize("strategy", AFFINE_STRATEGIES)
@pytest.mark.parametrize("app", sorted(APPS))
def test_two_parses_print_the_same_program(app, strategy):
    assert _text(app, strategy) == _text(app, strategy)
