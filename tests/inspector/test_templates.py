"""Owner/local templates compiled to one function each.

The inspector partitions every needed global index with the array's
``owner`` and ``local`` templates (IR over the ``__gidx`` placeholder).
``compile_templates`` turns them into Python functions once per text;
these tests pin their answers to the distribution's own concrete
arithmetic and their errors to the texts and moments of the tree walk
they replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from repro.core.common import sym_to_ir
from repro.distrib.base import (
    Distribution, block, block_cyclic, cyclic, whole,
)
from repro.errors import NodeRuntimeError
from repro.inspector import executor as ixec
from repro.inspector.executor import TEMPLATE_VAR, compile_templates
from repro.spmd import ir
from repro.spmd.compile import _CompiledAdapter
from repro.spmd.interp import _InterpAdapter
from repro.symbolic.expr import sym

GIDX = ir.NVar(TEMPLATE_VAR)


class _Adapter:
    """What a template reads: rank, ring size and in-scope scalars."""

    def __init__(self, rank, nprocs, scalars):
        self.rank = rank
        self.nprocs = nprocs
        self.scalars = scalars

    def lookup(self, name):
        if name not in self.scalars:
            raise NodeRuntimeError(f"unbound variable {name!r}", self.rank)
        return self.scalars[name]


def _one_axis(rule, b):
    """A one-axis distribution over ``rule`` (block ``b`` if it takes
    one)."""
    attrs = {"name": rule.__name__, "axes": (rule,)}
    if rule is block_cyclic:
        attrs["arg"] = ("block", "block size")
        return type("Axis", (Distribution,), attrs)(b)
    return type("Axis", (Distribution,), attrs)()


RULES = [(whole, None), (cyclic, None), (block, None)] + [
    (block_cyclic, b) for b in (1, 2, 5)
]


def _templates(rule, b):
    """The rule's owner and local as the inspector's templates: over
    ``__gidx``, ``nprocs()`` and the extent as the scalar ``N``."""
    owner, local, _ = rule(sym("__i1"), sym("__n1"), sym("S"), b)
    binding = {"__i1": GIDX, "__n1": ir.NVar("N")}
    return [sym_to_ir(sym(e), binding) for e in (owner, local)]


@pytest.mark.parametrize("rule, b", RULES,
                         ids=[f"{r.__name__}{b or ''}" for r, b in RULES])
@pytest.mark.parametrize("n", [1, 7, 48])
@pytest.mark.parametrize("nprocs", [1, 2, 3, 16])
@settings(max_examples=25, deadline=None)
@given(data=hs.data())
def test_compiled_templates_agree_with_the_tiling(rule, b, n, nprocs, data):
    gidx = data.draw(hs.integers(1, n))
    owner, local = compile_templates(*_templates(rule, b))
    ad = _Adapter(data.draw(hs.integers(0, nprocs - 1)), nprocs, {"N": n})
    tiled_owner, (tiled_local,), _ = _one_axis(rule, b).tile(
        (gidx,), nprocs, (n,))
    # An undistributed axis has no owner along it: every index stays on
    # the processor that holds the array, rank 0 of the axis.
    assert owner(ad, gidx) == (0 if tiled_owner is None else tiled_owner)
    assert local(ad, gidx) == tiled_local


def _raised(template, scalars=None):
    (fn,) = compile_templates(template)
    with pytest.raises(NodeRuntimeError) as err:
        fn(_Adapter(3, 4, scalars or {}), 5)
    return str(err.value)


class TestErrors:
    def test_division_and_modulo_by_zero(self):
        for op, text in (("div", "division by zero in template"),
                         ("mod", "modulo by zero in template")):
            zero = ir.NBin("-", ir.NVar("N"), ir.NVar("N"))
            assert _raised(ir.NBin(op, GIDX, zero), {"N": 2}) == str(
                NodeRuntimeError(text, 3))

    def test_unsupported_node(self):
        read = ir.NIsRead("A", (GIDX,))
        assert _raised(ir.NBin("+", GIDX, read)) == str(NodeRuntimeError(
            f"unsupported distribution template {read!r}", 3))

    def test_operands_are_evaluated_left_first(self):
        """An unbound name left of a zero divisor, or of an unsupported
        node, raises first, as the tree walk did."""
        for right in (ir.NConst(0), ir.NIsRead("A", (GIDX,))):
            template = ir.NBin("div", ir.NVar("nope"), right)
            assert "unbound variable 'nope'" in _raised(template)

    def test_a_template_never_evaluated_never_raises(self):
        """An exchange whose rank needs nothing compiles its templates
        but raises nothing, however broken they are."""
        broken = ir.NBin("div", ir.NIsRead("A", (GIDX,)), ir.NConst(0))
        stmt = ir.NExchange("isched0", "A", "ix0", (), broken, broken)
        ad = _Adapter(0, 1, {})
        ad.charge_op = ad.flush = None  # no element to charge or flush
        build = ixec._build_gather(ad, stmt, [])
        with pytest.raises(StopIteration) as stop:
            next(build)
        assert stop.value.value == {"need_from": [], "serve_to": [],
                                    "own": []}


@pytest.mark.parametrize("adapter", [_InterpAdapter, _CompiledAdapter])
def test_adapters_carry_rank_and_ring_size_as_attributes(adapter):
    """Templates read ``ad.rank`` and ``ad.nprocs`` per evaluation: both
    adapters set them once, in ``__init__``."""
    assert {"rank", "nprocs"} <= set(adapter.__slots__)
    assert not isinstance(adapter.__dict__.get("rank"), property)
    assert not isinstance(adapter.__dict__.get("nprocs"), property)
