"""What both source-generating compilers share.

:mod:`repro.spmd.compile` (the value backend) and :mod:`repro.spmd.walk`
(the abstract walk) each write a node procedure as Python source and
compile it once. They share the machinery here: the code-object cache,
indentation, helper binding and the charge lines of a straight-line run.
Neither imports the other.
"""

from __future__ import annotations

import math
from functools import lru_cache

# Bodies nested deeper than this become functions of their own: CPython
# rejects more than 20 statically nested blocks and 100 indentation
# levels, and a statement adds a few of its own under its body's level.
MAX_DEPTH = 16


@lru_cache(maxsize=4096)
def cg_code(src: str, filename: str):
    """The code object of ``src``. Helper and temporary names are
    counter-based, so structurally identical procedures (the same one at
    every optimization level, in every rank's specialized program, or
    parsed again) produce byte-identical text and compile once."""
    return compile(src, filename, "exec")


def ind(lines, levels=1):
    pad = "    " * levels
    return [pad + line for line in lines]


def charge_lines(ops, mems, who="st"):
    """Statements adding a static cost to ``who``'s counters."""
    return ([f"{who}.ops += {ops}"] if ops else []) + (
        [f"{who}.mems += {mems}"] if mems else []
    )


class Emitter:
    """The environment generated functions run in: ``base`` (a module's
    run-time helpers) and ``names``, plus the objects bound with
    :meth:`fresh`, under names that depend only on the order of
    binding."""

    __slots__ = ("env", "n", "filename")

    def __init__(self, base: dict, filename: str, **names):
        self.env = dict(base, **names)
        self.n = 0
        self.filename = filename

    def fresh(self, obj):
        name = f"_h{self.n}"
        self.n += 1
        self.env[name] = obj
        return name

    def tmp(self):
        name = f"_t{self.n}"
        self.n += 1
        return name

    def literal(self, value):
        """Source that evaluates to ``value``: its ``repr`` when that is a
        Python literal (``inf``/``nan`` are not), else a bound helper."""
        t = type(value)
        if t in (bool, int, str) or (t is float and math.isfinite(value)):
            return repr(value)
        return self.fresh(value)

    def define(self, lines):
        """Run the module text ``lines`` (function definitions) in this
        environment."""
        exec(cg_code("\n".join(lines), self.filename), self.env)

    def function(self, lines, params, name):
        """Compile ``def name(params):`` over ``lines``; the function."""
        text = "\n".join([f"def {name}({params}):", *ind(lines or ["pass"])])
        exec(cg_code(text, self.filename), self.env)
        return self.env.pop(name)
