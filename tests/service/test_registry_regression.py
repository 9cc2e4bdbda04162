"""The submit schema consults the live registries, not frozen lists.

Regression guard: a strategy or distribution added to the registries
(``STRATEGIES`` / ``DISTRIBUTIONS``) must make the ``POST /v1/programs``
schema accept it immediately, with no service code edits — and the
inspector strategy added for irregular programs must already be
accepted.
"""

import pytest

from repro.core.compiler import OptLevel, Strategy
from repro.distrib.builtin import DISTRIBUTIONS, BlockVector
from repro.service.schemas import SchemaError, SubmitRequest
from repro.tune.space import STRATEGIES

GOOD = {
    "source": "map A by wrapped_cols;\nprocedure main() returns int "
              "{ return 1; }",
    "nprocs": 4,
    "n": 32,
}


def validate(**overrides):
    return SubmitRequest.validate({**GOOD, **overrides})


def test_inspector_strategy_accepted():
    assert validate(strategy="inspector").strategy == "inspector"


def test_inspector_accepted_in_tune_strategies():
    req = validate(tune={"strategies": ["inspector", "optIII"]})
    assert req.tune.strategies == ("inspector", "optIII")


def test_newly_registered_strategy_accepted_live():
    name = "test_reg_strategy"
    assert name not in STRATEGIES
    with pytest.raises(SchemaError, match="unknown strategy"):
        validate(strategy=name)
    STRATEGIES[name] = (Strategy.INSPECTOR, OptLevel.NONE)
    try:
        assert validate(strategy=name).strategy == name
        req = validate(tune={"strategies": [name]})
        assert req.tune.strategies == (name,)
    finally:
        del STRATEGIES[name]


def test_newly_registered_distribution_accepted_live():
    name = "test_reg_dist"
    assert name not in DISTRIBUTIONS
    with pytest.raises(SchemaError, match="unknown distribution"):
        validate(dist=name)
    DISTRIBUTIONS[name] = BlockVector
    try:
        assert validate(dist=name).dist == name
        req = validate(tune={"dists": [name]})
        assert req.tune.dists == (name,)
    finally:
        del DISTRIBUTIONS[name]


def test_registered_names_reach_the_error_message():
    """The 400 the service renders lists the *current* registry, so a
    plugin strategy shows up in the hint too."""
    with pytest.raises(SchemaError, match="inspector"):
        validate(strategy="definitely_bogus")
