"""Every check of the paper's evaluation holds (:mod:`repro.bench.paper`).

One test per named check of each claim, at a smaller grid than
``bench reproduce``'s default: Figures 6 and 7 at N=48 on 2-16
processors; every other claim runs at its own fixed size, the paper's
N=128 included for T-MSG. Each claim is measured once per module.
"""

import pytest

from repro.bench.paper import CLAIMS, Setup


@pytest.fixture(scope="module")
def measured():
    """One run for every claim, so F6, F7 and T-MSG share points; each
    claim's measurement is taken on its first check's test."""
    setup, data = Setup(n=48, procs=(2, 4, 8, 16)), {}

    def of(claim):
        if claim.id not in data:
            data[claim.id] = claim.measure(setup)
        return data[claim.id]
    return of


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim_has_checks(claim):
    assert claim.checks


@pytest.mark.parametrize("claim, name", [
    (claim, name) for claim in CLAIMS for name in claim.checks
], ids=lambda x: getattr(x, "id", x))
def test_check_holds(claim, name, measured):
    assert claim.check(measured(claim))[name]
