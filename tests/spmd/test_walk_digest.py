"""The abstract walk's output, pinned by digest.

One SHA-256 per app × strategy over every ring size in ``NPROCS`` pins

* the plain :class:`~repro.spmd.walk.Walker`'s compact rows per rank —
  repeat markers included, exactly where it puts them — and the order in
  which its ranks intern channel names;
* the verifier's :class:`~repro.analysis.walk.VerifyWalk` per rank: its
  rows with repeat markers expanded, its send and receive rows by
  channel name with each one's origin, every finding, the error that
  ended the walk and the one the plain walker would have raised at the
  first skipped event.

Another digest pins what both walks raise on the planted faults of
``tests/replay/test_abstention_parity.py``. Channel and array names a
compiler mints from parse order are replaced by their rank in program
order first, so no digest depends on what the process parsed before.

A change to how the walk is compiled must leave every digest as it is;
a change that means to alter the rows updates them here, in the same
commit (``python -m tests.spmd.test_walk_digest`` prints the current
ones).
"""

import hashlib
import re

import pytest

from repro.analysis.verify import DEFINED
from repro.analysis.walk import VerifyWalk
from repro.machine.rows import KIND_RECV, KIND_SEND, expand
from repro.spmd import ir
from repro.spmd.walk import ARRAY, UNKNOWN, Walker
from tests.spmd.test_compiled_rows import (
    AFFINE_STRATEGIES, APPS, BLKSIZE, _compiled,
)

NPROCS = (1, 2, 3, 4, 7, 16)
GLOBALS = {"N": 8, "blksize": BLKSIZE}

DIGESTS = {
    ("gauss_seidel", "runtime"):
        "763e3371dc25dc974b68e86af530d14b0f4046789b9506ad4e4c0f2050c696dc",
    ("gauss_seidel", "compile"):
        "eadf5bfbac33fee6f9f40d50f9b48df7f0cff01e14d41b981e37250a029d4375",
    ("gauss_seidel", "optI"):
        "5b68e6bac178ed01721627af60ce477b3c56d8700a055b2c4b625767ba7aba99",
    ("gauss_seidel", "optII"):
        "3084d0d6c7795e62fdefd5942c52fee3d82cfb7cda850f333b8e403dade1808d",
    ("gauss_seidel", "optIII"):
        "a6feb80014c626d9a1cab396a68beec021934567efcc919c128aecffb3785eda",
    ("jacobi", "runtime"):
        "6ed2d255e69404d183b0e828eeb7a5b5d7ede444fc9e3cf9d740a1ec2430392e",
    ("jacobi", "compile"):
        "a7d9debc4319f1df985636ad81e96ea95a53406fa9bfd9011aa56dda0cc3212e",
    ("jacobi", "optI"):
        "a7d9debc4319f1df985636ad81e96ea95a53406fa9bfd9011aa56dda0cc3212e",
    ("jacobi", "optII"):
        "d5d3fd5d98bd69c059e806514e0720c8fa276cc05e05205a6e628238cacc758c",
    ("jacobi", "optIII"):
        "faba36877b163d5d283b3181f598cd2e2e30c01f5ee145834d824cf1817c2322",
    ("matmul", "runtime"):
        "2cb9c8d7c676fc891943d0fc62307d5170e8019a46bee28ef555f2bdc4d92df2",
    ("matmul", "compile"):
        "2cb9c8d7c676fc891943d0fc62307d5170e8019a46bee28ef555f2bdc4d92df2",
    ("matmul", "optI"):
        "2cb9c8d7c676fc891943d0fc62307d5170e8019a46bee28ef555f2bdc4d92df2",
    ("matmul", "optII"):
        "2cb9c8d7c676fc891943d0fc62307d5170e8019a46bee28ef555f2bdc4d92df2",
    ("matmul", "optIII"):
        "2cb9c8d7c676fc891943d0fc62307d5170e8019a46bee28ef555f2bdc4d92df2",
    ("triangular", "runtime"):
        "aae89c7e7f323fb70f8bd189f5d1e9b9bbd9a1304e8b55188c7b16eea6cf3715",
    ("triangular", "compile"):
        "b93b864f64a586b6e99c915dae21133a1d0aca597a7583729662ff069df96ae2",
    ("triangular", "optI"):
        "b93b864f64a586b6e99c915dae21133a1d0aca597a7583729662ff069df96ae2",
    ("triangular", "optII"):
        "b93b864f64a586b6e99c915dae21133a1d0aca597a7583729662ff069df96ae2",
    ("triangular", "optIII"):
        "b93b864f64a586b6e99c915dae21133a1d0aca597a7583729662ff069df96ae2",
}
FAULTS_DIGEST = (
    'c3d3f6c385acb1697d92f6e9684642c62640b5af1c275f2819c4df71e58611b2'
)


def _error(err):
    return None if err is None else (type(err).__name__, str(err))


def _plain(program, nprocs, globals_, args):
    code = Walker.compile(program)
    chan_ids: dict[str, int] = {}
    ranks = []
    for rank in range(nprocs):
        try:
            ranks.append(
                Walker(code, rank, nprocs, globals_, chan_ids).run(args)
            )
        except Exception as err:  # pinned, not swallowed
            ranks.append(_error(err))
    return ranks, list(chan_ids)


def _finding(d):
    return (d.code, d.severity.name, d.pass_name, d.message, d.rank,
            d.path, sorted((k, repr(v)) for k, v in d.details.items()))


def _expanded(walker, names):
    """The verifier's rows with repeat markers expanded, its send and
    receive rows among them by channel name, and their origins."""
    comm = [row for row in walker.events
            if row[0] == KIND_SEND or row[0] == KIND_RECV]
    assert len(comm) == len(walker.origins)
    origins = iter(walker.origins)
    tagged = expand([  # each send and receive row with its origin
        row + (next(origins),) if row[0] == KIND_SEND or row[0] == KIND_RECV
        else row for row in walker.events
    ])
    comm = [row for row in tagged if len(row) == 7]
    return (
        [row[:6] for row in tagged],
        [(kind, peer, names[chan], plen, ops, mems)
         for kind, peer, chan, plen, ops, mems, _ in comm],
        [row[6] for row in comm],
    )


def _verified(program, nprocs, globals_, args):
    code = VerifyWalk.compile(program)
    chan_ids: dict[str, int] = {}
    ranks = []
    for rank in range(nprocs):
        walker = VerifyWalk(code, rank, nprocs, globals_, chan_ids)
        walker.run(args)
        ranks.append((
            *_expanded(walker, list(chan_ids)),
            [_finding(d) for d in walker.findings],
            walker.completed, _error(walker.error), _error(walker.raised),
        ))
    return ranks, list(chan_ids)


def _minted(program) -> list[str]:
    """Channel and array names a compiler minted from parse order (they
    carry a node uid, which depends on what the process parsed before),
    in program order."""
    names: dict[str, None] = {}
    for proc in program.procs.values():
        for stmt in ir.walk_stmts(proc.body):
            for name in (*ir.stmt_channels(stmt), getattr(stmt, "name", "")):
                if re.search(r"\d", name):
                    names[name] = None
    return list(names)


def _digest(parts, programs) -> str:
    text = repr(parts)
    minted = {n: f"#{k}" for k, n in enumerate(
        dict.fromkeys(n for p in programs for n in _minted(p)))}
    if minted:
        pattern = "|".join(re.escape(n) for n in sorted(minted, key=len,
                                                        reverse=True))
        text = re.sub(rf"\b(?:{pattern})\b",
                      lambda m: minted[m.group(0)], text)
    return hashlib.sha256(text.encode()).hexdigest()


def app_digest(app, strategy) -> str:
    program = _compiled(app, strategy).program
    entry = program.entry_proc()
    plain_args = [ARRAY] * len(entry.params)
    verify_args = [
        DEFINED if p in entry.array_params else UNKNOWN for p in entry.params
    ]
    return _digest([
        (nprocs,
         _plain(program, nprocs, GLOBALS, plain_args),
         _verified(program, nprocs, GLOBALS, verify_args))
        for nprocs in NPROCS
    ], [program])


def faults_digest() -> str:
    from tests.replay.test_abstention_parity import FAULTS, PREDICT_ERRORS

    programs = {name: FAULTS[name][0] for name in FAULTS}
    programs.update(
        (f"predict:{name}", PREDICT_ERRORS[name][0])
        for name in PREDICT_ERRORS
    )
    return _digest([
        (name,
         _plain(programs[name], 2, {}, [ARRAY]),
         _verified(programs[name], 2, {}, [DEFINED]))
        for name in sorted(programs)
    ], [programs[name] for name in sorted(programs)])


@pytest.mark.parametrize("app, strategy", [
    (app, strategy) for app in sorted(APPS) for strategy in AFFINE_STRATEGIES
])
def test_walk_output_is_pinned(app, strategy):
    assert app_digest(app, strategy) == DIGESTS[app, strategy]


def test_walk_errors_on_planted_faults_are_pinned():
    pytest.importorskip("numpy")  # the parity module needs it
    assert faults_digest() == FAULTS_DIGEST


if __name__ == "__main__":
    for app in sorted(APPS):
        for strategy in AFFINE_STRATEGIES:
            print(f"    ({app!r}, {strategy!r}):\n"
                  f"        {app_digest(app, strategy)!r},")
    print(f"FAULTS_DIGEST = {faults_digest()!r}")
