"""No private names across package boundaries, no new package cycles,
no hand-rolled cache protocol.

The abstract walk used to be a private class of ``repro.tune`` that
``repro.replay`` and ``repro.analysis`` subclassed, with ``core.runner``
and ``bench`` reaching for other underscore names, and ``tune`` could
only import ``analysis`` from inside a function. The walk now lives in
the neutral ``repro.spmd.walk``; this lint keeps the layering from
growing back, over every module under ``src/repro``:

* a module may import an underscore name only from its own ``repro``
  subpackage;
* module-level imports (the ones that run at import time — imports
  inside functions are how a cycle gets papered over, and are not
  counted) must not form a cycle between subpackages;
* a registered cache is consulted through ``perf.memo`` / ``lookup`` /
  ``insert`` only, and persistent keys come from ``perf.stable_key``;
  the compile / verify / predict drivers memoize through that registry
  alone (``perfbench`` and ``perf.caches_disabled()`` must reach every
  table), never through ``functools``;
* ``repro.tune`` owns no abstract walk: the predictor prices the
  verifier's.
"""

import ast
import re
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
FILES = sorted(ROOT.rglob("*.py"))

#: Subpackage cycles that predate the check; nothing may join them.
KNOWN_CYCLES = {
    # spmd.compile/interp run inspector.executor, which reads spmd.ir
    frozenset({"inspector", "spmd"}),
}


def _subpackage(path: Path) -> str:
    return path.relative_to(ROOT).parts[0].removesuffix(".py")


def _repro_imports(node):
    """``(subpackage, module, name)`` per ``repro.*`` name ``node`` imports."""
    if isinstance(node, ast.Import):
        targets = [(alias.name, None) for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        targets = [(node.module or "", alias.name) for alias in node.names]
    else:
        return
    for module, name in targets:
        parts = module.split(".")
        if parts[0] != "repro":
            continue
        if len(parts) == 1:  # ``from repro import perf``
            if name is not None:
                yield name, module, name
        else:
            yield parts[1], module, name


def _private_cross_package_imports(path: Path):
    own = _subpackage(path)
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        for target, module, name in _repro_imports(node):
            if target == own or name is None:
                continue
            if name.startswith("_") or any(
                p.startswith("_") for p in module.split(".")[1:]
            ):
                yield f"{path.relative_to(ROOT)}:{node.lineno}: " \
                      f"from {module} import {name}"


def test_no_private_imports_across_subpackages():
    assert len(FILES) > 100  # the glob still finds the tree
    offenders = [
        line for path in FILES
        for line in _private_cross_package_imports(path)
    ]
    assert not offenders, "\n".join(offenders)


def _module_level_statements(tree: ast.Module):
    """Statements that run when the module is imported: everything but
    function bodies (``try``/``if`` blocks and class bodies included)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(
                child for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.stmt)
            )


def _subpackage_graph() -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {}
    for path in FILES:
        own = _subpackage(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _module_level_statements(tree):
            for target, _, _ in _repro_imports(node):
                if target != own:
                    graph.setdefault(own, set()).add(target)
    return graph


def _reachable(graph, start: str) -> set[str]:
    seen: set[str] = set()
    frontier = [start]
    while frontier:
        for nxt in graph.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_no_import_cycles_between_subpackages():
    graph = _subpackage_graph()
    assert "tune" in graph and "analysis" in graph["tune"]
    reach = {pkg: _reachable(graph, pkg) for pkg in graph}
    # Mutually reachable subpackages, grouped into their cycles.
    cycles = {
        frozenset(
            other for other in reach[pkg]
            if pkg in reach.get(other, ())
        ) | {pkg}
        for pkg in graph if pkg in reach[pkg]
    }
    assert cycles <= KNOWN_CYCLES, sorted(
        sorted(cycle) for cycle in cycles - KNOWN_CYCLES
    )


def _identifiers(node):
    """Every name ``node`` mentions outside strings: variables,
    attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def test_registered_caches_are_consulted_through_perf_only():
    import repro.bench  # noqa: F401  (with the three below: every cache)
    import repro.core.specialize  # noqa: F401
    import repro.replay  # noqa: F401
    import repro.tune  # noqa: F401
    from repro import perf

    assert len(perf._caches) >= 18, sorted(perf._caches)
    assert {"frontend", "resolve", "rank_walks", "walk_code",
            "spmd_compile"} <= set(perf._caches)
    names = "|".join(re.escape(name) for name in perf._caches)
    by_hand = re.compile(
        rf"""\b(?:hit|miss)\(\s*["'](?:{names})["']\s*\)"""
        r"|def _canonical_\w*_key\b"
    )
    offenders = [
        f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}"
        for path in FILES if path != ROOT / "perf.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if by_hand.search(line)
    ]
    # The drivers whose work ``tune`` shares memoize in the registry
    # only: a ``functools`` table is one that ``perf.reset`` cannot
    # empty and ``perf.caches_disabled()`` cannot bypass.
    for name in ("core/compiler.py", "analysis/verify.py", "tune/model.py",
                 "spmd/walk.py"):
        tree = ast.parse((ROOT / name).read_text(), filename=name)
        offenders += [
            f"{name}:{node.lineno}: functools memo on {node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for decorator in node.decorator_list
            if {"lru_cache", "cache"} & set(_identifiers(decorator))
        ]
    assert not offenders, "\n".join(offenders)


def test_the_tuner_owns_no_walk():
    """``predict`` clocks the rows of ``repro.analysis.walk_ranks``; a
    ``Walker`` or ``walk_code`` under ``repro.tune`` is a second walk
    of every candidate coming back."""
    tune_files = [path for path in FILES if _subpackage(path) == "tune"]
    assert tune_files
    offenders = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in tune_files
        for name in _identifiers(ast.parse(path.read_text()))
        if name in ("Walker", "walk_code")
    ]
    assert not offenders, "\n".join(offenders)
