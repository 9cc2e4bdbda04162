"""No private names across package boundaries.

The abstract walk used to be a private class of ``repro.tune`` that
``repro.replay`` and ``repro.analysis`` subclassed, with ``core.runner``
and ``bench`` reaching for other underscore names. It now lives in the
neutral ``repro.spmd.walk``; this lint keeps the layering from growing
back: a module of the checked packages may import an underscore name
only from its own ``repro`` subpackage.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
CHECKED = ("tune", "replay", "analysis", "bench", "core/runner.py")


def _checked_files():
    for entry in CHECKED:
        path = ROOT / entry
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def _private_cross_package_imports(path: Path):
    own = path.relative_to(ROOT).parts[0]
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        parts = (node.module or "").split(".")
        if parts[0] != "repro" or len(parts) < 2 or parts[1] == own:
            continue
        for alias in node.names:
            if alias.name.startswith("_") or any(
                p.startswith("_") for p in parts[1:]
            ):
                yield f"{path.relative_to(ROOT)}:{node.lineno}: " \
                      f"from {node.module} import {alias.name}"


def test_no_private_imports_across_subpackages():
    files = list(_checked_files())
    assert len(files) > 20  # the globs still find the packages
    offenders = [
        line for path in files
        for line in _private_cross_package_imports(path)
    ]
    assert not offenders, "\n".join(offenders)
