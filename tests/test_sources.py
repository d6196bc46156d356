"""Two rules of the package, read off its source with `ast`.

Every input ceiling (a `MAX_*` name) is defined in `charvar.errors`, the one
place that states the limits, and no charvar module reaches into another for
a private name: what two modules share is public in the one that owns it.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "charvar"
MODULES = sorted(PACKAGE.rglob("*.py"))
CEILINGS = {"MAX_DB_CHARS", "MAX_FACTORS", "MAX_FACTOR_BITS", "MAX_FREE_RANK", "MAX_M", "MAX_RANK"}


def nodes(path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def assigned_ceilings(path):
    stored = set()
    for node in nodes(path):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stored.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            stored.add(node.attr)
    return {name for name in stored if name.startswith("MAX_")}


def test_only_errors_assigns_ceilings():
    assigned = {path.name: assigned_ceilings(path) for path in MODULES}
    assert assigned.pop("errors.py") == CEILINGS
    assert not any(assigned.values()), {name: got for name, got in assigned.items() if got}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_private_name_from_another_module(path):
    modules = set()  # names bound to charvar modules by `from . import x`
    reached = []
    for node in nodes(path):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("charvar")):
            names = [alias.name for alias in node.names]
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            reached += [f"{node.module or '.'}.{name}" for name in names if is_private(name)]
    for node in nodes(path):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and is_private(node.attr)):
            reached.append(f"{node.value.id}.{node.attr}")
    assert not reached
