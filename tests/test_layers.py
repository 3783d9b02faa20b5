"""The package's module layering, read from the source's relative imports.

Map files are read and written by ``raster``, so the modules that segment
and compare maps import neither the rule language nor classification, and
the rule language imports only ``raster``'s legend type and colour text.
"""

import ast
from pathlib import Path

import pytest

import specmap

PACKAGE = Path(specmap.__file__).parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def direct_imports(name: str) -> set[str]:
    """Package modules ``name`` imports relatively, function-local imports included."""
    found = set()
    for node in ast.walk(ast.parse(MODULES[name].read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found & MODULES.keys()


def reach(name: str) -> set[str]:
    """Every package module ``name`` loads, directly or through another."""
    seen, todo = set(), [name]
    while todo:
        for module in direct_imports(todo.pop()) - seen:
            seen.add(module)
            todo.append(module)
    return seen


def test_the_parser_sees_every_layer():
    assert reach("cli") >= {"raster", "rules", "classify", "segmentation", "compare",
                            "evidence", "errors"}


def test_raster_reaches_only_errors():
    assert reach("raster") == {"errors"}


def test_rules_reach_only_raster_and_errors():
    # The rule model takes ``LegendEntry`` and colour text from ``raster``.
    assert reach("rules") == {"raster", "errors"}


@pytest.mark.parametrize("name, barred", [
    ("compare", {"classify", "rules"}),
    ("segmentation", {"classify", "rules"}),
    ("evidence", {"classify", "rules", "segmentation"}),
])
def test_map_readers_do_not_reach_classification(name, barred):
    assert not reach(name) & barred
