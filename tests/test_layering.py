"""The package's modules import one another in one order, at module level.

Each fact of a problem is decided in the module that owns it and kept on
the problem (`model.kept`), so no module needs a deferred import of a
module above it.  These tests read the sources with `ast`; only the last
one imports polydc, to check that its public names are the ones
`__init__.py` imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polydc"

# the layers, lowest first: a module imports only modules of lower layers
LAYERS = (
    ("exactlp",),
    ("model",),
    ("structure",),
    ("optimality", "dca", "duality"),
    ("gridcheck",),
    ("cli",),
    ("__init__",),
    ("__main__",),
)
LAYER = {name: k for k, names in enumerate(LAYERS) for name in names}
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(node: ast.stmt) -> list[str]:
    """The polydc modules an import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
        return [n.split(".")[1] for n in names if n.startswith("polydc.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        module = node.module or ""
        if module == "polydc":
            return [alias.name for alias in node.names]
        return [module.split(".")[1]] if module.startswith("polydc.") else []
    if node.level == 1 and node.module:  # from .module import names
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]  # from . import modules


def test_every_module_has_a_layer():
    assert sorted(path.stem for path in MODULES) == sorted(LAYER)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_import_below_module_level(path):
    tree = _tree(path)
    top = set(map(id, tree.body))
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert nested == [], f"{path.name}: imports below module level at {nested}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_imports_follow_the_layers(path):
    layer = LAYER[path.stem]
    upward = [
        (node.lineno, name)
        for node in ast.walk(_tree(path))
        for name in _imported(node)
        if LAYER[name] >= layer
    ]
    assert upward == [], f"{path.name} (layer {layer}) imports {upward}"


def test_the_public_names_are_the_imported_ones():
    source = {
        alias.asname or alias.name: node.module
        for node in _tree(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    import polydc

    public = polydc.__all__
    assert len(public) == len(set(public))
    assert not [name for name in public if name.startswith("_")]
    assert set(public) == set(source)
    namespace: dict = {}
    exec("from polydc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(source)
    for name, module in source.items():
        owner = getattr(polydc, module)
        assert getattr(polydc, name) is getattr(owner, name), name
