"""Each module imports only from the layers below it."""

import ast
from pathlib import Path

import sigmaprime

# lowest first; a module may import from the modules before it, and no other
LAYERS = (
    "arith",
    "powersums",
    "lattice",
    "identities",
    "representations",
    "patternfit",
    "acceptance",
    "cli",
    "__init__",
    "__main__",
)


def _package_imports(name):
    # the sigmaprime modules that a module's import statements name
    tree = ast.parse(Path(sigmaprime.__file__).with_name(f"{name}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sigmaprime"):
            out.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            out |= {
                alias.name.partition(".")[2] or "__init__"
                for alias in node.names
                if alias.name.split(".")[0] == "sigmaprime"
            }
    return out


def test_every_module_is_in_a_layer():
    modules = {path.stem for path in Path(sigmaprime.__file__).parent.glob("*.py")}
    assert modules == set(LAYERS)


def test_modules_import_only_from_lower_layers():
    # so arith, which holds the work budget, and powersums import nothing from
    # lattice, identities or above
    for depth, name in enumerate(LAYERS):
        assert _package_imports(name) <= set(LAYERS[:depth]), name

