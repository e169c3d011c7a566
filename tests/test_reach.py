"""Every top-level function and class of src/heckelab is used inside the package.

A definition that no code in src/ refers to, outside its own body, runs only
under the tests or not at all.  It is either deleted or listed in ALLOWED with
the reason it stays.  A use is a name or attribute in code; import
statements and mentions in docstrings or comments do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "heckelab"

# name -> why it stays although nothing in src/ refers to it
ALLOWED = {
    "main": "the `heckelab` console script of pyproject.toml",
    "make_field": "the public constructor that heckelab/__init__.py exports",
    "minkowski_bound": "the class-number reference of the quadratic-field tests",
}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions(trees):
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield module, node


def _uses(trees):
    """(module, line, name) for every Name load and attribute access in src/."""
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield module, node.lineno, node.id
            elif isinstance(node, ast.Attribute):
                yield module, node.lineno, node.attr


def test_every_definition_is_reached():
    trees = _trees()
    uses = list(_uses(trees))
    unreached = []
    for module, node in _definitions(trees):
        if node.name in ALLOWED:
            continue
        if not any(
            name == node.name
            and not (module == use_module and node.lineno <= line <= node.end_lineno)
            for use_module, line, name in uses
        ):
            unreached.append(f"{module}:{node.lineno} {node.name}")
    assert unreached == [], "referenced nowhere in src/: " + ", ".join(unreached)


def test_allowlist_names_definitions():
    defined = {node.name for _, node in _definitions(_trees())}
    assert set(ALLOWED) <= defined
