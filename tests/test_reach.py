"""Every top-level function and class of src/heckelab, and every method of its
classes, is used inside the package, and its modules import each other
without a cycle.

A definition that no code in src/ refers to, outside its own body, runs only
under the tests or not at all.  It is either deleted or listed in ALLOWED with
the reason it stays.  A use is a name or attribute in code; import
statements and mentions in docstrings or comments do not count.  Methods
are matched by name, so a method counts as used when any attribute of that
name is read; a bare name does not count for a method, as a local variable
of the same name is no use of it.  Dunder methods are used by the language
and are not checked.

The relative imports of src/, at module level or inside a function, form
an acyclic graph: a module that needs a value of a later layer takes it as
an argument rather than importing that layer.

lseries reads no character's class group data (class_reps, class_orders,
radicals, root_choices): its theta lattice depends on the conductor alone.

src/ has no assert statement: its invariants raise HeckeLabError
subclasses, which still hold under python -O and are recorded by a scan.

Every parameter of src/ with a default value is an option a caller can set.
Each is listed in OPTIONS with the two callers that need different values,
and OPTIONS lists nothing else.

src/ makes no BLAS call, which is why heckelab/__init__.py loads numpy with
one OpenBLAS thread: no numpy routine that reaches BLAS is named, and each
matrix product `@` is listed in MATMULS with why it stays off BLAS.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "heckelab"

# name -> why it stays although nothing in src/ refers to it
ALLOWED = {
    "main": "the `heckelab` console script of pyproject.toml",
    "make_field": "the public constructor that heckelab/__init__.py exports",
    "twist": "the public single-character entry point; scans build orbits with twist_orbit",
}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(trees):
    """(module, qualified name, node) for every top-level definition and
    every non-dunder method of a top-level class."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, _DEFS):
                yield module, node.name, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, _DEFS) and not method.name.startswith("__"):
                        yield module, f"{node.name}.{method.name}", method


def _uses(trees):
    """(module, line, name, is_attribute) for every Name load and attribute
    read in src/."""
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                attribute = isinstance(node, ast.Attribute)
                yield module, node.lineno, node.attr if attribute else node.id, attribute


def test_every_definition_is_reached():
    trees = _trees()
    uses = list(_uses(trees))
    unreached = []
    for module, qualname, node in _definitions(trees):
        if qualname in ALLOWED:
            continue
        is_method = "." in qualname
        if not any(
            name == node.name
            and (attribute or not is_method)
            and not (module == use_module and node.lineno <= line <= node.end_lineno)
            for use_module, line, name, attribute in uses
        ):
            unreached.append(f"{module}:{node.lineno} {qualname}")
    assert unreached == [], "referenced nowhere in src/: " + ", ".join(unreached)


def test_allowlist_names_definitions():
    defined = {qualname for _, qualname, _ in _definitions(_trees())}
    assert set(ALLOWED) <= defined


def _relative_imports(trees):
    """module -> the modules of src/ it imports with a relative import, anywhere."""
    graph = {}
    for module, tree in trees.items():
        graph[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                graph[module].update(f"{name}.py" for name in names)
    return graph


def test_relative_imports_are_acyclic():
    graph = _relative_imports(_trees())
    assert "rootnumber.py" in graph["family.py"]  # the graph sees the package's imports
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError("import cycle in src/: " + " -> ".join(exc.args[1])) from None
    assert set(graph) <= set(order)


# a character's class group data: its generator representatives, their
# orders and its values at them
CLASS_GROUP_DATA = {"class_reps", "class_orders", "radicals", "root_choices"}


def test_lseries_reads_no_class_group_data():
    # the theta lattice depends on its conductor alone, and a table weights
    # each class by an exact evaluation, so lseries reads none of them
    reads = [
        f"lseries.py:{line} {name}"
        for _, line, name, attribute in _uses({"lseries.py": _trees()["lseries.py"]})
        if attribute and name in CLASS_GROUP_DATA
    ]
    assert reads == [], "lseries reads class group data: " + ", ".join(reads)


def test_src_has_no_assert():
    asserts = [
        f"{module}:{node.lineno}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == [], "assert statements in src/: " + ", ".join(asserts)


# every parameter with a default value in src/, as module.function.parameter,
# and why it stays: an option a caller can set, kept only where two real
# callers need different values
OPTIONS = {
    "cli.main.argv": "the console script passes none; tests and scripts pass their arguments",
    "lseries.central_value.table": (
        "a scan passes the table its members' checks also read; a single twist has it built"
    ),
    "rootnumber.root_number.gauss": (
        "a scan passes the Gauss-sum data its conductor shares; a single twist has it built"
    ),
}


def _defaulted_parameters(node, prefix=""):
    """function.parameter for every parameter with a default of every
    function under node, nested functions and lambdas included."""
    for child in ast.iter_child_nodes(node):
        name = f"{prefix}{getattr(child, 'name', 'lambda')}"
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg in defaulted:
                yield f"{name}.{arg.arg}"
        nested = isinstance(child, _DEFS + (ast.Lambda,))
        yield from _defaulted_parameters(child, f"{name}." if nested else prefix)


def test_optional_parameters_do_not_grow():
    found = {
        f"{module.removesuffix('.py')}.{name}"
        for module, tree in _trees().items()
        for name in _defaulted_parameters(tree)
    }
    assert sorted(found - set(OPTIONS)) == [], "defaulted parameters missing from OPTIONS"
    assert sorted(set(OPTIONS) - found) == [], "OPTIONS names parameters without a default"


# numpy names whose routines can reach BLAS or LAPACK
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}

# every `@` of src/, as module.function, and why numpy computes it without
# BLAS
MATMULS = {
    "characters._unit_exponents": "int64",
    "family._exact_conductor": "int64",
}


def _matmul_sites(node, prefix=""):
    """function for each `@` or `@=` under node, named as in OPTIONS."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
            yield prefix.removesuffix(".")
        nested = isinstance(child, _DEFS + (ast.Lambda,))
        name = f"{prefix}{getattr(child, 'name', 'lambda')}."
        yield from _matmul_sites(child, name if nested else prefix)


def _blas_names(trees):
    """module:line name for each attribute read or import of a BLAS_NAMES name."""
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rpartition(".")[2] for alias in node.names]
            else:
                continue
            yield from (f"{module}:{node.lineno} {name}" for name in names if name in BLAS_NAMES)


def test_src_makes_no_blas_call():
    trees = _trees()
    named = list(_blas_names(trees))
    assert named == [], "src/ names a BLAS routine: " + ", ".join(named)
    found = {
        f"{module.removesuffix('.py')}.{site}"
        for module, tree in trees.items()
        for site in _matmul_sites(tree)
    }
    assert sorted(found - set(MATMULS)) == [], "`@` missing from MATMULS"
    assert sorted(set(MATMULS) - found) == [], "MATMULS names functions without `@`"
    assert set(MATMULS.values()) == {"int64"}
