"""Import layering and reachability of the package, read from its source with ast."""
import ast
from collections import Counter
from pathlib import Path

import pytest

import ffast

SRC = Path(__file__).resolve().parent.parent / "src" / "ffast"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def package_imports(module: str) -> set[tuple[str, str | None]]:
    """(module, name) for each name `module` imports from the package.

    `from .planner import FrontendPlan` gives ("planner", "FrontendPlan");
    a whole module, as in `from . import oracle`, gives ("oracle", None).
    """
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "ffast":
                source = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                found.add((source, alias.name) if source else (alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "ffast":
                    found.add((rest or "ffast", None))
    return found


def test_the_source_is_found():
    assert {"oracle", "spectral", "randomness", "peeling"} <= set(MODULES)
    assert ("planner", "FrontendPlan") in package_imports("oracle")


def test_oracle_imports_only_the_shared_data_types():
    # the oracle checks the fast path, so it shares no code with it
    allowed = {("planner", "FrontendPlan"), ("spectral", "SparseSpectrum")}
    assert package_imports("oracle") <= allowed


@pytest.mark.parametrize("module", ["spectral", "randomness"])
def test_signal_model_knows_nothing_of_the_front_end_or_decoder(module):
    sources = {source for source, _ in package_imports(module)}
    assert not sources & {"planner", "frontend", "singleton", "peeling"}


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_private_name(module):
    private = [(source, name) for source, name in package_imports(module)
               if (name or source).startswith("_")]
    assert private == []


def _names_used(node: ast.AST) -> set[str]:
    """Every name `node` reads: bare names, attributes and imported names."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def test_every_public_function_and_class_has_a_package_caller():
    """A public module-level function or class is read somewhere in the
    package outside its own definition, or exported in __all__.  The
    oracle is exempt: its callers are the tests, by design."""
    bodies = {m: ast.parse((SRC / f"{m}.py").read_text(encoding="utf-8")).body
              for m in MODULES}
    unused = []
    for module in MODULES:
        if module == "oracle":
            continue
        for node in bodies[module]:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in ffast.__all__:
                continue
            if not any(node.name in _names_used(other)
                       for m in MODULES for other in bodies[m] if other is not node):
                unused.append(f"{module}.{node.name}")
    assert unused == []


def _module_aliases(tree: ast.AST) -> set[str]:
    """Names a module binds to modules: `import numpy as np`, `from . import oracle`."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            aliases.update(alias.asname or alias.name for alias in node.names)
    return aliases


def _attribute_reads(node: ast.AST, aliases: set[str]) -> Counter:
    """How often `node` reads each attribute `x.name`, where x is not a module
    alias: `np.empty` is numpy's, not a read of a method called empty."""
    return Counter(
        sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        and not (isinstance(sub.value, ast.Name) and sub.value.id in aliases)
    )


# Public members with no package caller, by design: tests and perfbench
# read a decode's events, and so will a decode trace.
MEMBERS_WITHOUT_A_PACKAGE_CALLER = {"DecodeResult.events"}


def test_every_public_method_and_property_has_a_package_caller():
    """A public method or property of a package class is read as an
    attribute somewhere in the package outside its own class.  The oracle
    is exempt both ways: its classes serve the tests, and its reads do not
    count, since a member only the oracle reads serves the tests too."""
    trees = {m: ast.parse((SRC / f"{m}.py").read_text(encoding="utf-8"))
             for m in MODULES if m != "oracle"}
    aliases = {m: _module_aliases(tree) for m, tree in trees.items()}
    reads = sum((_attribute_reads(tree, aliases[m]) for m, tree in trees.items()), Counter())
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                name = f"{cls.name}.{member.name}"
                inside = _attribute_reads(cls, aliases[module])[member.name]
                if reads[member.name] == inside and name not in MEMBERS_WITHOUT_A_PACKAGE_CALLER:
                    unused.append(f"{module}.{name}")
    assert unused == []


def test_the_oracle_reads_a_spectrum_only_through_its_fields():
    """The oracle calls no SparseSpectrum method: of its members it reads
    n, indices, values and k alone, so no scoring helper of the fast path
    checks the fast path."""
    spectral = ast.parse((SRC / "spectral.py").read_text(encoding="utf-8"))
    (cls,) = [node for node in spectral.body
              if isinstance(node, ast.ClassDef) and node.name == "SparseSpectrum"]
    members = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    members |= {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)}
    oracle = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    read = set(_attribute_reads(oracle, _module_aliases(oracle)))
    assert "k" in members and read & members <= {"n", "indices", "values", "k"}


def _numpy_exp_callers(module: str) -> list[str]:
    """The enclosing definition ("Class.method", "function" or "<module>")
    of each numpy exp the module reads, as np.exp or imported from numpy."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "exp"
                    and isinstance(child.value, ast.Name) and child.value.id in ("np", "numpy")):
                found.append(scope or "<module>")
            elif (isinstance(child, ast.ImportFrom) and child.module == "numpy"
                  and any(alias.name == "exp" for alias in child.names)):
                found.append(scope or "<module>")
            visit(child, scope)

    visit(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), "")
    return found


@pytest.mark.parametrize("module", ["frontend", "singleton", "peeling", "planner"])
def test_the_fast_path_evaluates_no_exp(module):
    # roots of unity come from spectral.unit_roots' cached table
    assert _numpy_exp_callers(module) == []


def test_spectral_uses_exp_only_for_the_table_and_the_value_model():
    allowed = {"root_table", "Constellation.points", "random_spectrum", "random_phase_spectrum"}
    callers = _numpy_exp_callers("spectral")
    assert "root_table" in callers
    assert set(callers) <= allowed


def test_the_oracle_keeps_its_own_exp():
    assert _numpy_exp_callers("oracle")
    assert ("spectral", "unit_roots") not in package_imports("oracle")
