"""Census of the package's settable values and of its reachable modules.

A settable value is a function parameter with a default or a dataclass
field with a default, counted over the AST of ``src/contact_duality``.
The bound is the count when options that no caller sets became
constants; a new option has to raise it on purpose.

A module is reachable when the command line imports it, directly or
through other modules.  Imports are read from the AST, and the package
``__init__`` is not followed, since its re-exports would reach every
module it names.

A top-level function or class has a library caller when package code
names it outside an import, as a name or as an attribute.  A
module-level import is used when its module names what it binds.
"""

import ast
import pathlib

import contact_duality

#: Settable values in the package; raise it only together with a new option.
SETTABLE_BOUND = 33
#: Top-level names no package code calls, and why each stays.
UNCALLED = {
    "Permutation": "perfbench/tracing.py wraps it by name (ROADMAP item 3)",
    "length_pattern_groups": "perfbench/tracing.py wraps it by name (ROADMAP item 3)",
    "propagate_operator": "route 3, reached by tests until ROADMAP item 13 gives it a caller",
}
#: Module-level imports no code in their module uses, and why each stays.
UNUSED_IMPORTS = {
    ("operators", "length_pattern_groups"):
        "perfbench/tracing.py wraps it here by name (ROADMAP item 3)",
    ("operators", "sector_element_mask"):
        "perfbench/tracing.py wraps it here by name (ROADMAP item 3)",
    ("propagation", "expm"): "perfbench/tracing.py wraps it here by name (ROADMAP item 3)",
    ("propagation", "solve"): "perfbench/tracing.py wraps it here by name (ROADMAP item 3)",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
    return count


def test_census_counts_defaults_and_dataclass_fields():
    source = '''
from dataclasses import dataclass, field

def f(a, b=1, *, c=2, d):
    return lambda x=0: x

@dataclass(frozen=True)
class Spec:
    box: object
    tol: float = 1e-9
    extra: list = field(default_factory=list)

class Plain:
    size: int = 3
'''
    assert settable_values(source) == 5


def test_settable_values_stay_within_the_bound():
    package = pathlib.Path(contact_duality.__file__).parent
    total = sum(settable_values(path.read_text(encoding="utf-8"))
                for path in sorted(package.glob("*.py")))
    assert total <= SETTABLE_BOUND, (
        f"{total} settable values (bound {SETTABLE_BOUND}): make a new option a "
        "constant unless a caller sets it, or raise the bound on purpose")


def imported_modules(source: str, package: str = "contact_duality") -> set:
    """Names of the package modules a source file imports, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith(package + "."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith(package + "."):
                names.add(module.split(".")[1])
            elif node.level == 1 and module:
                names.add(module.split(".")[0])
            elif (node.level == 1 and not module) or (node.level == 0 and module == package):
                names.update(alias.name for alias in node.names)
    return names


def test_imported_modules_reads_every_import_form():
    source = '''
import contact_duality.mesh
from contact_duality.kernels import free_kernel
from .coupling import robin
from . import spectra
from contact_duality import quadrature

def lazy():
    from .folding import fold_integral_check
'''
    assert imported_modules(source) == {"mesh", "kernels", "coupling", "spectra",
                                        "quadrature", "folding"}


def test_every_module_is_reached_from_the_command_line():
    package = pathlib.Path(contact_duality.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        source = (package / f"{name}.py").read_text(encoding="utf-8")
        todo.extend(imported_modules(source) & modules)
    assert modules <= reached, (
        f"modules no command imports: {sorted(modules - reached)}; "
        "wire them into a command or delete them")


def defined_names(source: str) -> set:
    """Names of a source file's top-level functions and classes."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def referenced_names(source: str) -> set:
    """Names a source file uses as a name or an attribute; imports do not
    count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_census_reads_definitions_and_references():
    source = '''
from .mesh import imported_only

class Kept:
    pass

def used():
    return Kept, module.attribute

def unused():
    def nested():
        pass
'''
    assert defined_names(source) == {"Kept", "used", "unused"}
    assert referenced_names(source) == {"Kept", "module", "attribute"}


def test_every_library_name_has_a_library_caller():
    package = pathlib.Path(contact_duality.__file__).parent
    sources = [path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))]
    defined = set().union(*map(defined_names, sources))
    referenced = set().union(*map(referenced_names, sources))
    uncalled = defined - referenced
    assert uncalled <= set(UNCALLED), (
        f"library code no package code calls: {sorted(uncalled - set(UNCALLED))}; "
        "give it a caller, delete it, or list it in UNCALLED with its reason")
    assert set(UNCALLED) <= uncalled, (
        f"listed in UNCALLED but called: {sorted(set(UNCALLED) - uncalled)}")


def unused_imports(source: str) -> set:
    """Names a source file's module-level imports bind that it never uses
    as a name; ``from __future__`` imports bind none."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_unused_imports_reads_module_level_imports():
    source = '''
from __future__ import annotations
import numpy as np
import scipy.sparse
import os.path
from .mesh import DofTable, all_cells as cells, dead

def f(x: DofTable):
    import json
    return np.asarray(cells(x)), scipy.sparse
'''
    assert unused_imports(source) == {"os", "dead"}


def test_every_import_is_used():
    package = pathlib.Path(contact_duality.__file__).parent
    unused = {(path.stem, name) for path in sorted(package.glob("*.py"))
              if path.stem != "__init__"
              for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert unused <= set(UNUSED_IMPORTS), (
        f"imports nothing uses: {sorted(unused - set(UNUSED_IMPORTS))}; "
        "delete them, or list them in UNUSED_IMPORTS with the reason")
    assert set(UNUSED_IMPORTS) <= unused, (
        f"listed in UNUSED_IMPORTS but used or gone: {sorted(set(UNUSED_IMPORTS) - unused)}")
