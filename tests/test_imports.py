"""Every name a module of the package imports is used in that module, and
every module-level definition and every method is reached from the package.

The checks read the source with ``ast`` only.  ``__init__.py`` is exempt,
since its imports are the package's re-exports, and so is the
``from __future__ import annotations`` switch.  A name counts as used when
it appears as an identifier anywhere in the module, including inside a
quoted annotation.  A function, class or method (dunders aside) counts as
reached when some source of the package names it, as an identifier or an
attribute, outside its own body.  The check is by name, so a method that
shares its name with another definition counts as reached: it errs towards
passing, never towards a false alarm.  The few definitions that only the
bench, the scripts or the tests reach are listed with the reason they stay.
No line of the package starts two comprehensions, generator expressions or
lambdas of one kind.  A tree of spheres is constructed directly only in
``TreeOfSpheres._assembled``, the one place its rows' injectivity is checked.
``vertex_key`` is named only in ``trees.py``, which stores every row and reads every
edge in its order, and in ``TreeCover.make``, which orders a vertex mapping.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "sphere_trees"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# definitions no source of the package names, and what keeps each one
REACHED_FROM_OUTSIDE = {
    "branch": "the one-edge query of the package's API, which the tree tests pin",
    "canonical_form": "the classify bench workload, and the oracle for spheres_iso",
    "cover_family_to_json": "scripts/make_examples.py writes the data/ examples with it",
    "dyn_to_json": "scripts/make_examples.py writes the data/ examples with it",
    "cover_from_marked": "acceptance criterion 9 and scripts/make_examples.py",
    "enumerate_stable_trees": "the bench generators and the scripts",
    "is_admissible": "acceptance criteria 1 and 2; tree_from_partitions runs the same check",
    "GaussianRational.to_complex": "the bench generators and the tests build float snapshots",
    "LaurentFamily.reparametrize": "the bench's degenerate workload; ROADMAP item 9 needs it",
    "LaurentMap.from_exact": "the bench generators build constant cover families with it",
    "NumericTreeOfSpheres.partitions": "the numeric bench workload and numeric_envelope.py "
                                       "check the numeric limit with it",
    "synthesize_dyn": "acceptance criterion 9; ROADMAP item 5 decides its fate",
}


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported[name] = node.lineno
    used = _used_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _names(node: ast.AST) -> set:
    return _used_names(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def unreached_definitions(sources: dict) -> list:
    """(module, name) of each module-level function or class, and (module, "Class.method")
    of each method of a module-level class but the dunders, that no source names outside
    the definition's own body.  A method named elsewhere in its own class is reached."""
    units = []  # (the definitions a piece of code lies in, the names it uses)
    defined = []  # (module, qualified name, name, node)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node.name, node))
            if not isinstance(node, ast.ClassDef):
                units.append(({node}, _names(node)))
                continue
            header = node.decorator_list + node.bases + [k.value for k in node.keywords]
            units.append(({node}, set().union(*map(_names, header))))
            for stmt in node.body:
                units.append(({node, stmt}, _names(stmt)))
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                    defined.append((module, f"{node.name}.{stmt.name}", stmt.name, stmt))
    return sorted(
        (module, qualified) for module, qualified, name, node in defined
        if module != "__init__.py"
        and not any(name in names for owners, names in units if node not in owners))


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_a_leftover():
    source = ('from typing import Optional, Mapping\n'
              'from .trees import tree_partitions\n'
              'def f(x: "Mapping[str, int]") -> None:\n'
              '    return None\n')
    assert unused_imports(source) == [(1, "Optional"), (2, "tree_partitions")]


def test_every_definition_is_reached():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    unreached = {name for _, name in unreached_definitions(sources)}
    assert unreached == set(REACHED_FROM_OUTSIDE)


def shared_lines(source: str) -> list:
    """(line, kind) of each line that starts two comprehensions, generator expressions or
    lambdas of one kind.  Their code objects share a name, <listcomp> or <lambda>, and a
    first line, so cProfile's per-function table keeps one of them, and which one depends
    on the profiler's order: the bench's traced counters would not repeat."""
    kinds = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.Lambda)
    starts = [(node.lineno, type(node).__name__) for node in ast.walk(ast.parse(source))
              if isinstance(node, kinds)]
    return sorted({start for start in starts if starts.count(start) > 1})


@pytest.mark.parametrize("module", MODULES)
def test_no_line_starts_two_code_objects_of_one_kind(module):
    assert shared_lines((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_a_shared_line():
    source = ('xs = [[y for y in range(x)] for x in range(3)]\n'
              'ys = [x for x in range(3)], {x for x in range(3)}\n'
              'f, g = (lambda: 1), (lambda: 2)\n'
              'zs = (x for x in (y for y in ()))\n')
    assert shared_lines(source) == [(1, "ListComp"), (3, "Lambda"), (4, "GeneratorExp")]


def test_the_check_finds_an_unreached_definition():
    sources = {"a.py": ('def used():\n'
                        '    return helper()\n'
                        'def helper():\n'
                        '    return 1\n'
                        'def leftover():\n'
                        '    return leftover()\n'),
               "b.py": ('from . import a\n'
                        'class Caller:\n'
                        '    value = a.used()\n'),
               "c.py": ('@decorate\n'
                        'class Point:\n'
                        '    def __add__(self, other):\n'
                        '        return self.make()\n'
                        '    @classmethod\n'
                        '    def make(cls):\n'
                        '        return cls.sibling()\n'
                        '    def sibling(self):\n'
                        '        return 1\n'
                        '    def unused(self):\n'
                        '        return self.unused()\n'
                        'def decorate(cls):\n'
                        '    return Point\n')}
    assert unreached_definitions(sources) == [
        ("a.py", "leftover"), ("b.py", "Caller"), ("c.py", "Point.unused")]


def raw_constructions(sources: dict, cls: str = "TreeOfSpheres",
                      allowed: str = "_assembled") -> list:
    """(module, enclosing function or "<module>") of each call of the class cls by
    its name, or as ``cls`` inside its own body, outside its method allowed."""
    found = []

    def visit(node, module, owner, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, child.name, func)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, owner, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and (child.func.id == cls or child.func.id == "cls" and owner == cls) \
                    and (owner, func) != (cls, allowed):
                found.append((module, func or "<module>"))
            visit(child, module, owner, func)

    for module, source in sorted(sources.items()):
        visit(ast.parse(source), module, None, None)
    return found


def test_trees_of_spheres_are_constructed_in_one_place():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert raw_constructions(sources) == []


def test_the_check_finds_a_raw_construction():
    sources = {"a.py": ('class TreeOfSpheres:\n'
                        '    @classmethod\n'
                        '    def _assembled(cls, shape, rows):\n'
                        '        return cls(shape, rows)\n'
                        '    @classmethod\n'
                        '    def make(cls, shape, rows):\n'
                        '        return cls(shape, sorted(rows))\n'
                        'def twist(t):\n'
                        '    return TreeOfSpheres(t.shape, t.marking)\n'
                        'class Other:\n'
                        '    def make(cls):\n'
                        '        return cls()\n'),
               "b.py": 'EMPTY = TreeOfSpheres(None, ())\n'}
    assert raw_constructions(sources) == [("a.py", "make"), ("a.py", "twist"),
                                          ("b.py", "<module>")]


# where vertex_key may be named outside trees.py: TreeCover.make orders a vertex mapping,
# not a tree table
VERTEX_KEY_ALLOWED = {("covers.py", "TreeCover.make")}


def references(sources: dict, name: str) -> list:
    """(module, enclosing "Class.function", function or "<module>") of each use of name
    as an identifier or an attribute; import lines do not count."""
    found = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Name) and child.id == name \
                    or isinstance(child, ast.Attribute) and child.attr == name:
                found.append((module, where or "<module>"))
            visit(child, module, where)

    for module, source in sorted(sources.items()):
        visit(ast.parse(source), module, None)
    return found


def test_tree_tables_are_read_in_their_stored_order():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")
               if p.name != "trees.py"}
    assert [r for r in references(sources, "vertex_key") if r not in VERTEX_KEY_ALLOWED] == []


def test_the_check_finds_a_sort_by_vertex_key():
    sources = {"a.py": ('from .trees import vertex_key\n'
                        'class TreeCover:\n'
                        '    def make(cls, vm):\n'
                        '        return sorted(vm, key=vertex_key)\n'
                        '    def rows(self, row):\n'
                        '        return sorted(row, key=lambda n: trees.vertex_key(n))\n'
                        'def edges(t):\n'
                        '    return sorted(t.edges, key=lambda e: sorted(map(vertex_key, e)))\n'),
               "b.py": 'KEY = vertex_key\n'}
    assert references(sources, "vertex_key") == [
        ("a.py", "TreeCover.make"), ("a.py", "TreeCover.rows"), ("a.py", "edges"),
        ("b.py", "<module>")]
