"""Every name a module of the package imports is used in that module, and
every module-level definition is reached from the package.

The checks read the source with ``ast`` only.  ``__init__.py`` is exempt,
since its imports are the package's re-exports, and so is the
``from __future__ import annotations`` switch.  A name counts as used when
it appears as an identifier anywhere in the module, including inside a
quoted annotation.  A function or class counts as reached when some source
of the package names it, as an identifier or an attribute, outside its own
body; the few that only the bench, the scripts or the tests reach are
listed with the reason they stay.  No line of the package starts two
comprehensions, generator expressions or lambdas of one kind.
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
    "laurent_leading_value": "the oracle for leading values that the ROADMAP keeps",
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


def unreached_definitions(sources: dict) -> list:
    """(module, name) of each module-level function or class that no source names
    outside the definition's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = []  # (module, top-level statement, the names it uses)
    for module, tree in trees.items():
        for node in tree.body:
            attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            named.append((module, node, _used_names(node) | attrs))
    return sorted(
        (module, node.name) for module, tree in trees.items() if module != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(node.name in names for _, other, names in named if other is not node))


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
                        '    value = a.used()\n')}
    assert unreached_definitions(sources) == [("a.py", "leftover"), ("b.py", "Caller")]
