"""Every top-level function and class of ``src/smbandits``, and every method
other than a dunder, is referenced in ``src/`` or ``perfbench/`` outside its
own definition; every attribute the package stores on ``self`` is read there.

A reference is an ``ast`` ``Name``, an ``Attribute``, an import alias (so an
export from ``__init__`` counts) or a string constant that is an identifier
(``perfbench/tracer.py`` names the sites it patches as strings). Comments and
docstrings are not references. Names match by spelling only, so one call of
``x.update(...)`` keeps every method named ``update`` alive.

A read of an attribute is an ``ast.Attribute`` that is not a store target
(``self.a[i] = x`` reads ``a``) or an identifier string constant.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smbandits"
SEARCHED = (ROOT / "src", ROOT / "perfbench")

# Names that only tests call, each with its callers.
TEST_ONLY = {
    # tests/test_policies.py, test_round_exact.py, test_round_reuse.py,
    # test_match_prime_exact.py, test_match_table.py, test_instability.py:
    # the arrivals of a round in which every agent arrives.
    "all_arrivals",
    # tests/test_confidence.py, test_policies.py, test_environment.py,
    # test_round_reuse.py: oracle sets collapsed onto the truth.
    "collapse_to",
    # tests/test_acceptance.py (criterion 8), test_environment.py: the
    # cumulative revenue curve of a trace.
    "cum_revenue",
}


def definitions(tree: ast.Module):
    """``(name, node)`` of each top-level function and class and of each
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item


def referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        return node.value
    return None


def parsed() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for top in SEARCHED for path in sorted(top.rglob("*.py"))}


def unreferenced_names() -> set[str]:
    """Names defined in the package with no reference outside their own
    definitions."""
    trees = parsed()
    defined: dict[str, list[ast.AST]] = {}
    for path, tree in trees.items():
        if PACKAGE in path.parents:
            for name, node in definitions(tree):
                defined.setdefault(name, []).append(node)
    # Nodes inside a definition of the name they spell do not count for it.
    inside_own: set[int] = set()
    for name, nodes in defined.items():
        for node in nodes:
            inside_own.update(id(n) for n in ast.walk(node) if referenced_name(n) == name)
    used = {
        name
        for tree in trees.values()
        for node in ast.walk(tree)
        if (name := referenced_name(node)) in defined and id(node) not in inside_own
    }
    return set(defined) - used


def self_stores(tree: ast.Module) -> set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def unread_attributes(trees: dict[Path, ast.Module]) -> set[str]:
    """Attributes the package stores on ``self`` that nothing reads."""
    stored = set().union(*(self_stores(tree) for path, tree in trees.items() if PACKAGE in path.parents))
    read = {
        node.attr if isinstance(node, ast.Attribute) else node.value
        for tree in trees.values()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store))
        or (isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier())
    }
    return stored - read


def test_every_definition_is_referenced():
    assert unreferenced_names() - TEST_ONLY == set()


def test_test_only_names_are_still_unreferenced():
    # A name that gained a caller in src/ or perfbench/ leaves the list.
    assert TEST_ONLY <= unreferenced_names()


def test_every_stored_attribute_is_read():
    assert unread_attributes(parsed()) == set()
