"""Every function, class and method the package defines is named somewhere in the package."""

import ast
from pathlib import Path

import ticstream

SOURCES = sorted(Path(ticstream.__file__).parent.glob("*.py"))

# definitions that no package code names, each with the reason it stays
UNNAMED_ON_PURPOSE = {
    "clip_loss_and_grads": "perfbench's tracer hooks it by name; it goes when the oracles move into the tests",
    "lwf_penalty_and_grads": "perfbench's tracer hooks it by name; it goes when the oracles move into the tests",
    "finite_diff_grad": "the gradient oracle of the tests; it goes when the oracles move into the tests",
    "FormatError.offset": "read by whoever catches the error",
}


def definitions(tree: ast.AST) -> list[tuple[str, str]]:
    """(qualified name, name) of each function, class and method in `tree`; dunders, which Python
    calls itself, are left out."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append((prefix + child.name, child.name))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def names(tree: ast.AST) -> set[str]:
    """Every name `tree` uses: an ast.Name, an attribute or an imported name. A docstring is a
    string, so what it mentions is not used."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def unnamed(trees: list[ast.AST]) -> set[str]:
    used = set().union(*map(names, trees))
    return {qualified for tree in trees for qualified, name in definitions(tree) if name not in used}


def test_scan_finds_a_definition_nothing_names():
    source = ("class A:\n    def used(self): ...\n    def dead(self): ...\n    def __len__(self): ...\n"
              "def helper():\n    '''mentions dead'''\n    return A().used()\n"
              "def entry(): ...\n")
    tree = ast.parse(source)
    assert unnamed([tree, ast.parse("from m import entry\nhelper()\n")]) == {"A.dead"}


def test_every_definition_is_named_in_the_package():
    dead = unnamed([ast.parse(path.read_text()) for path in SOURCES])
    assert dead == set(UNNAMED_ON_PURPOSE), sorted(dead ^ set(UNNAMED_ON_PURPOSE))
