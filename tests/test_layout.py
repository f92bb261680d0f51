"""Layout guard: no public function in src/ that the program never calls.

A public module-level function of `src/torusque/*.py` must be referenced
(called, passed or read as an attribute) somewhere in `src/` outside its own
body, or be exported in `torusque.__all__`.  Functions only tests call
belong in `tests/oracles.py` or in the test that uses them.
"""

import ast
from collections import Counter
from pathlib import Path

import torusque

SRC = Path(__file__).resolve().parents[1] / "src" / "torusque"


def _referenced_names(node) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def unreferenced_public_functions(src: Path = SRC) -> list[str]:
    """module.name of every public module-level function with no reference
    in src/ outside its own body and no entry in torusque.__all__."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    total = Counter()
    for tree in trees.values():
        total += _referenced_names(tree)
    flagged = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            own = _referenced_names(node)[node.name]
            if total[node.name] - own == 0 and node.name not in torusque.__all__:
                flagged.append(f"{module}.{node.name}")
    return flagged


def test_every_public_function_is_used_or_exported():
    assert unreferenced_public_functions() == []
