"""Layout guard: no public function or method in src/ that the program never
calls, and no module-level import that its module never uses.

A public module-level function of `src/torusque/*.py` must be referenced
(called, passed or read as an attribute) somewhere in `src/` outside its own
body, or be exported in `torusque.__all__`; so must every public method or
property of a class there (dunders excluded).  References are matched by
name, so a method shares them with any other name it is spelled like.
Functions only tests call belong in `tests/oracles.py` or in the test that
uses them.  A name that a
module of `src/torusque/` (other than `__init__`) imports at module level
must be read somewhere in that module; ALLOWED_UNUSED_IMPORTS lists the
exceptions.  No module of `src/torusque/` names numpy.random in its code:
every sample comes from the standard library's `random.Random`, so no sweep
pays for importing numpy.random.  The base-p digit order and the symplectic
form are each spelled out once: only `heisenberg` raises a base to
`np.arange` (its `digits` and `flat_index`), and only `ffcore` reads
`standard_j` (its `is_symplectic`).  No module of `src/torusque/` defines,
imports or reads `lattice_vectors` or `transport_all`: the whole
p^{2n} x 2n lattice table lives only in `tests/oracles.py`, and the program
maps xi in chunks of flat indices.  No function of `src/torusque/` takes a
parameter named `sign`, and none defines or reads `measure_split_sign` or
`split_sign`: the closed-form diagonal trace has one orientation, and its
measurement against the other lives only in `tests/oracles.py`.  No module
of `src/torusque/` forms or multiplies by a p^n x p^n Fourier matrix: none
defines, imports or reads `fourier_op`, `_psi_dots` or an attribute
`fourier` (the dense rho(fourier) a `WeilRep` once kept), and none takes a
product `a @ a.T` of an array with its own transpose (the p^n x p^n table
of x.y over `index_vectors`); the Fourier kernel is applied one digit at a
time.  The dense operators have few readers: no module of `src/torusque/`
defines or reads `generator_ops` (the dense stack of rho of the torus
generators, which the decomposition no longer reads), and only
`hecke.decompose`, `trace_formula_deviation` and `cli._conventions` read
`build_chunks`; a spy checks that the egorov check forms no dense operator
chunk (`weil._dense_chunk`), and that the decomposition forms one chunk
of one operator per torus generator.
"""

import ast
import random
from collections import Counter
from pathlib import Path

import torusque
from torusque import cli, weil
from torusque.ffcore import PrimeModulus
from torusque.quevaluator import PrimeContext

SRC = Path(__file__).resolve().parents[1] / "src" / "torusque"

# perfbench/test_perfbench.py reads weil.pi_op and weil.mat_mul as its
# examples of functions bound in two modules
ALLOWED_UNUSED_IMPORTS = {"weil.mat_mul", "weil.pi_op"}


def _referenced_names(node) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _public_defs(tree):
    """(qualified name, node) of every public module-level function and every
    public method of a module-level class; dunders count as private."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def unreferenced_public_functions(src: Path = SRC) -> list[str]:
    """module.name of every public module-level function, and module.Class.name
    of every public method, with no reference in src/ outside its own body.
    Functions exported in torusque.__all__ are exempt."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    total = Counter()
    for tree in trees.values():
        total += _referenced_names(tree)
    flagged = []
    for module, tree in trees.items():
        for qual, node in _public_defs(tree):
            own = _referenced_names(node)[node.name]
            if total[node.name] - own == 0 and qual not in torusque.__all__:
                flagged.append(f"{module}.{qual}")
    return flagged


def test_every_public_function_is_used_or_exported():
    assert unreferenced_public_functions() == []


def test_unreferenced_guard_flags_an_unused_method(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def helper():\n"
        "    return 1\n\n"
        "class A:\n"
        "    def used(self):\n"
        "        return helper()\n\n"
        "    def unused(self):\n"
        "        return self.unused\n\n"
        "    def __repr__(self):\n"
        "        return 'A'\n\n"
        "    def _private(self):\n"
        "        return self.used()\n")
    assert unreferenced_public_functions(tmp_path) == ["mod.A.unused"]


def unused_module_imports(src: Path = SRC) -> list[str]:
    """module.name of every name a module of src/ (not __init__) imports at
    module level and never reads as a bare name."""
    flagged = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        flagged.append(f"{path.stem}.{name}")
    return flagged


def test_every_module_import_is_used():
    assert sorted(set(unused_module_imports()) - ALLOWED_UNUSED_IMPORTS) == []


def test_unused_import_guard_flags_an_unused_name(tmp_path):
    (tmp_path / "__init__.py").write_text("import os\n")
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as parse\n"
        "from . import sibling\n\n"
        "def f(x):\n"
        "    return parse(x), os.sep\n")
    assert unused_module_imports(tmp_path) == ["mod.dumps", "mod.sibling"]


def _code_nodes(tree):
    """(line, node) for every node of tree, and for every node of each quoted
    annotation in it at the annotation's line."""
    for node in ast.walk(tree):
        yield getattr(node, "lineno", 0), node
        for field in ("annotation", "returns"):
            quoted = getattr(node, field, None)
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                for sub in ast.walk(ast.parse(quoted.value, mode="eval")):
                    yield quoted.lineno, sub


def _names_numpy_random(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "random" and isinstance(node.value, ast.Name) \
            and node.value.id in ("np", "numpy")
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[:2] == ["numpy", "random"] or \
            (node.module == "numpy" and any(a.name == "random" for a in node.names))
    return False


def numpy_random_names(src: Path = SRC) -> list[str]:
    """module:line of every `np.random` or `numpy.random` in the code of
    src/, annotations included, and of every import of or from numpy.random.
    Docstrings and comments may mention it."""
    flagged = []
    for path in sorted(src.glob("*.py")):
        lines = {line for line, node in _code_nodes(ast.parse(path.read_text()))
                 if _names_numpy_random(node)}
        flagged += [f"{path.stem}:{line}" for line in sorted(lines)]
    return flagged


def test_no_module_names_numpy_random():
    assert numpy_random_names() == []


def test_numpy_random_guard_flags_every_spelling(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy import random\n"
        "from numpy.random import default_rng\n\n"
        "def f(rng: np.random.Generator):\n"
        "    \"\"\"Draws nothing from numpy.random.\"\"\"\n"
        "    return np.linalg.norm(rng)\n\n"
        "def g() -> 'numpy.random.Generator':\n"
        "    return random\n")
    assert numpy_random_names(tmp_path) == ["mod:3", "mod:4", "mod:5", "mod:7", "mod:11"]


def _is_digit_weights(node) -> bool:
    """`base ** np.arange(...)`: the weights of a flat index in some base."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
        and isinstance(node.right, ast.Call) \
        and isinstance(node.right.func, ast.Attribute) and node.right.func.attr == "arange"


def _reads_standard_j(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return any(a.name == "standard_j" for a in node.names)
    return isinstance(node, ast.Name) and node.id == "standard_j" or \
        isinstance(node, ast.Attribute) and node.attr == "standard_j"


def convention_copies(src: Path = SRC) -> list[str]:
    """module:line of every `base ** np.arange(...)` outside heisenberg and
    every read or import of `standard_j` outside ffcore, in the code of
    src/ (docstrings and comments may mention them)."""
    flagged = []
    for path in sorted(src.glob("*.py")):
        lines = {node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if path.stem != "heisenberg" and _is_digit_weights(node)
                 or path.stem != "ffcore" and _reads_standard_j(node)}
        flagged += [f"{path.stem}:{line}" for line in sorted(lines)]
    return flagged


def test_digit_order_and_symplectic_form_are_defined_once():
    assert convention_copies() == []


def test_convention_guard_flags_both_copies(tmp_path):
    (tmp_path / "ffcore.py").write_text(
        "def standard_j(n):\n"
        "    return n\n\n"
        "def is_symplectic(m):\n"
        "    return standard_j(len(m))\n")
    (tmp_path / "heisenberg.py").write_text(
        "import numpy as np\n\n"
        "def flat_index(vecs, p):\n"
        "    return vecs @ p ** np.arange(vecs.shape[-1])\n")
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "from . import ffcore\n"
        "from .ffcore import standard_j\n\n"
        "def f(x, p, n):\n"
        "    \"\"\"Not standard_j, nor p ** np.arange(n).\"\"\"\n"
        "    w = np.arange(p) ** 2 + 2 ** n\n"
        "    j = ffcore.standard_j(n)\n"
        "    return (x @ (p ** np.arange(2 * n))) + w, j\n")
    assert convention_copies(tmp_path) == ["mod:3", "mod:8", "mod:9"]


WHOLE_TABLE_NAMES = {"lattice_vectors", "transport_all"}


def _spelled(node) -> list[str]:
    """The names node defines, imports or reads."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [a.name.split(".")[-1] for a in node.names]
    return []


def _flagged_lines(src: Path, flags) -> list[str]:
    """module:line of every node of the code of src/ that flags(node) holds for."""
    flagged = []
    for path in sorted(src.glob("*.py")):
        lines = {node.lineno for node in ast.walk(ast.parse(path.read_text())) if flags(node)}
        flagged += [f"{path.stem}:{line}" for line in sorted(lines)]
    return flagged


def whole_table_names(src: Path = SRC) -> list[str]:
    """module:line of every definition, import, name or attribute spelled
    like a WHOLE_TABLE_NAMES entry in the code of src/ (docstrings and
    comments may mention them)."""
    return _flagged_lines(src, lambda node: WHOLE_TABLE_NAMES.intersection(_spelled(node)))


def test_no_module_builds_the_whole_lattice_table():
    assert whole_table_names() == []


def test_whole_table_guard_flags_every_use(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "from .heisenberg import lattice_vectors\n"
        "from . import heisenberg\n\n"
        "def f(pm, transport):\n"
        "    \"\"\"Not lattice_vectors, nor transport_all.\"\"\"\n"
        "    xis = heisenberg.lattice_vectors(pm)  # lattice_vectors\n"
        "    return xis, transport.transport_all()\n\n"
        "class T:\n"
        "    def transport_all(self):\n"
        "        return np.arange(3)\n")
    assert whole_table_names(tmp_path) == ["mod:2", "mod:7", "mod:8", "mod:11"]


ORIENTATION_NAMES = {"measure_split_sign", "split_sign"}


def orientation_options(src: Path = SRC) -> list[str]:
    """module:line of every parameter named `sign` of a function or lambda,
    and of every definition, import, name or attribute spelled like an
    ORIENTATION_NAMES entry, in the code of src/ (docstrings and comments may
    mention them).  The closed-form diagonal trace has one orientation,
    fixed in `quevaluator.split_trace_formula`: nothing measures it or
    passes it around."""
    return _flagged_lines(src, lambda node: isinstance(node, ast.arg) and node.arg == "sign"
                          or ORIENTATION_NAMES.intersection(_spelled(node)))


def test_the_diagonal_trace_has_one_orientation():
    assert orientation_options() == []


def test_orientation_guard_flags_every_use(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .quevaluator import measure_split_sign\n\n"
        "def f(lam, a, *, sign=-1):\n"
        "    \"\"\"Takes no sign from split_sign.\"\"\"\n"
        "    return lam * a  # measure_split_sign\n\n"
        "def g(ctx, pm, rep, relation_sign, signs):\n"
        "    return ctx.split_sign, measure_split_sign(pm, rep), relation_sign\n\n"
        "h = lambda x, sign: sign * x\n\n"
        "class C:\n"
        "    def split_sign(self, sign):\n"
        "        return sign\n")
    assert orientation_options(tmp_path) == ["mod:1", "mod:3", "mod:8", "mod:10",
                                             "mod:13"]


DENSE_FOURIER_NAMES = {"fourier_op", "_psi_dots", "fourier"}


def _is_self_gram(node) -> bool:
    """`a @ a.T`: an array times its own transpose."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) \
        and isinstance(node.right, ast.Attribute) and node.right.attr == "T" \
        and ast.dump(node.right.value) == ast.dump(node.left)


def dense_fourier_uses(src: Path = SRC) -> list[str]:
    """module:line of every definition, import, name or attribute spelled
    like a DENSE_FOURIER_NAMES entry, and of every product `a @ a.T`, in the
    code of src/ (docstrings and comments may mention them)."""
    return _flagged_lines(src, lambda node: DENSE_FOURIER_NAMES.intersection(_spelled(node))
                          or _is_self_gram(node))


def test_no_module_forms_a_dense_fourier_matrix():
    assert dense_fourier_uses() == []


def test_dense_fourier_guard_flags_every_use(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "from .weil import fourier_op\n\n"
        "def _psi_dots(pts):\n"
        "    return pts @ pts.T  # pts @ pts.T\n\n"
        "def f(rep, z, w, f1):\n"
        "    \"\"\"Not rep.fourier, nor w @ w.T.\"\"\"\n"
        "    return rep.fourier @ z, w @ z.T, f1 @ w, np.outer(w, w)\n")
    assert dense_fourier_uses(tmp_path) == ["mod:2", "mod:4", "mod:5", "mod:9"]


def reads_outside(src: Path, name: str, allowed: set) -> list[str]:
    """module:line of every name or attribute `name` read in the code of src/
    outside the functions in allowed, qualified as module.function or
    module.Class.function (functions nested in them included).  A definition
    of `name` is no read, and docstrings and comments may mention it."""
    flagged = []
    for path in sorted(src.glob("*.py")):
        lines, stack = set(), [(ast.parse(path.read_text()), path.stem)]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}"
            read = isinstance(node, ast.Name) and node.id == name \
                or isinstance(node, ast.Attribute) and node.attr == name
            if read and not any(scope == a or scope.startswith(a + ".") for a in allowed):
                lines.add(node.lineno)
            stack.extend((child, scope) for child in ast.iter_child_nodes(node))
        flagged += [f"{path.stem}:{line}" for line in sorted(lines)]
    return flagged


BUILD_CHUNKS_READERS = {"hecke.decompose", "quevaluator.trace_formula_deviation",
                        "cli._conventions"}


def generator_stack_names(src: Path = SRC) -> list[str]:
    """module:line of every definition, import, name or attribute spelled
    `generator_ops` in the code of src/ (docstrings and comments may
    mention it)."""
    return _flagged_lines(src, lambda node: "generator_ops" in _spelled(node))


def test_no_module_keeps_a_generator_stack():
    assert generator_stack_names() == []


def test_only_three_readers_build_dense_operators():
    assert reads_outside(SRC, "build_chunks", BUILD_CHUNKS_READERS) == []


def test_reader_guards_flag_every_other_reader(tmp_path):
    (tmp_path / "quevaluator.py").write_text(
        "class PrimeContext:\n"
        "    def generator_ops(self):\n"
        "        \"\"\"Not self.generator_ops.\"\"\"\n"
        "        return list(self.rep.build_chunks(self.gens))\n\n"
        "    def decomposition(self):\n"
        "        return decompose(lambda: self.generator_ops)\n\n"
        "    def transport(self):\n"
        "        return self.generator_ops  # generator_ops\n\n"
        "def trace_formula_deviation(ctx):\n"
        "    def chunks(bs):\n"
        "        return ctx.rep.build_chunks(bs)\n"
        "    return chunks\n")
    (tmp_path / "hecke.py").write_text(
        "def decompose(torus, rep):\n"
        "    return next(rep.build_chunks(torus.generators))\n\n"
        "def centralizer(rep):\n"
        "    return rep.build_chunks\n")
    (tmp_path / "cli.py").write_text(
        "def _check_demo(ctx, generator_ops):\n"
        "    return len(ctx.generator_ops), generator_ops, 'generator_ops' in vars(ctx)\n\n"
        "def _check_egorov(ctx, build_chunks):\n"
        "    return build_chunks, next(ctx.rep.build_chunks([]))\n\n"
        "def _conventions(ctx):\n"
        "    return ctx.rep.build_chunks\n")
    assert generator_stack_names(tmp_path) == ["cli:2", "quevaluator:2", "quevaluator:7",
                                               "quevaluator:10"]
    assert reads_outside(tmp_path, "build_chunks", BUILD_CHUNKS_READERS) == [
        "cli:5", "hecke:5", "quevaluator:4"]


def test_egorov_check_forms_no_dense_operator(cat_map, sp4_elem, monkeypatch):
    # the spy sees nothing from the egorov check, which reads rho(B) on the
    # probe, and one chunk of one operator per torus generator from the
    # decomposition
    built = []
    real = weil._dense_chunk

    def spy(rep, src, *plan):
        built.append(len(src))
        return real(rep, src, *plan)

    monkeypatch.setattr(weil, "_dense_chunk", spy)
    for elem, pm in ((cat_map, PrimeModulus(7, 1)), (sp4_elem, PrimeModulus(5, 2))):
        ctx = PrimeContext.build(elem, pm)
        built.clear()
        assert cli._check_egorov(ctx, random.Random(pm.p)).status == "pass"
        assert built == []
        ctx.decomposition
        assert built == [1] * len(ctx.torus.generators)
