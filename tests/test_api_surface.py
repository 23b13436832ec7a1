"""Every public name of the library has a reader.

A name in a module's __all__ must be read by another library module, by code
of its own module outside its own definition, or by the acceptance criteria
in tests/test_acceptance.py. Unit tests alone do not count as a reader: a
public function that only its unit tests call is surface to maintain that
produces no number anyone uses. The few entry points kept without such a
reader are listed in CORE, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hermlab"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

CORE = (
    ("cli", "validate", "the config check that the CLI documents for callers of the library"),
    ("hermite", "apply_ladder", "core ladder calculus: the raising and lowering operators themselves"),
    ("hermite", "evaluate", "the n-D evaluator of an expansion, the pointwise view of every span"),
    ("hermite", "hermite_eval_1d", "the pointwise value of one Hermite function, pinned against mpmath"),
    ("indexing", "level_dim", "the size of one degree level of the shared enumeration"),
)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree: ast.Module) -> list[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return list(ast.literal_eval(stmt.value))
    return []


def _package_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs that a file reads from the hermlab package.

    A read is an import of the name from its module (relative, or from
    hermlab.<module>), or an attribute access on a name bound to the module
    by "from . import <module>" or "from hermlab import <module>".
    "__init__" stands for the package itself.
    """
    modules: dict[str, str] = {}  # local name -> hermlab module
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.level == 0 and node.module and node.module.split(".")[0] == "hermlab":
                source = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if source is None:  # from the package: a submodule or a re-export
                    modules[alias.asname or alias.name] = alias.name
                    reads.add(("__init__", alias.name))
                else:
                    reads.add((source, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                reads.add((modules[node.value.id], node.attr))
    return reads


def _defined(stmt: ast.stmt) -> set[str]:
    """Names that a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _own_reads(tree: ast.Module) -> set[str]:
    """Names that a module's code loads outside the statement defining them."""
    out = set()
    for stmt in tree.body:
        skip = _defined(stmt)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in skip:
                out.add(node.id)
    return out


def unread_public_names() -> set[tuple[str, str]]:
    """(module, name) for every public name defined in src/ that has no reader."""
    trees = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    reads = {name: _package_reads(tree) for name, tree in trees.items()}
    acceptance = _package_reads(_parse(ACCEPTANCE))
    unread = set()
    for module, tree in trees.items():
        own = _own_reads(tree)
        # a re-export, such as the package's BACKEND, is checked where it is defined
        defined = set().union(*map(_defined, tree.body))
        for name in _exported(tree):
            key = (module, name)
            if name not in defined or name in own or key in acceptance:
                continue
            if any(key in r for other, r in reads.items() if other != module):
                continue
            unread.add(key)
    return unread


def test_every_public_name_has_a_reader():
    core = {(module, name) for module, name, _ in CORE}
    assert sorted(unread_public_names() - core) == []


def test_core_exceptions_still_lack_a_reader():
    # an exception that gains a reader, or stops being public, leaves CORE
    stale = {(module, name) for module, name, _ in CORE} - unread_public_names()
    assert sorted(stale) == []
