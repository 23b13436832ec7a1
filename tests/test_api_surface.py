"""Every public name of the library, and every public method of its classes, has a reader.

A name in a module's __all__ must be read by another library module, by code
of its own module outside its own definition, or by the acceptance criteria
in tests/test_acceptance.py. Unit tests alone do not count as a reader: a
public function that only its unit tests call is surface to maintain that
produces no number anyone uses. The same rule holds for the public methods
(properties included) of an exported class, read by name: some attribute
access ".name" in those places, outside the method's own definition. A name
that other objects share (a field of an unrelated class, an array's .size)
says nothing about which class is read, so such a method needs a load on its
class by name or through self, or an entry in SHARED naming its readers. The
few entry points kept without a reader are listed in CORE, each with its
reason; a method is listed as "Class.method".
"""

import ast
from pathlib import Path

import numpy as np

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

# methods whose name other objects share, with the loads that read them
SHARED = (("spectral", "GramMatrix.size", "G.size in spectral.spectral_constant; arrays share .size"),)


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


# attribute names of the non-library objects that src/ reads attributes of: a
# load ".size" cannot tell GramMatrix.size from an array's size
_FOREIGN = frozenset().union(*(dir(t) for t in (np.ndarray, dict, list, tuple, set, str, int, float)))


def _foreign_roots(tree: ast.Module) -> set[str]:
    """Names a module binds to another module, or to a name imported from outside hermlab."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] != "hermlab":
            out.update(a.asname or a.name for a in node.names)
    return out


def _receiver(node: ast.Attribute) -> str | None:
    """What an attribute is read on: x for x.name, C for module.C.name, else None."""
    value = node.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def _loads(tree: ast.Module) -> list[tuple[str, str | None, ast.Attribute]]:
    """(name, receiver, node) of each attribute load, leaving out those rooted at a foreign name (np.linalg.norm)."""
    foreign = _foreign_roots(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in foreign):
                out.append((node.attr, _receiver(node), node))
    return out


def _aliases(tree: ast.Module, names: set[str]) -> set[str]:
    """names, with the names a module binds to one of them (D in "args, D = spec, geometry.DensityFn")."""
    out = set(names)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            tuples = isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
            for t, v in zip(target.elts, node.value.elts) if tuples else [(target, node.value)]:
                if isinstance(t, ast.Name) and isinstance(v, (ast.Name, ast.Attribute)):
                    if (v.id if isinstance(v, ast.Name) else v.attr) in names:
                        out.add(t.id)
    return out


def _class_attributes(cls: ast.ClassDef) -> set[str]:
    """Names a class defines: its methods, its class-level fields and every self.x it assigns."""
    out = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            out.add(stmt.name)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            out.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            out.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and _receiver(node) == "self":
            out.add(node.attr)
    return out


def _families(classes: dict[str, ast.ClassDef]) -> dict[str, set[str]]:
    """Each class's family: the classes linked to it through their bases."""
    family = {name: {name} for name in classes}
    for name, cls in classes.items():
        for base in cls.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                joined = family[name] | family[base.id]
                for member in joined:
                    family[member] = joined
    return family


def unread_public_methods(src: Path = SRC, acceptance: Path = ACCEPTANCE, shared_readers=()) -> set[tuple[str, str]]:
    """(module, "Class.method") for every public method of an exported class that has no reader.

    A load ".name" outside the method's own definition reads it, unless it
    is rooted at a foreign module. When the name is shared, that is, a class
    outside the method's family (a subclass or a base), an array or a
    builtin has an attribute of that name, only a load on the class itself
    counts: on its name or an alias of it, or on self within the family. A
    method with a shared name and only other loads is read when
    shared_readers, of (module, "Class.method") pairs, lists it.
    """
    trees = {path.stem: _parse(path) for path in sorted(src.glob("*.py"))}
    loads = {module: _loads(tree) for module, tree in trees.items()}
    accepted = _parse(acceptance)
    accepted_loads = _loads(accepted)
    classes = {c.name: c for tree in trees.values() for c in tree.body if isinstance(c, ast.ClassDef)}
    family = _families(classes)
    attributes = {name: _class_attributes(c) for name, c in classes.items()}
    unread = set()
    for module, tree in trees.items():
        exported = set(_exported(tree))
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in exported):
                continue
            kin = family[cls.name]
            inside = {id(node) for c in kin for node in ast.walk(classes[c])}
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                name, key = method.name, (module, f"{cls.name}.{method.name}")
                shared = name in _FOREIGN or any(name in attributes[c] for c in classes if c not in kin)
                own = {id(node) for node in ast.walk(method)}

                def reads(where: ast.Module, entries) -> bool:
                    on_class = _aliases(where, kin)
                    return any(
                        attr == name
                        and id(node) not in own
                        and (not shared or receiver in on_class or (receiver == "self" and id(node) in inside))
                        for attr, receiver, node in entries
                    )

                if shared and key in shared_readers:
                    continue
                if reads(accepted, accepted_loads) or any(reads(trees[m], e) for m, e in loads.items()):
                    continue
                unread.add(key)
    return unread


def test_every_public_name_has_a_reader():
    core = {(module, name) for module, name, _ in CORE}
    assert sorted(unread_public_names() - core) == []


def test_every_public_method_has_a_reader():
    core = {(module, name) for module, name, _ in CORE}
    shared = {(module, name) for module, name, _ in SHARED}
    assert sorted(unread_public_methods(shared_readers=shared) - core) == []


def test_shared_entries_are_still_needed():
    # an entry whose method gains a load on its class, or loses its shared name, leaves SHARED
    stale = {(module, name) for module, name, _ in SHARED} - unread_public_methods()
    assert sorted(stale) == []


PLANTED = """
__all__ = ["Box", "Covering"]


class Box:
    dim: int

    def measure(self):
        return 1.0


class Covering:
    def dim(self):
        return 2

    def spread(self):
        return 0.5


def volume(box, cover):
    return box.dim * box.measure() * cover.spread()
"""


def _planted(tmp_path: Path, source: str) -> tuple[Path, Path]:
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "sets.py").write_text(source, encoding="utf-8")
    (tmp_path / "acceptance.py").write_text("", encoding="utf-8")
    return tmp_path / "pkg", tmp_path / "acceptance.py"


def test_method_named_like_a_field_elsewhere_is_caught(tmp_path):
    # Box.dim is read, Covering.dim is not, though both are loaded as ".dim"; a
    # method with a name of its own (spread) is read on any receiver
    src, acceptance = _planted(tmp_path, PLANTED)
    assert unread_public_methods(src, acceptance) == {("sets", "Covering.dim")}
    assert unread_public_methods(src, acceptance, {("sets", "Covering.dim")}) == set()


def test_shared_name_read_on_its_class_counts(tmp_path):
    src, acceptance = _planted(tmp_path, PLANTED + "\n\ndef width(c):\n    C = Covering\n    return C.dim(c)\n")
    assert unread_public_methods(src, acceptance) == set()


def test_foreign_module_loads_do_not_read_a_method(tmp_path):
    # np.linalg.norm is numpy's, not a reader of Box.norm
    source = PLANTED.replace("    def measure(self):", "    def norm(self):\n        return 1.0\n\n    def measure(self):")
    source = "import numpy as np\n" + source + "\n\ndef size(v):\n    return np.linalg.norm(v)\n"
    src, acceptance = _planted(tmp_path, source)
    assert unread_public_methods(src, acceptance) == {("sets", "Covering.dim"), ("sets", "Box.norm")}


def test_core_exceptions_still_lack_a_reader():
    # an exception that gains a reader, or stops being public, leaves CORE
    stale = {(module, name) for module, name, _ in CORE} - unread_public_names() - unread_public_methods()
    assert sorted(stale) == []
