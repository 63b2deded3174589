"""No module of the package imports a name it never uses or exports one it
does not define.

A static scan with ``ast``: every name an ``import`` statement binds in
``src/smoothmusic/*.py`` must occur as a name somewhere else in that module.
Exempt are ``from __future__`` imports, the commented side-effect imports of
numpy submodules that numpy would otherwise load lazily inside a command, and
``__init__.py``, whose imports are the package's re-exports.  Every entry of
a module's ``__all__``, ``__init__.py``'s included, must be bound at its top
level, so a deleted name cannot linger there.  Every module-level
``_private`` function must be called or named somewhere in ``src/`` outside
its own body, so a helper that a refactor left without callers fails here.
"""

import ast
import collections
import pathlib
import re

import smoothmusic

SIDE_EFFECT_IMPORTS = {"numpy.fft", "numpy.ma", "numpy.random"}


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None and alias.name in SIDE_EFFECT_IMPORTS:
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used)


def _stale_exports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound, exported = set(), None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = [(e.value, e.lineno) for e in node.value.elts]
    if exported is None:
        return [f"{path.name}: no __all__"]
    return sorted(f"{path.name}:{line}: {name}" for name, line in exported if name not in bound)


PACKAGE = pathlib.Path(smoothmusic.__file__).parent


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {PACKAGE}"
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == [], "unused imports:\n" + "\n".join(unused)


def test_every_all_entry_is_a_top_level_binding():
    stale = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in _stale_exports(path)]
    assert stale == [], "__all__ names no top-level binding:\n" + "\n".join(stale)


def _names_read(node):
    """Every name read in node's subtree, as a name or an attribute."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_private_function_is_referenced_in_src():
    """A recursive call does not count: the reference must come from
    outside the function's own definition."""
    readers = collections.Counter()  # name -> top-level statements in src/ that read it
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            names = _names_read(node)
            readers.update(names)
            if isinstance(node, ast.FunctionDef) and re.match(r"_[^_]", node.name):  # not dunder
                private.append((f"{path.name}:{node.lineno}: {node.name}", node.name, names))
    orphans = [where for where, name, own in private if readers[name] == (name in own)]
    assert orphans == [], "private functions nothing in src/ refers to:\n" + "\n".join(orphans)
