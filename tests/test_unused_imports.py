"""No module of the package imports a name it never uses.

A static scan with ``ast``: every name an ``import`` statement binds in
``src/smoothmusic/*.py`` must occur as a name somewhere else in that module.
Exempt are ``from __future__`` imports, the commented side-effect imports of
numpy submodules that numpy would otherwise load lazily inside a command, and
``__init__.py``, whose imports are the package's re-exports.
"""

import ast
import pathlib

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


def test_no_module_imports_a_name_it_never_uses():
    package = pathlib.Path(smoothmusic.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {package}"
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == [], "unused imports:\n" + "\n".join(unused)
