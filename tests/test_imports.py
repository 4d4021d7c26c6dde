"""Every module-level import under ``src/floodnowcast/`` is used by its module,
every name a module exports is one it defines, and every private module-level
name (one leading underscore) is read by some module.

No linter ships with the project, so this stands in for pyflakes' unused-import
and undefined-export checks with the stdlib ``ast`` module. A name counts as
used when the module reads it anywhere (annotations included) or lists it in
``__all__``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "floodnowcast"

# The benchmark's tracer (perfbench/tracing.py) wraps these where `cli` binds them,
# so they stay importable there although `cli` itself no longer calls them.
ALLOWED = {("cli", "forward"), ("cli", "window_batch")}


def _imported(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _bound(tree: ast.Module):
    """``(line, name)`` of every function, class and assigned name the module
    binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((node.lineno, n.id) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def _defined(tree: ast.Module) -> set[str]:
    """Names the module binds at its top level, imports included."""
    return {name for _, name in (*_imported(tree), *_bound(tree))}


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | set(_exported(tree))


def _modules() -> dict[Path, ast.Module]:
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no modules under {SRC}"   # else every check here passes vacuously
    return trees


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path, tree in _modules().items():
        used = _used(tree)
        unused += [f"{path.name}:{line}: {name}" for line, name in _imported(tree)
                   if name not in used and (path.stem, name) not in ALLOWED]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_every_exported_name_is_defined_once():
    wrong = []
    for path, tree in _modules().items():
        exported, defined = _exported(tree), _defined(tree)
        wrong += [f"{path.name}: {name} is not defined" for name in exported
                  if name not in defined]
        wrong += [f"{path.name}: {name} is listed {exported.count(name)} times"
                  for name in sorted(set(exported)) if exported.count(name) > 1]
    assert not wrong, "bad __all__ entries:\n" + "\n".join(wrong)


def _read(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def test_no_private_name_is_left_unused():
    trees = _modules()
    read = set().union(*map(_read, trees.values()))
    unused = [f"{path.name}:{line}: {private}" for path, tree in trees.items()
              for line, private in _bound(tree)
              if private.startswith("_") and not private.startswith("__")
              and private not in read]
    assert not unused, "private names no module reads:\n" + "\n".join(unused)
