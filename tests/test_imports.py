"""Every module-level import under ``src/floodnowcast/`` is used by its module,
every name a module exports is one it defines, every private module-level
name (one leading underscore) is read by some module, and every parameter
default is overridden by some call under ``src/`` (else it is a constant).

No linter ships with the project, so this stands in for pyflakes' unused-import
and undefined-export checks with the stdlib ``ast`` module. A name counts as
used when the module reads it anywhere (annotations included) or lists it in
``__all__``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "floodnowcast"

# The benchmark's tracer (perfbench/tracing.py) wraps `forward` and `window_batch`
# where `cli` binds them, so they stay importable there although `cli` itself no
# longer calls them; the console script calls `main()` with no argument.
ALLOWED = {("cli", "forward"), ("cli", "window_batch"), ("cli", "main", "argv")}


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


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call under ``src/``, by the name it calls (``f(...)`` and ``x.f(...)``)."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _defaults(tree: ast.Module):
    """``(name, parameter, positional index or None)`` of every parameter with a
    default, for each function and method of the module; a method's index
    leaves out ``self``/``cls``, and ``__init__`` goes by its class's name."""
    owners = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
              for f in c.body if isinstance(f, ast.FunctionDef)}
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        owner = owners.get(id(func))
        name = owner.name if owner and func.name == "__init__" else func.name
        positional = func.args.posonlyargs + func.args.args
        skip = 1 if owner else 0
        first = len(positional) - len(func.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield name, arg.arg, i - skip
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passes(call: ast.Call, param: str, index) -> bool:
    """Whether ``call`` passes ``param``: by keyword, by position, or through
    ``*``/``**``, which count as passing everything."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_default_is_passed_by_some_caller():
    trees = _modules()
    calls = _calls(trees.values())
    unpassed = [f"{path.name}: {name}({param}=...)" for path, tree in trees.items()
                for name, param, index in _defaults(tree)
                if (path.stem, name, param) not in ALLOWED
                and not any(_passes(c, param, index) for c in calls.get(name, []))]
    assert not unpassed, ("defaults no call under src/ passes; make them constants:\n"
                          + "\n".join(unpassed))
