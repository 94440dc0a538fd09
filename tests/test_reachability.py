"""Every public module-level function of the package is reached by the CLI.

Names are walked by AST from the top-level statements of every module (the
op table and ``main`` of ``cli``, the catalog's ``_register`` calls) and
from the library helpers, through the body of each function or class they
name, to a fixed point.  A name counts where it is read bare and not bound
in the same body, as an attribute of one of the package's modules, or as a
string argument of a call, since ``cli._on`` binds an op to its function by
name.  A function that only the tests call belongs in the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ellis"

# public API that no op calls: the README's "Library helpers"
LIBRARY_HELPERS = {"hyperspace.hausdorff_distance", "symbolic.window_model"}


def _names(node, modules):
    subs = list(ast.walk(node))
    bound = {sub.arg for sub in subs if isinstance(sub, ast.arg)}
    bound |= {sub.id for sub in subs
              if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
    for sub in subs:
        if isinstance(sub, ast.Name) and sub.id not in bound:
            yield sub.id
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                and sub.value.id in modules):
            yield sub.attr
        elif isinstance(sub, ast.Call):
            yield from (a.value for a in sub.args
                        if isinstance(a, ast.Constant) and isinstance(a.value, str))


def public_functions(src=SRC):
    """(reached, unreached): the public module-level functions of the
    package at ``src``, as ``module.name``."""
    defs, roots = {}, []
    modules = {path.stem for path in src.glob("*.py")}
    aliases = set(modules)
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((path.stem, stmt))
            elif isinstance(stmt, ast.ImportFrom):   # `envelope as envelope_mod`
                aliases.update(a.asname for a in stmt.names if a.name in modules and a.asname)
            elif not isinstance(stmt, ast.Import):
                roots.append(stmt)
    reached = set()
    todo = [name.split(".")[1] for name in LIBRARY_HELPERS]
    todo += [name for stmt in roots for name in _names(stmt, aliases)]
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo.extend(n for _, node in defs[name] for n in _names(node, aliases))
    public = {(f"{module}.{name}", name in reached) for name, entries in defs.items()
              for module, node in entries
              if isinstance(node, ast.FunctionDef) and not name.startswith("_")}
    return ({f for f, hit in public if hit}, {f for f, hit in public if not hit})


def test_every_public_function_is_reached_from_the_cli():
    reached, unreached = public_functions()
    assert sorted(unreached - LIBRARY_HELPERS) == []
    assert LIBRARY_HELPERS <= reached | unreached
