"""Static checks on the package source, by the standard library's `ast` alone:
no import goes unused, at module level or inside a function, no private
module-level name is left without a reference in the package, no except
clause catches a broad exception class without a reason on ALLOWED, and no
module reads another module's class's slot setters without a reason on
SETTERS_ALLOWED."""

import ast
from pathlib import Path

import exactgroups

PACKAGE = Path(exactgroups.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _references(node):
    """Identifiers that `node` reads: names, attribute names, and the names
    imported from a module."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def _exported(tree):
    """The strings of a module-level `__all__` list."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)):
            return {elt.value for elt in stmt.value.elts}
    return set()


def _defined(stmt):
    """Names that a module-level statement binds, other than by import."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)}


def test_every_module_level_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        imports = [stmt for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))]
        used = set().union(*(_references(stmt) for stmt in tree.body
                             if stmt not in imports)) | _exported(tree)
        for stmt in imports:
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{name}:{stmt.lineno} {bound}")
    assert not unused, unused


def _local_imports(func):
    """The import statements of a function, outside the functions and
    classes nested in it."""
    found, todo = [], list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def test_every_function_local_import_is_used():
    # Library modules, cli's argparse paths and two `affine` handlers import
    # inside functions, so that a call loads only the modules it needs; each
    # such import must be read in its function (or in a function nested in
    # it).  The floor only guards against a vacuous pass: an import hoisted
    # to module level leaves this count, and
    # test_every_module_level_import_is_used checks it instead.
    unused, seen = [], 0
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            reads = {sub.id for sub in ast.walk(func)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            for stmt in _local_imports(func):
                for alias in stmt.names:
                    seen += 1
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in reads:
                        unused.append(f"{name}:{stmt.lineno} {func.name} {bound}")
    assert seen >= 26, seen
    assert not unused, unused


def test_every_private_module_level_name_is_referenced():
    # A reference counts when it lies outside the statement that binds the
    # name, in any module of the package: a helper that only calls itself is
    # still dead.
    reads = [(stmt, _references(stmt)) for tree in MODULES.values() for stmt in tree.body]
    unreferenced = []
    for name, tree in MODULES.items():
        for stmt in tree.body:
            for private in _defined(stmt):
                if not private.startswith("_") or private.startswith("__"):
                    continue
                if not any(private in refs for other, refs in reads if other is not stmt):
                    unreferenced.append(f"{name}:{stmt.lineno} {private}")
    assert not unreferenced, unreferenced


# Exception classes that a library defect raises as readily as a caller's
# bad value: a clause that catches one would report the defect as something
# else.  A bare `except:` counts as BaseException.
BROAD = {"BaseException", "Exception", "KeyError", "TypeError", "ValueError"}
# (module, function, classes caught) -> why that clause may catch them.
ALLOWED = {
    ("serialize.py", "scalar_to_str", ("ValueError",)):
        "str() of an int past the int/str digit limit, reworded as a precondition",
    ("serialize.py", "parse_int", ("ValueError",)):
        "int() of a digit string past the int/str digit limit, reworded as bad input",
    ("cli.py", "_table_parse", ("Exception",)):
        "a flag value that does not convert sends the argv on to argparse, which reports it",
    ("cli.py", "run", ("Exception",)):
        "the last resort: a defect ends the call as one `error: internal` line, exit 3",
}


def _handlers(node, func=None):
    """(enclosing function name, except clause) for each clause under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _handlers(child, child.name)
            continue
        if isinstance(child, ast.ExceptHandler):
            yield func, child
        yield from _handlers(child, func)


def _caught(handler):
    if handler.type is None:
        return ("BaseException",)
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return tuple(ast.unparse(t) for t in types)


def test_every_broad_except_clause_is_allowed():
    # Malformed input is refused by serialize's readers as InputError, so no
    # clause needs to catch KeyError, TypeError or ValueError on its behalf.
    found = {}
    for name, tree in MODULES.items():
        for func, handler in _handlers(tree):
            if BROAD.intersection(caught := _caught(handler)):
                found[name, func, caught] = handler.lineno
    unexplained = {key: line for key, line in found.items() if key not in ALLOWED}
    assert not unexplained, unexplained
    assert found.keys() == ALLOWED.keys(), set(ALLOWED) - set(found)


# (module, class) -> why the module may read `class._setters`, the slot
# setters that write a field past the class's own checks.
SETTERS_ALLOWED = {
    ("affine.py", "Matrix"):
        "AffineElement._trusted builds the int product's linear part; through "
        "Matrix._of it costs about 5% of an int-words automorphism op",
}


def _setter_reads(node, owner=None):
    """(receiver, line) of each read of `X._setters` under node; `self` and
    `cls` stand for the class whose body they are in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _setter_reads(child, child.name)
            continue
        if (isinstance(child, ast.Attribute) and child.attr == "_setters"
                and isinstance(child.ctx, ast.Load)):
            receiver = ast.unparse(child.value)
            yield (owner if receiver in ("self", "cls") else receiver), child.lineno
        yield from _setter_reads(child, owner)


def test_slot_setters_are_read_where_their_class_is_defined():
    found = {}
    for name, tree in MODULES.items():
        classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        for receiver, line in _setter_reads(tree):
            if receiver not in classes:
                found[name, receiver] = line
    unexplained = {key: line for key, line in found.items() if key not in SETTERS_ALLOWED}
    assert not unexplained, unexplained
    assert found.keys() == SETTERS_ALLOWED.keys(), set(SETTERS_ALLOWED) - set(found)
