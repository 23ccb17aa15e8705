"""Every function, class and constant in the package is exported or referenced.

A module-level function, class or constant is referenced by a name read
in src/, tests/ or perfbench/, an import alias, __all__, or a dotted name
the benchmark's tracer looks up by string (perfbench/tracing.SPANS); an
attribute that happens to share its name does not count.  A method or a
nested definition may also be referenced by an attribute name.  Dunder
names are called or read by Python itself and are exempt.  Every parameter
is read by its function, and every default is overridden, by position or
keyword, by some call in src/, tests/ or perfbench/.  Every module-level
import of a package module other than __init__.py is used by a name in
that module.  Report entries are built by report.check, never as
a dict literal elsewhere, and a check's verdict is a constant True only at
the known sites that certify nothing yet.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qmodalg"


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("qmodalg/__init__.py defines no __all__")


def _traced_names():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return {
                part
                for const in ast.walk(node.value)
                if isinstance(const, ast.Constant) and isinstance(const.value, str)
                for part in const.value.split(".")
            }
    raise AssertionError("perfbench/tracing.py defines no SPANS")


def _references():
    """(names read or imported, attribute names) over src, tests, perfbench."""
    names, attrs = _traced_names(), set()
    for _, tree in _trees("src", "tests", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
                if node.asname:
                    names.add(node.asname)
    return names, attrs


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, line, module level?) of every function and class, and of every
    name a module-level assignment binds."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    top = set()
    for node in tree.body:
        if isinstance(node, defs):
            top.add(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield name.id, node.lineno, True
    for node in ast.walk(tree):
        if isinstance(node, defs):
            yield node.name, node.lineno, node in top


def test_every_definition_is_exported_or_referenced():
    names, attrs = _references()
    names |= _exported()
    anywhere = names | attrs
    unused = []
    for path, tree in _trees("src/qmodalg"):
        for name, line, module_level in _definitions(tree):
            if name not in (names if module_level else anywhere) and not _is_dunder(name):
                unused.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not unused, "defined but never used:\n" + "\n".join(unused)


def test_every_module_import_is_used():
    unused = []
    for path, tree in _trees("src/qmodalg"):
        if path.name == "__init__.py":
            continue
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for name, line in sorted(imported.items()):
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_report_entries_are_built_by_check():
    literals = []
    for path, tree in _trees("src/qmodalg"):
        if path.name == "report.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "citation" for key in node.keys
            ):
                literals.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not literals, "report entries written as dict literals:\n" + "\n".join(literals)


# (module, function) of each check(...) whose verdict is the constant True;
# turning those entries into checks that can fail shrinks this list
LITERAL_TRUE_VERDICTS = {
    ("algebras", "printed_rule_diffs"),
    ("cli", "suite_oracle_diff"),
}


def _calls(node, function=None):
    """(innermost enclosing function name, call) for every call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield function, child
        yield from _calls(child, function)


def _verdict(call):
    """The verdict argument of a report.check(citation, instance, ok) call."""
    if len(call.args) >= 3:
        return call.args[2]
    return next((k.value for k in call.keywords if k.arg == "ok"), None)


def test_no_new_check_holds_a_literal_true_verdict():
    found = {
        (path.stem, function)
        for path, tree in _trees("src/qmodalg")
        for function, call in _calls(tree)
        if isinstance(call.func, ast.Name)
        and call.func.id == "check"
        and isinstance(_verdict(call), ast.Constant)
        and _verdict(call).value is True
    }
    assert found == LITERAL_TRUE_VERDICTS


def test_every_parameter_is_read():
    # a parameter no caller can influence the result through is dead weight;
    # dunder methods take what Python passes them
    unread = []
    for path, tree in _trees("src/qmodalg"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_dunder(node.name):
                    continue
                name, body = node.name, node.body
            elif isinstance(node, ast.Lambda):
                name, body = "<lambda>", [node.body]
            else:
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for p in params:
                if p not in read and p not in ("self", "cls"):
                    unread.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}({p})")
    assert not unread, "parameters never read:\n" + "\n".join(unread)


def _defaulted(tree):
    """(function, line, parameter, its position, method offset) for every
    parameter with a default of every non-dunder function in the tree; the
    offset is 1 for a method called through an attribute, whose instance
    fills the first position."""
    static = lambda node: any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
    )
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not static(node)
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_dunder(node.name):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        offset = 1 if id(node) in methods else 0
        for pos in range(len(positional) - len(a.defaults), len(positional)):
            yield node.name, node.lineno, positional[pos].arg, pos, offset
        for p, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield node.name, node.lineno, p.arg, None, offset


def _passed(call, param, pos, offset):
    """Whether the call passes the parameter, by position or by keyword."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if pos is None:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    shift = offset if isinstance(call.func, ast.Attribute) else 0
    return len(call.args) + shift > pos


def test_every_default_is_overridden_by_some_call():
    # a default that no call overrides is a constant dressed as an option
    calls = {}
    for _, tree in _trees("src", "tests", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    never = []
    for path, tree in _trees("src/qmodalg"):
        for name, line, param, pos, offset in _defaulted(tree):
            if not any(_passed(c, param, pos, offset) for c in calls.get(name, ())):
                never.append(f"{path.relative_to(ROOT)}:{line} {name}({param})")
    assert not never, "defaults no call overrides:\n" + "\n".join(never)
