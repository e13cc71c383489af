"""The package keeps only what runs: every public function, class and method
defined in src/manychain is referenced elsewhere in src/, exported by
manychain/__init__.py, or named in perfbench/, and every private module-level
function or class is named somewhere in src/. Helpers only tests use live
in tests/testkit.py instead. A test's subclass of a model target defines
only methods its base defines, so none is a hook that nothing calls, and
in src/ only the checked API and the integrator reach the hook.

A reference is any name, attribute or imported name in the source, so a
method counts as used when any attribute of its name is read: the check
finds code that nothing names, and misses a method whose name another
object's attribute shares. The stricter method rule closes that gap: a
public method needs a call by its name, x.name(...), in src/ or perfbench/,
or a perfbench string that names it. Every CLI option needs a read by its
command, or a perfbench command that passes it."""

import argparse
import ast
from pathlib import Path

from manychain import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "manychain"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names(tree):
    """Every identifier the module reads: names, attributes and imported
    names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def _words(tree):
    """The dotted words of the module's string constants."""
    return {word for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for word in node.value.replace(".", " ").split()}


def _called(tree):
    """The attribute names the module calls, as x.name(...)."""
    return {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}


def _bench_trees():
    return [_tree(p) for p in sorted((ROOT / "perfbench").glob("*.py"))]


def _public_definitions(tree):
    """(qualified name, name) of each public module-level function or class
    and each public method of a module-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_definition_has_a_caller_an_export_or_a_benchmark_use():
    modules = {p: _tree(p) for p in sorted(PACKAGE.glob("*.py"))}
    exported = _names(modules[PACKAGE / "__init__.py"])
    used = set().union(*(_names(t) for p, t in modules.items() if p.name != "__init__.py"))
    bench = set().union(*(_names(t) | _words(t) for t in _bench_trees()))
    unused = [
        f"{path.name}:{qualname}"
        for path, tree in modules.items()
        for qualname, name in _public_definitions(tree)
        if name not in used | exported | bench
    ]
    assert not unused, f"public definitions nothing runs: {unused}"


def _is_property(node):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def test_every_public_method_is_called():
    """A public method of a public class in src/ is called by its name,
    x.name(...), in src/ or perfbench/, or a perfbench string names it (as
    the tracer's metric names do). A field or variable of the same name,
    such as batch.grad, is not a call. Properties are read, not called, and
    are left to the rule above."""
    modules = {p: _tree(p) for p in sorted(PACKAGE.glob("*.py"))}
    bench = _bench_trees()
    called = set().union(*map(_called, [*modules.values(), *bench]), *map(_words, bench))
    uncalled = [
        f"{path.name}:{node.name}.{item.name}"
        for path, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
        and not _is_property(item) and item.name not in called
    ]
    assert not uncalled, f"public methods nothing calls: {uncalled}"


def test_every_cli_option_is_read():
    """Every argument of every subcommand is read as args.<dest> by the
    command the subcommand runs, or passed by a perfbench/ command. sample's
    --stable-ratio selects nothing and no command reads it; it passes only
    because the regression-f32-stable workload passes it, and it goes once
    that workload's command drops it."""
    commands = {node.name: node for node in _tree(PACKAGE / "cli.py").body
                if isinstance(node, ast.FunctionDef)}
    bench = set().union(*map(_words, _bench_trees()))
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, sub in subparsers.choices.items():
        command = commands[sub.get_default("func").__name__]
        read = {node.attr for node in ast.walk(command)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"}
        unread += [f"{name} {action.dest}" for action in sub._actions
                   if action.dest != "help" and action.dest not in read
                   and not bench.intersection(action.option_strings)]
    assert subparsers.choices, "no subcommand, so nothing was checked"
    assert not unread, f"options no command reads: {unread}"


def test_every_private_definition_is_named_in_src():
    modules = {p: _tree(p) for p in sorted(PACKAGE.glob("*.py"))}
    named = set().union(*(_names(t) for t in modules.values()))
    unnamed = [
        f"{path.name}:{node.name}"
        for path, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and node.name not in named
    ]
    assert not unnamed, f"private definitions nothing in src/ names: {unnamed}"


def _base_name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_test_targets_override_only_names_their_base_defines():
    """A method that a test's subclass of Target, ModelTarget or
    GaussianTarget defines and its base does not (a hook since renamed in
    src/, say) is never called: the test would hold the base to itself."""
    classes = {node.name: node for node in _tree(PACKAGE / "model.py").body
               if isinstance(node, ast.ClassDef)}

    def defined(name):
        node = classes[name]
        own = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        return own.union(*(defined(b) for b in map(_base_name, node.bases) if b in classes))

    subclasses, strays = [], []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [b for b in map(_base_name, node.bases)
                     if b in ("Target", "ModelTarget", "GaussianTarget")]
            if not bases:
                continue
            subclasses.append(node.name)
            known = set(dir(object)).union(*map(defined, bases))
            strays += [f"{path.name}:{node.name}.{item.name}" for item in node.body
                       if isinstance(item, ast.FunctionDef) and item.name not in known]
    assert subclasses, "no test subclasses a target, so nothing was checked"
    assert not strays, f"methods that override nothing in their base: {strays}"


def _scoped(tree):
    """(dotted name of the innermost enclosing def or class, node) for every
    node below tree; "" at module level."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            yield inner, child
            yield from walk(child, inner)

    return walk(tree, "")


def test_only_the_checked_api_and_the_integrator_reach_the_hook():
    """Target.evaluate takes states as they are, unscanned, so in src/ only
    Target._checked (which scans them) and sampler._leapfrog (whose
    trajectory's ratio rejects a dead row) may read it, to call it or
    otherwise."""
    readers = {f"{path.stem}.{scope}"
               for path in sorted(PACKAGE.glob("*.py"))
               for scope, node in _scoped(_tree(path))
               if isinstance(node, ast.Attribute) and node.attr == "evaluate"}
    assert readers == {"model.Target._checked", "sampler._leapfrog"}
