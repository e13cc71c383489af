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
object's attribute shares."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "manychain"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names(tree, strings=False):
    """Every identifier the module reads: names, attributes, imported names
    and, with strings, the dotted words of string constants."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.replace(".", " ").split())
    return out


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
    bench = set().union(*(_names(_tree(p), strings=True)
                          for p in sorted((ROOT / "perfbench").glob("*.py"))))
    unused = [
        f"{path.name}:{qualname}"
        for path, tree in modules.items()
        for qualname, name in _public_definitions(tree)
        if name not in used | exported | bench
    ]
    assert not unused, f"public definitions nothing runs: {unused}"


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
