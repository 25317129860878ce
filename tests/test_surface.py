"""Every public name of the library has a caller outside the tests.

A top-level public definition of src/rmclass, or a name the package's
__init__ exports, passes if one of these holds:

  * another top-level statement of the library references it: a statement
    of another module, or of its own module other than its own definition
    (__init__'s re-exports do not count);
  * a file of the benchmark in perfbench/ names it;
  * TEST_REFERENCES lists it, with the reason it stays although only the
    tests call it.

A name nothing calls is deleted, not kept.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rmclass"

TEST_REFERENCES = {
    "subgroup_order": "the chain order that certifies a stored generator set",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _defines(stmt):
    """Public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return {n for n in names if not n.startswith("_")}


def _references(tree):
    """Identifiers a subtree uses: names, attributes, imported names and
    identifier-like strings (the benchmark patches attributes by name)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def _surface():
    """(exported names, {name: module}, names without a library or
    benchmark caller)."""
    exported, defined, statements = set(), {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        if path.stem == "__init__":
            exported = {a.asname or a.name for node in tree.body
                        if isinstance(node, ast.ImportFrom) for a in node.names}
            continue
        for stmt in tree.body:
            names = _defines(stmt)
            defined.update(dict.fromkeys(names, path.stem))
            statements.append((names, _references(stmt)))
    called = set()
    for names, refs in statements:
        called |= refs - names
    for path in (ROOT / "perfbench").glob("*.py"):
        called |= _references(_parse(path))
    return exported, defined, set(defined) - called


def test_every_public_name_has_a_caller():
    exported, defined, uncalled = _surface()
    assert exported - {"__version__"} <= set(defined)
    orphans = sorted(f"{defined[n]}.{n}" for n in uncalled - set(TEST_REFERENCES))
    assert orphans == [], f"public names without a caller: {orphans}"


def test_test_references_are_current():
    # each entry is a library definition that the tests, and only they, call
    _exported, defined, uncalled = _surface()
    tests = set()
    for path in Path(__file__).parent.glob("*.py"):
        tests |= _references(_parse(path))
    for name, reason in TEST_REFERENCES.items():
        assert reason and name in defined, name
        assert name in uncalled, f"{name} has a library caller; drop its entry"
        assert name in tests, f"no test calls {name}"
