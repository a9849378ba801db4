import ast
from pathlib import Path

import amrsg
from amrsg.amr import AmrGraph


def test_every_public_name_resolves():
    for name in amrsg.__all__:
        assert getattr(amrsg, name) is not None, name


def test_test_only_names_are_not_public():
    assert "validate" not in amrsg.__all__
    assert not hasattr(amrsg, "validate")


def _module_level_names(tree: ast.Module):
    """Each name a module's top-level statements bind: definitions, imports and
    every name of an assignment target, so ``_A, _B = ...`` gives two."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_private_module_name_is_read_in_its_module():
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    unused = []
    for path in sorted([*Path(amrsg.__file__).parent.glob("*.py"), *scripts.glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for name in _module_level_names(tree):
            private = name.startswith("_") and not name.endswith("__")
            if private and name not in read:
                unused.append(f"{path.name}:{name}")
    assert unused == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    for path in sorted(Path(amrsg.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_only_amr_names_the_private_members_of_amr_graph():
    # the edges' flat storage, and what builds a graph from it, stay behind
    # amr.py: every other module reads the edges through ``graph.edges`` or
    # ``amr.iter_edges``
    private = {name for name in vars(AmrGraph) if name.startswith("_") and not name.endswith("__")}
    assert private
    root = Path(__file__).resolve().parent.parent
    package = Path(amrsg.__file__).parent
    paths = [*package.glob("*.py"), *(p for d in ("tests", "scripts", "bench") for p in (root / d).glob("*.py"))]
    assert package / "amr.py" in paths and len(paths) > 20
    named = []
    for path in sorted(paths):
        if path == package / "amr.py":
            continue
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (
                n.attr if isinstance(n, ast.Attribute)
                else n.id if isinstance(n, ast.Name)
                else n.value if isinstance(n, ast.Constant) and isinstance(n.value, str)
                else None
            )
            if name in private:
                named.append(f"{path.relative_to(root)}:{n.lineno}: {name}")
    assert named == []


# A fragment of each message the AmrGraph constructor raises for an edge order
# that no PENMAN text gives; parse_penman's own depth error lacks the ": ".
EDGE_ORDER_MESSAGES = [
    ": its source is not an open node",
    ": nesting deeper than ",
    ": its target is a variable that is not a node",
    "nodes never reached from the root: ",
]


def test_each_edge_order_message_is_written_once():
    # one checker of the edge order: a second copy of a message would mean a
    # second place that checks it
    literals = [
        (path.name, n.value)
        for path in sorted(Path(amrsg.__file__).parent.glob("*.py"))
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]
    for message in EDGE_ORDER_MESSAGES:
        assert [name for name, value in literals if message in value] == ["amr.py"], message
