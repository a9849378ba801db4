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


def _modules_writing(message: str) -> list[str]:
    """The module of each string literal in the package that holds ``message``."""
    return [
        path.name
        for path in sorted(Path(amrsg.__file__).parent.glob("*.py"))
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and message in n.value
    ]


def test_each_edge_order_message_is_written_once():
    # one checker of the edge order: a second copy of a message would mean a
    # second place that checks it
    for message in EDGE_ORDER_MESSAGES:
        assert _modules_writing(message) == ["amr.py"], message


def test_the_field_rule_message_is_written_once():
    # one checker of the field rule's message: the scene-graph constructor,
    # which sg_from_json falls back to for it
    assert _modules_writing("a field is a non-empty string with no surrounding whitespace") == ["scenegraph.py"]


def _package_nodes(predicate) -> list[str]:
    """``<module>:<enclosing class and function>`` of each node of the
    package's modules that ``predicate`` accepts."""
    found = []

    def visit(node: ast.AST, module: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if predicate(child):
                found.append(f"{module}:{inner}")
            visit(child, module, inner)

    for path in sorted(Path(amrsg.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return found


def _is_setattr_call(node: ast.AST, *aliases: str) -> bool:
    """A call of ``setattr``, or of a name in ``aliases``."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("setattr", *aliases)


def test_each_model_type_has_one_writer_of_its_slots():
    # the checking constructors hand off to the trusted ones, so what a later
    # slot needs is written in one place per type. Both types' __setattr__
    # raise, so each is written through object.__setattr__, bound once in its
    # writer to ``setattr_``; every setattr call counts.
    writes_a_model = _package_nodes(
        lambda n: isinstance(n, ast.Attribute) and n.attr == "__setattr__" or _is_setattr_call(n)
    )
    assert writes_a_model == ["amr.py:AmrGraph._from_fields", "scenegraph.py:SceneGraph._unchecked"]
    sections = {"objects", "attributes", "relations"}
    writes_a_section = _package_nodes(
        lambda n: isinstance(n, ast.Attribute) and n.attr in sections and not isinstance(n.ctx, ast.Load)
        or _is_setattr_call(n, "setattr_") and any(isinstance(a, ast.Constant) and a.value in sections for a in n.args)
    )
    assert writes_a_section == ["scenegraph.py:SceneGraph._unchecked"] * 3


def _is_empty_table(value: ast.expr | None) -> bool:
    """An empty dict display, or a ``dict()``, ``set()`` or ``list()`` call with no arguments."""
    if isinstance(value, ast.Dict):
        return not value.keys
    return (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id in ("dict", "set", "list") and not value.args and not value.keywords
    )


def test_one_symbol_table_and_no_sys_intern():
    # every reader stores its strings through scenegraph.SYMBOLS, the one table
    # a process keeps them in; sys.intern, or a second table, would keep a
    # second object per value. A module-level name bound to an empty container
    # is a table that grows for the life of the process.
    interns = _package_nodes(
        lambda n: isinstance(n, ast.Attribute) and n.attr == "intern"
        or isinstance(n, ast.ImportFrom) and n.module == "sys" and any(a.name == "intern" for a in n.names)
    )
    assert interns == []
    tables = [
        f"{path.name}:{target.id}"
        for path in sorted(Path(amrsg.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_empty_table(node.value)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]
    assert tables == ["scenegraph.py:SYMBOLS"]
