"""No module of src/matcat or tests imports a name it neither uses nor
exports, and every file matcat writes has one layout.

The checks parse each module with ast: an imported name counts as used when
the module reads it anywhere, or lists it in __all__.  No module imports a
serializer (json, pickle, marshal, shelve), and only core, whose
write_checked writes every catalogue and checkpoint, calls os.replace.
Every worker pool is opened by a with statement, whose exit terminates it:
close() and join() would first run every task already queued, so a budget
stop inside a level would wait for the whole level.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "matcat"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


SERIALIZERS = {"json", "pickle", "marshal", "shelve"}


def _layout_breaches(tree, module):
    """Serializers imported anywhere, and os.replace used outside core."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dotted += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            dotted.append(ast.unparse(node))
    return [name for name in dotted if name.split(".")[0] in SERIALIZERS
            or name == "os.replace" and module != "core"]


def test_one_file_layout():
    breaches = [
        f"{path.name}: {breach}"
        for path in sorted(SRC.glob("*.py"))
        for breach in _layout_breaches(ast.parse(path.read_text()), path.stem)
    ]
    assert breaches == []


def test_a_second_file_layout_is_found():
    tree = ast.parse("import json\nfrom os import replace\nos.replace(a, b)\n")
    assert _layout_breaches(tree, "core") == ["json"]
    assert _layout_breaches(tree, "paving") == ["json", "os.replace", "os.replace"]


def _unmanaged_pools(tree):
    """Lines of Pool(...) calls that are neither the context expression of a
    with nor a branch of a conditional one."""
    managed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.withitem):
            expr = node.context_expr
            branches = (expr.body, expr.orelse) if isinstance(expr, ast.IfExp) else (expr,)
            managed.update(map(id, branches))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("Pool")
            and id(node) not in managed]


def test_every_pool_is_a_with():
    pools = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _unmanaged_pools(ast.parse(path.read_text()))
    ]
    assert pools == []


def test_a_pool_outside_a_with_is_found():
    tree = ast.parse(
        "with multiprocessing.Pool(2) as pool: pass\n"
        "with (Pool(2) if jobs > 1 else nullcontext()) as pool: pass\n"
        "pool = multiprocessing.Pool(2)\n"
        "with closing(Pool(2)) as pool: pass\n"
    )
    assert _unmanaged_pools(tree) == [3, 4]


def test_no_unused_imports():
    unused = [
        f"{path.parent.name}/{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert unused == []


def test_an_unused_import_is_found():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom .core import bits, mask_of\n"
        "from .canon import certificate\n__all__ = ['certificate']\n"
        "mask_of(np.int8(os.sep))\n"
    )
    assert _unused_imports(tree) == [(3, "bits")]
