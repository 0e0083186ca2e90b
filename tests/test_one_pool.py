"""The program has one worker pool.

``utils._worker_pool`` is the only place that builds a process pool, and
``utils._run_units`` the only one that handles a dead worker; callers hand
it units split by ``utils._blocks``.
"""

import ast
from pathlib import Path

from compresslearn.utils import _blocks

SRC = Path(__file__).resolve().parents[1] / "src" / "compresslearn"


def _name(node) -> str:
    """The bare name of a ``Name`` or the last part of an ``Attribute``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _walk(node, where):
    """Each node under ``node`` with the name of its innermost enclosing
    function (``where`` outside any)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _walk(child, child.name)
        else:
            yield child, where
            yield from _walk(child, where)


def places(kind, name: str) -> set:
    """``(module, function)`` for each node of type ``kind`` in ``src/``
    that names ``name``: a call, an ``except`` clause or a ``raise``."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node, where in _walk(tree, "<module>"):
            if not isinstance(node, kind):
                continue
            if kind is ast.Call:
                named = [node.func]
            elif kind is ast.ExceptHandler:
                named = node.type.elts \
                    if isinstance(node.type, ast.Tuple) else [node.type]
            else:
                exc = node.exc
                named = [exc.func if isinstance(exc, ast.Call) else exc]
            if name in {_name(n) for n in named}:
                found.add((str(path.relative_to(SRC)), where))
    return found


def test_only_the_worker_pool_builds_a_process_pool():
    assert places(ast.Call, "ProcessPoolExecutor") \
        == {("utils.py", "_worker_pool")}


def test_only_run_units_handles_a_dead_worker():
    assert places(ast.ExceptHandler, "BrokenProcessPool") \
        == {("utils.py", "_run_units")}
    assert places(ast.Raise, "WorkerPoolError") \
        == {("utils.py", "_run_units")}


def test_blocks_cover_the_range_in_order():
    for n in (1, 5, 7, 257):
        for parts in (1, 2, 3, 8):
            blocks = _blocks(n, parts)
            assert 1 <= len(blocks) <= parts
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(a < b for a, b in blocks)
            assert all(b == c for (_, b), (c, _) in zip(blocks, blocks[1:]))
            sizes = [b - a for a, b in blocks]
            assert max(sizes) - min(sizes) <= 1
