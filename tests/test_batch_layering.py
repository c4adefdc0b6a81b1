"""``repro.batch`` reads no other module's private attributes.

The batched engine is built from what :class:`CompiledTape` publishes
(``instructions``, ``shapes``, ``carries``, ...) and asks the model for
``proven_tape()``; it used to reach into nine underscore attributes of
``CompiledTape``, ``CompiledFunction`` and the model instead, so every
change to the tape's layout was a change to ``batch/engine.py`` too. This
walks the package's source so that coupling cannot quietly grow back: an
attribute access ``x._name`` is allowed only on ``self``/``cls`` or on a
local instance of a class defined in the same file.
"""

import ast
from pathlib import Path

BATCH = Path(__file__).resolve().parents[1] / "src" / "repro" / "batch"


def _own_instances(tree: ast.Module) -> set:
    """Names bound, anywhere in the file, to ``ClassDefinedHere(...)`` —
    by assignment, annotation, or as an annotated argument."""
    classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}

    def is_own(node) -> bool:
        if isinstance(node, ast.Call):
            node = node.func
        return isinstance(node, ast.Name) and node.id in classes

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_own(node.value):
            names.update(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
        elif isinstance(node, ast.AnnAssign) and is_own(node.annotation):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            if is_own(node.annotation):
                names.add(node.arg)
    return names


def private_reads(source: str) -> list:
    tree = ast.parse(source)
    allowed = {"self", "cls"} | _own_instances(tree)
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in allowed)
    ]


def test_the_guard_sees_what_it_should():
    source = (
        "class Mine:\n"
        "    def f(self, other, mine: Mine):\n"
        "        own = Mine()\n"
        "        return self._a, own._b, mine._c, other._d, other.e._f\n"
    )
    assert private_reads(source) == [
        "line 4: other._d", "line 4: other.e._f",
    ]


def test_batch_reads_no_foreign_private_attribute():
    offences = {
        path.name: found
        for path in sorted(BATCH.glob("*.py"))
        if (found := private_reads(path.read_text()))
    }
    assert not offences, offences
