"""Every function, method and class defined in src/piq is used somewhere.

A definition counts as used when its name is referenced outside its own
body, in src/, tests/ or perfbench/: as a name, as an attribute, or in a
``"module:attribute"`` string such as the layer tables of
``perfbench/layertrace.py``.  Dunder methods are exempt, since Python calls
them through syntax rather than by name.  A method must moreover be
referenced as an attribute or in such a string, since a bare name of the
same spelling, such as a local variable, cannot reach it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = re.compile(r"^[\w.]+:([\w.]+)$")


def _references(node) -> Counter:
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            m = _SPEC.match(n.value)
            if m:
                refs.update(m.group(1).split("."))
    return refs


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_is_referenced():
    everywhere = Counter()
    for _, tree in _trees("src", "tests", "perfbench"):
        everywhere += _references(tree)
    unused = []
    for path, tree in _trees("src/piq"):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] - _references(node)[name] <= 0:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "defined but never referenced: " + ", ".join(unused)


def _attribute_references(node) -> Counter:
    """Names used as ``x.name`` or in a ``"module:Class.name"`` string."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            m = _SPEC.match(n.value)
            if m:
                refs.update(m.group(1).split(".")[1:])
    return refs


def test_every_method_is_referenced_as_an_attribute():
    everywhere = Counter()
    for _, tree in _trees("src", "tests", "perfbench"):
        everywhere += _attribute_references(tree)
    unused = []
    for path, tree in _trees("src/piq"):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if everywhere[name] - _attribute_references(node)[name] <= 0:
                    unused.append(f"{path.relative_to(ROOT)} {cls.name}.{name}")
    assert not unused, "methods never referenced as attributes: " + ", ".join(unused)
