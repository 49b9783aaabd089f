"""No process-global memo may live outside ``repro.memo``.

Every memo of a pure function is a bank of the :mod:`repro.memo`
registry, so one switch, one eviction rule and one snapshot cover them
all.  This scan fails on a ``functools.lru_cache``/``functools.cache``
anywhere in the package, or on a module-level ``*_CACHE``/``*_MEMO``/
``*_BANKS`` dict, outside ``repro/memo.py``.  (The expression intern
table is a ``WeakValueDictionary``, not a memo, and is not matched.)
"""

import ast
import re
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
MEMO_NAME = re.compile(r"_(CACHE|MEMO|BANKS)$")
FORBIDDEN_DECORATORS = {"lru_cache", "cache"}


def _is_dict(value, annotation=None) -> bool:
    if isinstance(annotation, ast.Name) and annotation.id == "dict":
        return True
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        return name in {"dict", "OrderedDict", "defaultdict"}
    return False


def violations(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in FORBIDDEN_DECORATORS:
                    found.append(f"{path}:{node.lineno} imports {alias.name}")
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FORBIDDEN_DECORATORS
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            found.append(f"{path}:{node.lineno} uses functools.{node.attr}")
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value, annotation = node.targets, node.value, None
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
            annotation = node.annotation
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and MEMO_NAME.search(target.id)
                and _is_dict(value, annotation)
            ):
                found.append(f"{path}:{node.lineno} module-level {target.id}")
    return found


def test_no_memo_outside_the_registry():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path != PACKAGE / "memo.py":
            found.extend(violations(path))
    assert found == []


def test_guard_catches_each_forbidden_shape(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import functools\n"
        "from functools import lru_cache\n"
        "_SUBS_CACHE: dict = {}\n"
        "_COMPILE_MEMO = dict()\n"
        "_BANKS = {}\n"
        "_INTERN = weakref.WeakValueDictionary()\n"
        "@functools.cache\n"
        "def f(x):\n"
        "    return x\n"
    )
    found = violations(bad)
    assert len(found) == 5
    assert not any("_INTERN" in line for line in found)
