"""No function may rebind a module-level name, bar two allowed seams.

A ``global`` statement is how a process-wide default switch is built:
one caller flips it and every later call in the process, in any test,
sees the flip.  Per-call settings travel in :class:`repro.AnalysisOptions`
instead.  Two rebindings remain, each a seam rather than a default:

* ``symbolic/context._NONNEG_RECORD`` — the hook a plan recorder arms to
  observe every ``is_nonneg`` query of one build;
* ``ir/interp._VECTOR_ENABLED`` — the switch tests use to reach the
  interpreted reference the vectorized paths are compared against.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
ALLOWED = {
    ("symbolic/context.py", "_NONNEG_RECORD"),
    ("ir/interp.py", "_VECTOR_ENABLED"),
}


def rebindings(path: Path, root: Path = PACKAGE) -> list:
    """``(relative path, name, line)`` for every ``global`` name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    rel = path.relative_to(root).as_posix()
    return [
        (rel, name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
        for name in node.names
    ]


def test_no_global_rebinding_outside_the_allowed_seams():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found.extend(
            hit for hit in rebindings(path) if hit[:2] not in ALLOWED
        )
    assert found == []


def test_guard_catches_a_default_switch(tmp_path):
    bad = tmp_path / "knob.py"
    bad.write_text(
        "_MODE = 'fast'\n"
        "def _set_mode_default(mode):\n"
        "    global _MODE\n"
        "    _MODE = mode\n"
    )
    assert rebindings(bad, tmp_path) == [("knob.py", "_MODE", 3)]
