"""Orphan guard: every public module-level function in ``src/`` has a caller there.

A function counts as called when some ``Name`` or ``Attribute`` node in
``src/`` outside its own body spells its name; docstrings and comments are
not code, so a mention there does not count.  The functions with no such
reference are listed in ``ORPHANS``, each with the ROADMAP item that pins or
decides it.  A new orphan fails this test, and so does an entry whose
function has gained a caller or is gone.
"""

import ast
import pathlib

import plaquette_qgauge

SRC = pathlib.Path(plaquette_qgauge.__file__).resolve().parent

#: ``module.function`` -> the ROADMAP item that pins or decides it
ORPHANS = {
    "theta.theta3": "item 2",
    "characters.char_real": "item 2",
    "characters.char_l2": "item 2",
    "characters.haar_density": "item 2",
    "characters.l2_inner_product": "item 2",
    "spectrum.eigenstate": "item 2",
    "characters.char_complex": "item 6",
    "characters.peter_weyl_constant": "item 6",
    "costratified.vertex_evaluation": "item 6",
    "costratified.project": "item 6",
    "costratified.vanishing_basis": "item 6",
    "mathieu.se_second_derivative": "item 5",
}


def _names(node: ast.AST) -> set[str]:
    """The names that ``Name`` and ``Attribute`` nodes under ``node`` spell."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def orphans(src: pathlib.Path = SRC) -> set[str]:
    """``module.function`` of each public module-level function nothing in ``src`` references."""
    defined, referenced = set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _names(node)
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.add((path.stem, node.name))
                names.discard(node.name)  # recursion is not a caller
            referenced |= names
    return {f"{module}.{name}" for module, name in defined if name not in referenced}


def test_orphans_are_exactly_the_listed_ones():
    found = orphans()
    assert sorted(found - ORPHANS.keys()) == [], "new functions with no caller in src/"
    assert sorted(ORPHANS.keys() - found) == [], "listed orphans that have a caller or are gone"


def test_a_function_with_no_caller_is_found(tmp_path):
    # the guard itself: a copy of src/ with one more uncalled function, and a
    # docstring that names it, reports it
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "theta.py", "a", encoding="utf-8") as handle:
        handle.write('\n\ndef unused_helper():\n    """Not ``unused_helper``."""\n    return unused_helper\n')
    assert orphans(tmp_path) == ORPHANS.keys() | {"theta.unused_helper"}
