"""Every public name that a guarded module defines has a caller in the
package: the element-set toolkit only the tests use lives in
`tests/reference_elements.py`, not in `src`. The guard covers `engine`,
`sggi`, `classifier`, `toddcox`, `errors` and `cli`; `families`, `words`,
`atlas` and `poset` still hold public names that only the tests call.

The modules are parsed with `ast`, not imported. A name counts as called
when some top-level statement of a package module other than its own
definition reads it, as a bare name or as an attribute (`engine.point_orbit`);
imports alone do not count, and `__init__.py` is left out, since its
re-exports call nothing.
"""

import ast
from pathlib import Path

import tightpoly

SRC = Path(tightpoly.__file__).parent
GUARDED = ("engine", "sggi", "classifier", "toddcox", "errors", "cli")
# perfbench/run.py traces `engine.closure_perms` by name and its self-test
# counts the calls, so the function stays, with the cap it defaults to, until
# the benchmark drops it from its targets. References from inside these
# definitions keep nothing else alive.
ALLOWED = {"engine": {"closure_perms", "DEFAULT_ELEMENT_CAP"}}


def defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def read_names(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def uncalled(sources: dict[str, str]) -> list[str]:
    """`module.name` for each public top-level name of a guarded module that
    no other top-level statement reads, the allowed ones excepted."""
    statements = [
        (module, defined_names(stmt), read_names(stmt))
        for module, text in sources.items()
        for stmt in ast.parse(text).body
    ]
    missing = []
    for module in GUARDED:
        allowed = ALLOWED.get(module, set())
        public = set().union(*(d for m, d, _ in statements if m == module))
        for name in sorted(n for n in public - allowed if not n.startswith("_")):
            if not any(
                name in reads
                and not (m == module and name in defs)
                and not defs & ALLOWED.get(m, set())
                for m, defs, reads in statements
            ):
                missing.append(f"{module}.{name}")
    return missing


def test_every_public_name_of_a_guarded_module_has_a_caller_in_src():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert set(GUARDED) <= set(sources)
    assert uncalled(sources) == []


def test_guard_reports_a_name_only_an_allowed_definition_reads():
    sources = {
        "engine": (
            "DEFAULT_ELEMENT_CAP = 1\n"
            "HELPER = 2\n"
            "def closure_perms():\n    return DEFAULT_ELEMENT_CAP + HELPER\n"
            "def used():\n    return used_too()\n"
            "def used_too():\n    pass\n"
            "def recursive():\n    return recursive()\n"
        ),
        "sggi": "from .engine import recursive\nclass Verdict:\n    pass\n",
        "cli": "from . import engine, sggi\nengine.used()\n",
    }
    assert uncalled(sources) == ["engine.HELPER", "engine.recursive", "sggi.Verdict"]
