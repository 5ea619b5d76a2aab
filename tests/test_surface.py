"""Every public name in `tightpoly` has a caller in the package: the
element-set toolkit, the face-poset API and the paper's lemma checks that
only the tests use live in `tests/reference_elements.py`,
`tests/reference_poset.py` and `tests/paper_checks.py`, not in `src`.
The guard covers all ten modules: their top-level names, and the public
methods, properties and class-level annotated fields (the dataclass fields)
of their top-level classes.

The modules are parsed with `ast`, not imported. A name counts as called
when some live unit of a package module other than its own definition reads
it. A unit is live unless a name it defines is reported, so a name that only
reported names read is reported too: the guard runs to a fixpoint. A unit is
a top-level statement, except that each method and each field of a
top-level class is a unit of its own; a member's unit is also part of its
class's definition, so a class that names itself calls nothing. A top-level
name may be read as a bare name or as an attribute (`engine.point_orbit`);
a member only as an attribute (`poset.flag_count()`, `report.passed`), so a
local variable of the same name keeps no member alive. Members are matched
by name alone, so a member stays alive when any attribute of that name is
read. A class's `__init__` is the one private member the guard reports: it
is live only when a live unit outside the class calls the class by name
(`FacePoset(...)` or `poset.FacePoset(...)`), so a constructor that `src`
gets around, through `__new__` or otherwise, is reported with what only it
reads. Imports alone do not count, and `__init__.py` is left out, since its
re-exports call nothing. An entry point or allowed name is itself an
error when its module does not define it or a live unit outside the
allowed definitions already reads it, so no exception outlives its need.

The package uses only the standard library (`dependencies = []`): every
import in it, `__init__.py` and function-local imports included, is
relative or names a module in `sys.stdlib_module_names`.
"""

import ast
import sys
from pathlib import Path

import tightpoly

SRC = Path(tightpoly.__file__).parent
GUARDED = (
    "atlas", "classifier", "cli", "engine", "errors",
    "families", "poset", "sggi", "toddcox", "words",
)
# Entry points that nothing in `src` calls, each with the reader outside it
# that keeps it. They are roots, like any caller in `src`: the names they
# read count as called.
ENTRY_POINTS = {
    "words": {"gamma_pq_presentation": "the paper's Γ(p, q); the perfbench self-test builds it"},
    "atlas": {"load_atlas": "the atlas reader; CI reads every atlas and census file back with it"},
}
# Names that stay only because perfbench/run.py reads them by name, until the
# next change to the benchmark. References from inside these definitions keep
# nothing else alive, so what only they use must be allowed here too.
ALLOWED = {
    "engine": {
        "closure_perms": "traced by perfbench; its self-test counts the calls",
        "DEFAULT_ELEMENT_CAP": "the cap that `closure_perms` defaults to",
    },
    "poset": {
        "FacePoset.flags_and_adjacency": "traced by perfbench as the `poset.flags` counter",
        "FacePoset.face_counts": "read by perfbench's `poset.faces` counter",
        "FlagSystem": "what `FacePoset.flags_and_adjacency` returns",
        "FlagSystem.flags": "read by perfbench's `poset.flags` counter",
        "FlagSystem.adjacency": "half of the flag system that perfbench holds",
    },
    "errors": {"DiamondViolation": "what `FacePoset.flags_and_adjacency` raises"},
}


def defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def member_name(stmt: ast.stmt) -> str | None:
    """The name a method or a class-level annotated field defines, else None."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return stmt.name
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return stmt.target.id
    return None


def read_names(*nodes: ast.AST) -> tuple[set[str], set[str], set[str]]:
    """The bare names and the attribute names that the nodes read, and the
    names they call, bare or as an attribute."""
    names, attributes, calls = set(), set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attributes.add(sub.attr)
            elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                calls.add(sub.func.id)
            elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                calls.add(sub.func.attr)
    return names, attributes, calls


def units(stmt: ast.stmt):
    """(defined names, bare names read, attribute names read, names called)
    for a top-level statement and, for a class, each of its methods and
    fields apart; a member defines `Class.member`."""
    if not isinstance(stmt, ast.ClassDef):
        yield defined_names(stmt), *read_names(stmt)
        return
    members = [s for s in stmt.body if member_name(s)]
    rest = [s for s in stmt.body if s not in members]
    yield {stmt.name}, *read_names(*stmt.decorator_list, *stmt.bases, *stmt.keywords, *rest)
    for member in members:
        yield {stmt.name, f"{stmt.name}.{member_name(member)}"}, *read_names(member)


def all_units(sources: dict[str, str]) -> list[tuple[str, set[str], set[str], set[str], set[str]]]:
    """(module, defined names, bare names read, attribute names read, names
    called) for every unit of every module."""
    return [
        (module, *unit)
        for module, text in sources.items()
        for stmt in ast.parse(text).body
        for unit in units(stmt)
    ]


def live_readers(found: list, dead: set[str]) -> list:
    """The units that keep what they read alive: neither an allowed
    definition nor one that defines a reported name."""
    return [
        (m, defs, *reads)
        for m, defs, *reads in found
        if not defs & ALLOWED.get(m, {}).keys() and not {f"{m}.{d}" for d in defs} & dead
    ]


def is_read(module: str, name: str, readers: list) -> bool:
    """Does a reader other than the name's own definition read it? A member
    (`Class.member`) counts only as an attribute read."""
    _, dot, read_as = name.rpartition(".")
    return any(
        (read_as in attributes or not dot and read_as in names)
        and not (m == module and name in defs)
        for m, defs, names, attributes, _ in readers
    )


def is_called(module: str, cls: str, readers: list) -> bool:
    """Does a reader outside the class's own definition call it by name?"""
    return any(
        cls in calls and not (m == module and cls in defs) for m, defs, _, _, calls in readers
    )


def uncalled(sources: dict[str, str]) -> list[str]:
    """`module.name` for each public top-level name, public method and
    public field of a guarded module that no other live unit reads, and
    each `Class.__init__` of a class that no live unit outside it calls,
    the entry points and the allowed names excepted. The passes repeat
    until nothing more is reported; each can only report more, so they
    stop."""
    found = all_units(sources)
    dead: set[str] = set()
    while True:
        readers = live_readers(found, dead)
        missing = []
        for module in GUARDED:
            allowed = ALLOWED.get(module, {}).keys() | ENTRY_POINTS.get(module, {}).keys()
            public = set().union(*(d for m, d, *_ in found if m == module))
            for name in sorted(public - allowed):
                cls, _, read_as = name.rpartition(".")
                if read_as == "__init__":
                    live = is_called(module, cls, readers)
                elif read_as.startswith("_") or name.partition(".")[0].startswith("_"):
                    continue
                else:
                    live = is_read(module, name, readers)
                if not live:
                    missing.append(f"{module}.{name}")
        if set(missing) == dead:
            return missing
        dead = set(missing)


def stale_exceptions(sources: dict[str, str]) -> list[str]:
    """`module.name` for each entry point or allowed name, of a module in
    `sources`, that its module does not define, or that a live unit other
    than an allowed definition already reads: an exception left behind for
    a name that moved, or one that is no longer needed."""
    found = all_units(sources)
    readers = live_readers(found, set(uncalled(sources)))
    stale = []
    for kept in (ENTRY_POINTS, ALLOWED):
        for module, names in kept.items():
            if module not in sources:
                continue
            defined = set().union(*(d for m, d, *_ in found if m == module))
            stale += [
                f"{module}.{name}"
                for name in names
                if name not in defined or is_read(module, name, readers)
            ]
    return sorted(stale)


def test_every_public_name_of_a_guarded_module_has_a_caller_in_src():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert set(GUARDED) == set(sources)
    for kept in (ENTRY_POINTS, ALLOWED):
        assert set(kept) <= set(GUARDED)
        assert all(reason for names in kept.values() for reason in names.values())
    assert uncalled(sources) == []
    assert stale_exceptions(sources) == []


def outside_imports(sources: dict[str, str]) -> list[str]:
    """`module: name` for each import, at any depth (function-local ones
    included), that is neither relative nor of a standard-library module."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{module}: {name}" for name in names if name.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_src_imports_only_the_standard_library():
    # The package declares no dependencies: every import is relative or stdlib.
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert "__init__" in sources
    assert outside_imports(sources) == []


def test_import_guard_sees_function_local_and_dotted_imports():
    sources = {
        "atlas": (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from . import engine\n"
            "from .errors import BudgetExceeded\n"
            "def run():\n    import concurrent.futures\n    import numpy as np\n"
        ),
        "engine": "class A:\n    def f(self):\n        from scipy.sparse import csr_matrix\n",
    }
    assert outside_imports(sources) == ["atlas: numpy", "engine: scipy.sparse"]


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
        # An entry point is a root: the helper it alone reads is called.
        "atlas": "def load_atlas():\n    return helper()\ndef helper():\n    pass\n",
    }
    assert uncalled(sources) == ["engine.HELPER", "engine.recursive", "sggi.Verdict"]


def test_guard_reports_stale_exceptions():
    sources = {
        "words": "def gamma_pq_presentation():\n    pass\n",
        "atlas": "def read_atlas():\n    pass\n",
        "engine": (
            "DEFAULT_ELEMENT_CAP = 1\n"
            "def closure_perms():\n    return DEFAULT_ELEMENT_CAP\n"
        ),
        "cli": (
            "from . import atlas, words\n"
            "words.gamma_pq_presentation()\n"
            "atlas.read_atlas()\n"
        ),
        "sggi": "from . import engine\ndef unread():\n    return engine.closure_perms()\n",
    }
    # The reader guard names none of the stale entries.
    assert uncalled(sources) == ["sggi.unread"]
    # atlas no longer defines load_atlas, and a live unit reads
    # gamma_pq_presentation. An unread unit reads closure_perms, and only an
    # allowed definition reads DEFAULT_ELEMENT_CAP, so both entries hold.
    assert stale_exceptions(sources) == ["atlas.load_atlas", "words.gamma_pq_presentation"]
    sources["cli"] += "from . import engine\nengine.closure_perms()\n"
    assert stale_exceptions(sources) == [
        "atlas.load_atlas",
        "engine.closure_perms",
        "words.gamma_pq_presentation",
    ]


def test_guard_reports_a_method_with_no_caller():
    sources = {
        "poset": (
            "class FacePoset:\n"
            "    def __init__(self):\n        self._x = self.rank_of()\n"
            "    def rank_of(self):\n        return FacePoset()\n"
            "    def leq(self):\n        return self.leq()\n"
            "    @property\n    def top(self):\n        return 0\n"
            "    def _check_ref(self):\n        pass\n"
            "    def flags_and_adjacency(self):\n        return self.face_counts()\n"
            "    def face_counts(self):\n        return HELPER\n"
            "HELPER = 3\n"
            "def build_poset():\n    return FacePoset()\n"
        ),
        "cli": "from . import poset\nposet.build_poset()\n",
    }
    # rank_of is read by __init__; FacePoset names itself in rank_of, and
    # only build_poset keeps it alive. leq reads only itself; the reads of
    # the allowed methods keep neither face_counts nor HELPER alive.
    assert uncalled(sources) == ["poset.FacePoset.leq", "poset.FacePoset.top", "poset.HELPER"]


def test_guard_matches_members_by_attribute_reads_only():
    sources = {
        "families": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Verdict:\n"
            "    order: int\n"
            "    expected: int\n"
            "    tight: bool = True\n"
            "    def passed(self):\n        return self.tight\n"
            "    def top(self):\n        return 0\n"
            "def verdict(expected):\n"
            "    top = expected\n"
            "    return Verdict(order=top, expected=expected)\n"
        ),
        "cli": "from . import families\nv = families.verdict(2)\nprint(v.order, v.passed())\n",
    }
    # order and passed are read as attributes, and tight by passed, a unit of
    # its own. The parameter `expected`, the local `top` and the keywords of
    # the constructor are no attribute reads.
    assert uncalled(sources) == ["families.Verdict.expected", "families.Verdict.top"]


def test_guard_follows_chains_of_unread_names():
    sources = {
        "poset": (
            "class FacePoset:\n"
            "    def section(self):\n        return self.leq()\n"
            "    def leq(self):\n        return face_id(self.top)\n"
            "    top: int = 0\n"
            "def face_id(ref):\n    return ref\n"
            "def build_poset():\n    return FacePoset()\n"
        ),
        "cli": "from . import poset\nposet.build_poset()\n",
    }
    # Nothing reads section; only section reads leq, and only leq reads
    # face_id and top: a chain of two links below the unread name.
    assert uncalled(sources) == [
        "poset.FacePoset.leq",
        "poset.FacePoset.section",
        "poset.FacePoset.top",
        "poset.face_id",
    ]


def test_guard_counts_an_init_only_when_the_class_is_called():
    sources = {
        "poset": (
            "class FacePoset:\n"
            "    def __init__(self, levels):\n        self._comp = self.rows_of(levels)\n"
            "    def rows_of(self, levels):\n        return levels\n"
            "    def _setup(self, rows):\n        self._comp = rows\n"
            "    def flag_count(self):\n        return FacePoset(self._comp)\n"
            "class PosetReport:\n"
            "    def __init__(self):\n        pass\n"
            "def build_poset():\n"
            "    poset = FacePoset.__new__(FacePoset)\n"
            "    poset._setup([])\n"
            "    return poset.flag_count(), isinstance(poset, PosetReport)\n"
        ),
        "cli": "from . import poset\nposet.build_poset()\n",
    }
    # build_poset names both classes and calls neither: it gets around
    # FacePoset's __init__ through __new__, and only FacePoset calls itself.
    # The dead __init__ keeps rows_of, which only it reads, from counting.
    assert uncalled(sources) == [
        "poset.FacePoset.__init__",
        "poset.FacePoset.rows_of",
        "poset.PosetReport.__init__",
    ]
    # A call as an attribute or as a bare name keeps an __init__ alive.
    sources["cli"] += "poset.FacePoset([])\nfrom .poset import PosetReport\nPosetReport()\n"
    assert uncalled(sources) == []
