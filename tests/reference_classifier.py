"""The normal-subgroup search as it was with the dynamic relator store: the
differential oracle for `tightpoly.classifier._NormalSearch`.

`_NormalSearch` keeps every pinned relation as a backtracked relator: its
cycle key in `dyn_seen`, each rotation appended to the buckets, and both
undone through the `_BUCKET` and `_DYNKEY` trail tags. `_cycle_key`,
`_NormalSearch` and `low_index_normal` are copied verbatim; tests demand
equal tables from both searches, or the same exception type.

`_bfs_relabel` puts a table into breadth-first numbering. Both oracles use
it, this search and the brute-force enumeration in `test_classifier.py`;
`tightpoly.classifier` emits its tables in that numbering already.
"""

from __future__ import annotations

from tightpoly import engine
from tightpoly.classifier import DEFAULT_INDEX_CAP, UNDEF
from tightpoly.errors import CapExceeded, InvariantViolation
from tightpoly.toddcox import CosetTable, PermRep
from tightpoly.words import Presentation


def _bfs_relabel(rows: list[tuple[int, ...]], ngens: int) -> tuple[tuple[int, ...], ...]:
    """Canonical numbering: breadth-first from point 0 in generator order."""
    n = len(rows)
    label = [UNDEF] * n
    label[0] = 0
    order = [0]
    next_label = 1
    for x in order:
        for g in range(ngens):
            y = rows[x][g]
            if label[y] == UNDEF:
                label[y] = next_label
                next_label += 1
                order.append(y)
    if next_label != n:
        raise InvariantViolation("table is not transitive")
    out: list[tuple[int, ...]] = [()] * n
    for x in range(n):
        out[label[x]] = tuple(label[v] for v in rows[x])
    return tuple(out)


def _cycle_key(w: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical form of a relator cycle: minimum over rotations of the word
    and of its reversal (letters are involutions)."""
    best = None
    for u in (w, tuple(reversed(w))):
        for t in range(len(u)):
            rot = u[t:] + u[:t]
            if best is None or rot < best:
                best = rot
    return best or ()


# Trail tags for backtracking.
_CELL = 0
_COLSTATE = 1
_BUCKET = 2
_DYNKEY = 3

_COL_UNKNOWN = 0
_COL_IDENTITY = 1
_COL_DERANGED = 2



class _NormalSearch:
    """Backtracking over based transitive tables of the exact index.

    Deductions are worklist-driven: defining an edge (a, g) anchors a scan of
    every relator conjugate starting with g at row a, so every relator cycle
    is verified exactly when its last edge appears. Two facts about regular
    actions prune hard: a generator column is either the identity or a
    derangement, and any word reaching point b from point a names the same
    group element as a generator edge a->b, so that word is a relator of the
    quotient and must close from every row.
    """

    def __init__(self, pres: Presentation, index: int):
        self.ngens = n = pres.ngens
        self.index = index
        self.table = [UNDEF] * (index * n)
        self.colstate = [_COL_UNKNOWN] * n
        self.nrows = 1
        self.witness: list[tuple[int, ...]] = [()]
        self.buckets: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
        self.dyn_seen: set[tuple[int, ...]] = set()
        self.trail: list[tuple] = []
        self.worklist: list[tuple[int, int]] = []
        self.pending: list[tuple[int, ...]] = []
        self.found: list[tuple[tuple[int, ...], ...]] = []
        for w in dict.fromkeys(pres.relators):
            if len(w) == 2 and w[0] == w[1]:
                continue  # involution relators are built into the edge rule
            key = _cycle_key(w)
            if key in self.dyn_seen:
                continue
            self.dyn_seen.add(key)
            for conj in {w[t:] + w[:t] for t in range(len(w))}:
                self.buckets[conj[0]].append(conj)
        for bucket in self.buckets:
            bucket.sort()

    # -- constraint recording -------------------------------------------------

    def _set(self, a: int, g: int, b: int) -> bool:
        table = self.table
        n = self.ngens
        cur = table[a * n + g]
        if cur != UNDEF:
            return cur == b
        state = self.colstate[g]
        if a == b:
            if state == _COL_DERANGED:
                return False
            if state == _COL_UNKNOWN:
                self._mark_column_identity(g)
                return True
            table[a * n + g] = a
            self.trail.append((_CELL, a * n + g))
            self.worklist.append((a, g))
            return True
        if state == _COL_IDENTITY:
            return False
        back = table[b * n + g]
        if back != UNDEF and back != a:
            return False
        if state == _COL_UNKNOWN:
            self.colstate[g] = _COL_DERANGED
            self.trail.append((_COLSTATE, g, _COL_UNKNOWN))
        table[a * n + g] = b
        self.trail.append((_CELL, a * n + g))
        self.worklist.append((a, g))
        if back == UNDEF:
            table[b * n + g] = a
            self.trail.append((_CELL, b * n + g))
            self.worklist.append((b, g))
        wa, wb = self.witness[a], self.witness[b]
        # Definition edges (witness extends witness) carry no group relation;
        # anything else pins an element identity worth propagating.
        if wb != wa + (g,) and wa != wb + (g,):
            self.pending.append(wa + (g,) + tuple(reversed(wb)))
        return True

    def _mark_column_identity(self, g: int) -> None:
        self.colstate[g] = _COL_IDENTITY
        self.trail.append((_COLSTATE, g, _COL_UNKNOWN))
        table = self.table
        n = self.ngens
        for y in range(self.nrows):
            idx = y * n + g
            if table[idx] == UNDEF:
                table[idx] = y
                self.trail.append((_CELL, idx))
                self.worklist.append((y, g))

    def _add_dynamic(self, w: tuple[int, ...]) -> bool:
        key = _cycle_key(w)
        if key in self.dyn_seen:
            return True
        self.dyn_seen.add(key)
        self.trail.append((_DYNKEY, key))
        conjugates = sorted({w[t:] + w[:t] for t in range(len(w))})
        for conj in conjugates:
            self.buckets[conj[0]].append(conj)
            self.trail.append((_BUCKET, conj[0]))
            for c in range(self.nrows):
                if not self._scan(c, conj):
                    return False
        return True

    # -- propagation -----------------------------------------------------------

    def _scan(self, c: int, w: tuple[int, ...]) -> bool:
        table = self.table
        n = self.ngens
        f = c
        i, j = 0, len(w) - 1
        while i <= j:
            nxt = table[f * n + w[i]]
            if nxt == UNDEF:
                break
            f = nxt
            i += 1
        if i > j:
            return f == c
        b = c
        while j >= i:
            nxt = table[b * n + w[j]]
            if nxt == UNDEF:
                break
            b = nxt
            j -= 1
        if j < i:
            return f == b
        if i == j:
            return self._set(f, w[i], b)
        return True

    def _propagate(self) -> bool:
        worklist = self.worklist
        pending = self.pending
        buckets = self.buckets
        while worklist or pending:
            if pending:
                if not self._add_dynamic(pending.pop()):
                    worklist.clear()
                    pending.clear()
                    return False
                continue
            a, g = worklist.pop()
            for w in buckets[g]:
                if not self._scan(a, w):
                    worklist.clear()
                    pending.clear()
                    return False
        return True

    # -- search ------------------------------------------------------------------

    def _first_undefined(self) -> int:
        table = self.table
        limit = self.nrows * self.ngens
        for idx in range(limit):
            if table[idx] == UNDEF:
                return idx
        return -1

    def _emit(self) -> None:
        if self.nrows != self.index:
            return
        n = self.ngens
        rows = [
            tuple(self.table[a * n : (a + 1) * n]) for a in range(self.nrows)
        ]
        # Exact normality filter: the action must be regular.
        perms = tuple(tuple(row[g] for row in rows) for g in range(n))
        if engine.left_action(PermRep(self.nrows, perms)) is not None:
            self.found.append(_bfs_relabel(rows, n))

    def run(self) -> None:
        if not self._propagate():
            return
        idx = self._first_undefined()
        if idx < 0:
            self._emit()
            return
        a, g = divmod(idx, self.ngens)
        mark = len(self.trail)
        n = self.ngens
        for b in range(self.nrows):
            if self.table[b * n + g] == UNDEF:
                if self._set(a, g, b):
                    self.run()
                self._undo(mark)
        if self.nrows < self.index:
            fresh = self.nrows
            self.nrows += 1
            self.witness.append(self.witness[a] + (g,))
            for h in range(n):
                if h != g and self.colstate[h] == _COL_IDENTITY:
                    self.table[fresh * n + h] = fresh
                    self.trail.append((_CELL, fresh * n + h))
                    self.worklist.append((fresh, h))
            if self._set(a, g, fresh):
                self.run()
            self._undo(mark)
            self.witness.pop()
            self.nrows -= 1

    def _undo(self, mark: int) -> None:
        trail = self.trail
        table = self.table
        while len(trail) > mark:
            entry = trail.pop()
            tag = entry[0]
            if tag == _CELL:
                table[entry[1]] = UNDEF
            elif tag == _COLSTATE:
                self.colstate[entry[1]] = entry[2]
            elif tag == _BUCKET:
                self.buckets[entry[1]].pop()
            else:
                self.dyn_seen.discard(entry[1])
        self.worklist.clear()
        self.pending.clear()


def low_index_normal(
    pres: Presentation, index: int, index_cap: int | None = None
) -> list[CosetTable]:
    """All normal subgroups of exactly the given index.

    Each is returned as the coset table of the action on its cosets (the
    regular action of the quotient), in canonical breadth-first numbering.
    The result is sorted by table content.
    """
    cap = DEFAULT_INDEX_CAP if index_cap is None else index_cap
    if index < 1:
        raise ValueError(f"index must be >= 1, got {index}")
    if index > cap:
        raise CapExceeded(cap)
    search = _NormalSearch(pres, index)
    search.run()
    tables = sorted(set(search.found))
    # Rows here, as the search was written; a CosetTable holds columns.
    return [CosetTable(pres=pres, columns=tuple(zip(*t))) for t in tables]
