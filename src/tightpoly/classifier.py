"""Normal subgroups of low index, and the tight polyhedron census.

The search backtracks over based transitive coset tables of the exact
target index, with points numbered in first-appearance (row-major) order so
each subgroup is generated exactly once. Two facts special to regular
quotient actions make it fast and keep it exact:

  * a non-definition edge a->b under generator g pins a group relation (the
    witness word of a, then g, then the reversed witness of b, with the
    prefix the two witnesses share cut off) that must close from every row,
    so it is scanned from every row that exists when it is found, and kept
    for the rest of the branch so that every row defined later is scanned
    with it too. A self-loop pins the one-letter word (g,), so the whole
    column must be the identity and any moved point in it ends the branch;
  * a completed table is kept only if the group generated by its columns
    has order exactly equal to the index, i.e. the action is regular.

The pruning rules only ever remove tables that no normal subgroup can
extend, and the final filter is exact, so the enumeration is sound and
complete; the test suite cross-checks it against brute-force normal
subgroup enumeration on finite groups.

The orientable census asks only for the quotients whose rotation subgroup
(the words of even length) has index 2. For the regular action of the
quotient that means it is bipartite: every generator changes the parity of
every point. The parity of a point is then the length mod 2 of any word
that reaches it from point 0, and each row's witness is such a word. So a
bipartite search rejects an edge a->b whose two witnesses have lengths of
equal parity, a self-loop among them, before it writes anything. Every
bipartite completion of a partial table keeps its edges and its witnesses,
so the rule removes exactly the tables of rotation index 1 and no other.

Every census asks only for quotients of exact type {p_1, ..., p_{n-1}}: in
each record <x_i> has order 2 and <x_i, x_j> has order 2 * m_ij, where
m_{i,i+1} = p_i and m_ij = 2 for j >= i + 2. A kernel word in at most two
letters i, j is then trivial in the dihedral group of order 2 * m_ij, so a
search given the type rejects an edge whose pinned relation uses one or two
letters and has a length that 2 * m_ij does not divide, before it writes
anything. This is the low-index procedure's own idea, pruning by what the
wanted quotients must satisfy (Conder and Dobcsányi, Applications and
adaptations of the low index subgroups procedure, Math. Comp. 74, 2005).
The rule never removes a table of exact type, but it sees only the
relations the search pins, so it may leave some tables without it; the
census's own filters drop those.

The tables need no relabelling, dedup or sort afterwards. A new row is made
only at the first undefined entry in row-major order, when every entry
before it is defined and names an older row, and deductions fill entries
only with rows that exist. So every table is already in breadth-first
numbering from point 0 in generator order, the standardized form of a coset
table (Sims, Computation with Finitely Presented Groups, 1994), which is
unique to its subgroup. Each branch tries the existing rows in increasing
order before the fresh one, and sibling branches agree on every entry before
the one they branch on, so the tables come out in strictly increasing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from . import engine, sggi
from .engine import PermRep
from .errors import AdjacentOddPair, CapExceeded
from .poset import poset_checks
from .toddcox import CosetTable, group_order, perm_rep
from .words import (
    Presentation,
    _require_involutions,
    coxeter_presentation,
    gamma_tuple_presentation,
    involution_letter,
    lambda_k_presentation,
    rotations,
)

DEFAULT_INDEX_CAP = 128
UNDEF = -1


class _NormalSearch:
    """Backtracking over based transitive tables of the exact index.

    Deductions are worklist-driven: defining an edge (a, g) anchors a scan of
    every presentation relator rotation starting with g at row a. These
    buckets are built once and never change, and every relator cycle is
    verified when its last edge appears, so every completed table satisfies
    the presentation. One fact about regular actions prunes hard: any word
    reaching point b from point a names the same group element as a
    generator edge a->b. So witness[a] + (g,) + reversed(witness[b]) lies in
    the kernel, and so does its conjugate u + (g,) + reversed(v) by the
    shared prefix p of witness[a] = p + u and witness[b] = p + v, because
    the kernel is normal. That pinned relation must close from every row. It
    is scanned, in the one rotation it comes in, from the rows that exist
    when it is found, and then stays on `pinned` until backtracking leaves
    its branch; each row defined meanwhile is queued on `fresh` and scanned
    with every pinned relation once the other queues are empty. A self-loop
    a->a pins (g,): scanning it from every row, fresh rows included, fills
    the rest of column g with self-loops and rejects any moved point in it,
    since in a regular action a generator fixing one point fixes all.
    Definition edges, whose reduced word is (g, g), pin nothing.
    `nodes` counts the calls of `run`, one per search node.

    With `bipartite` set, `_set` also rejects an edge a->b whose witnesses
    have lengths of equal parity, before any cell or trail write, so a
    rejected edge costs no undo. A witness reaches its row from row 0, so
    in a bipartite regular action its length mod 2 is the parity of that
    row, and such an edge joins two points of one parity. A fresh row's
    witness is one letter longer than its parent's, so definition edges
    always pass.

    With `exact_type` set to a Schläfli symbol (p_1, ..., p_{n-1}), `_set`
    also rejects an edge whose new pinned relation w uses at most two
    letters i and j (i = j allowed), unless 2 * m_ij divides len(w), again
    before any write. Here m_ii = 1, m_{i,i+1} = p_i and m_ij = 2 otherwise,
    and `periods[i][j]` holds 2 * m_ij. `len(set(w)) <= 2` is the cheap
    first test, and a relation in three or more letters passes unchecked.

    Why no census record is lost: a record is a string C-group of type
    `exact_type` whose poset passes `verify_polytope`. No x_i is trivial in
    it, since then there is one i-face and the diamond condition fails. For
    j >= i + 2, x_i = x_j breaks the intersection condition, and x_i =
    x_{i+1} would make their product of order 1, not p_i. Two distinct
    non-trivial involutions whose product has order m generate the dihedral
    group of order 2m, so every <x_i, x_j> has order 2 * m_ij, and it is the
    dihedral group that the Coxeter relators give <x_i, x_j>. A kernel word
    in letters i and j is therefore trivial in that dihedral group, in any
    table of exact type. The pinned w is freely reduced: each witness is a path
    in the tree of definition edges, and an edge whose letter would cancel
    against either witness is already defined. A freely reduced word in two
    involutions alternates, so it is trivial in the dihedral group of order
    2m exactly when 2m divides its length: an odd length gives a reflection
    and an even one a power of x_i x_j, and a one-letter w = (g,) has odd
    length. Free and cyclic reduction therefore need not be done: the first
    has nothing to remove, and the second removes letters in pairs, only
    from words of odd length, which fail already.

    Why the output does not depend on how hard it prunes: every other rule
    only rejects, or fills a cell of, a partial table in a way forced on
    every regular completion, because each scanned word is a relation that
    every regular completion satisfies from every row. Weaker pruning can
    add search nodes but can neither add nor lose a completed table: each
    completed table still passes the static relator scans and the exact
    regularity filter in `_emit`. The parity and exact-type rules are the
    exceptions on purpose: they remove the completions their census drops.
    """

    def __init__(
        self,
        pres: Presentation,
        index: int,
        bipartite: bool = False,
        exact_type: tuple[int, ...] | None = None,
    ):
        self.ngens = n = pres.ngens
        self.index = index
        self.bipartite = bipartite
        self.periods = None if exact_type is None else tuple(
            tuple(
                2 if i == j else 2 * exact_type[min(i, j)] if abs(i - j) == 1 else 4
                for j in range(n)
            )
            for i in range(n)
        )
        self.table = [UNDEF] * (index * n)
        self.nrows = 1
        self.witness: list[tuple[int, ...]] = [()]
        self.trail: list[int] = []  # the table indices written, in order
        self.worklist: list[tuple[int, int]] = []
        self.pending: list[tuple[int, ...]] = []
        self.pinned: list[tuple[int, ...]] = []
        self.fresh: list[int] = []
        self.nodes = 0
        self.found: list[tuple[tuple[int, ...], ...]] = []
        # Involution relators are built into the edge rule.
        rotated = sorted({
            r for w in pres.relators if involution_letter(w) is None for r in rotations(w)
        })
        self.buckets = tuple(tuple(w for w in rotated if w[0] == g) for g in range(n))

    # -- constraint recording -------------------------------------------------

    def _set(self, a: int, g: int, b: int) -> bool:
        table = self.table
        n = self.ngens
        cur = table[a * n + g]
        if cur != UNDEF:
            return cur == b
        back = table[b * n + g]
        if back != UNDEF and back != a:
            return False
        wa, wb = self.witness[a], self.witness[b]
        if self.bipartite and len(wa) % 2 == len(wb) % 2:
            return False
        k = 0
        for x, y in zip(wa, wb):
            if x != y:
                break
            k += 1
        w = wa[k:] + (g,) + tuple(reversed(wb[k:]))
        # A definition edge reduces to (g, g), which holds in every table.
        new = w != (g, g) and w not in self.pinned and w not in self.pending
        periods = self.periods
        if new and periods is not None and len(set(w)) <= 2 and len(w) % periods[w[0]][w[-1]]:
            return False
        table[a * n + g] = b
        self.trail.append(a * n + g)
        self.worklist.append((a, g))
        if back == UNDEF and b != a:  # a self-loop is its own reverse edge
            table[b * n + g] = a
            self.trail.append(b * n + g)
            self.worklist.append((b, g))
        if new:
            self.pending.append(w)
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
        pinned = self.pinned
        fresh = self.fresh
        scan = self._scan
        # On failure the caller's _undo clears the three queues and unpins.
        while worklist or pending or fresh:
            if pending:
                # A new relation: pinned for the branch so that rows defined
                # later scan it too, then scanned from every row. Pinning it
                # first keeps its own scan from queueing it again.
                w = pending.pop()
                pinned.append(w)
                for c in range(self.nrows):
                    if not scan(c, w):
                        return False
            elif worklist:
                a, g = worklist.pop()
                for w in buckets[g]:
                    if not scan(a, w):
                        return False
            else:
                c = fresh.pop()
                for w in pinned:
                    if not scan(c, w):
                        return False
        return True

    # -- search ------------------------------------------------------------------

    def _first_undefined(self) -> int:
        try:
            return self.table.index(UNDEF, 0, self.nrows * self.ngens)
        except ValueError:
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
            self.found.append(tuple(rows))

    def run(self) -> None:
        self.nodes += 1
        if not self._propagate():
            return
        idx = self._first_undefined()
        if idx < 0:
            self._emit()
            return
        a, g = divmod(idx, self.ngens)
        mark = (len(self.trail), len(self.pinned))
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
            self.fresh.append(fresh)
            if self._set(a, g, fresh):
                self.run()
            self._undo(mark)
            self.witness.pop()
            self.nrows -= 1

    def _undo(self, mark: tuple[int, int]) -> None:
        # `mark` is the lengths of the trail and of `pinned` at the branch
        # point. Reset the cells written since, cut both lists back to those
        # lengths, and drop the three queues of unfinished work.
        cells, pins = mark
        table = self.table
        for idx in self.trail[cells:]:
            table[idx] = UNDEF
        del self.trail[cells:]
        del self.pinned[pins:]
        self.worklist.clear()
        self.pending.clear()
        self.fresh.clear()


def low_index_normal(
    pres: Presentation,
    index: int,
    index_cap: int | None = None,
    *,
    bipartite: bool = False,
    exact_type: tuple[int, ...] | None = None,
) -> list[CosetTable]:
    """All normal subgroups of exactly the given index, or with the census
    keywords the ones a census may keep.

    Each is returned as the coset table of the action on its cosets (the
    regular action of the quotient), in canonical breadth-first numbering.
    The result is sorted by table content, with no repeats. Both hold as the
    search emits the tables (see the module docstring), so nothing here
    relabels, dedupes or sorts. Every generator must have its involution
    relator, as the search builds involutory columns.

    With `bipartite=True` only the normal subgroups whose quotient action is
    bipartite are returned: those with every generator changing the parity
    of every point, so the rotation subgroup has index 2. They are the same
    tables, in the same order, as the full result filtered to rotation index
    2, but the search prunes the others as it goes (see `_NormalSearch`).

    With `exact_type=sym`, a Schläfli symbol with one entry fewer than the
    generators, the search also skips the tables in which a relation it
    pins in one or two generators shows that some <x_i> or <x_i, x_j> is
    smaller than in the string Coxeter group [sym]. Every table of exact
    type `sym` is kept, but not every table kept has it. At the census
    index 2·∏p_i of [sym] the kept tables were exactly those of exact type
    on all 300 types of rank 3 and 4 with 2·∏p_i <= 128 (the differential
    tests draw from them); [6, 6] at index 12 keeps one of its 9 tables,
    none of which has type {6, 6}. Only the census sets it.
    """
    _require_involutions(pres)
    cap = DEFAULT_INDEX_CAP if index_cap is None else index_cap
    if cap < 1:
        raise ValueError(f"index_cap must be >= 1, got {cap}")
    if index < 1:
        raise ValueError(f"index must be >= 1, got {index}")
    if index > cap:
        raise CapExceeded(cap, f"index {index} is above the index cap of {cap}")
    search = _NormalSearch(pres, index, bipartite, exact_type)
    search.run()
    return [CosetTable(pres=pres, table=t) for t in search.found]


@dataclass(frozen=True)
class CensusRecord:
    schlafli: tuple[int, ...]
    table: CosetTable
    order: int
    profile: sggi.SggiProfile
    orientable: bool
    isomorphic_to_gamma: bool | None
    isomorphic_to_lambda: bool | None


def _presents_subgroup(
    pres: Presentation, rep: PermRep, gen_indices: Sequence[int], max_cosets: int | None
) -> bool:
    """Is x_i -> gen_indices[i] an isomorphism from the group of `pres` onto
    the subgroup of a regular rep generated by the indexed generators?

    The relators holding on the images give a surjection onto the subgroup,
    so equal orders certify a bijection.
    """
    if not engine.check_generator_map(pres, rep, [(g,) for g in gen_indices]):
        return False
    return group_order(pres, max_cosets) == len(engine.point_orbit(rep, gen_indices))


def _census(
    sym: tuple[int, ...],
    orientable: bool | None,
    index_cap: int | None,
    max_cosets: int | None,
) -> list[CensusRecord]:
    """The census behind `classify_tight` and `census_nonorientable`, for a
    type of any rank; `coxeter_presentation` rejects an entry below 2.

    Every mode searches with `exact_type=sym`, since every record is a
    string C-group of exact type `sym`. The profile's type and C-group
    filters below stay: they cross-check the search, and they drop the
    tables whose collapse the search's rule cannot see.
    """
    # An orientable quotient is a bipartite one, so the search skips the
    # rest; the orientability filter below stays as the cross-check.
    tables = low_index_normal(
        coxeter_presentation(sym),
        2 * prod(sym),
        index_cap,
        bipartite=orientable is True,
        exact_type=sym,
    )

    try:
        gamma_pres = gamma_tuple_presentation(sym)
    except AdjacentOddPair:
        gamma_pres = None
    # Λ(k) has type {3k, 4} for odd k: a rank-3 family.
    lambda_pres = None
    if len(sym) == 2 and sym[1] == 4 and sym[0] % 6 == 3:
        lambda_pres = lambda_k_presentation(sym[0] // 3)

    gens = range(len(sym) + 1)
    records = []
    for table in tables:
        rep = perm_rep(table)
        prof = sggi.profile(rep)
        if prof.schlafli != sym or not prof.is_string_c_group:
            continue
        # The profile's filters first: a poset is built only for the tables
        # that pass them all.
        if orientable is not None and prof.orientable != orientable:
            continue
        *_, tight = poset_checks(rep)
        if not tight:
            continue
        gamma, lam = (
            None if pres is None else _presents_subgroup(pres, rep, gens, max_cosets)
            for pres in (gamma_pres, lambda_pres)
        )
        records.append(
            CensusRecord(
                schlafli=sym,
                table=table,
                order=rep.degree,
                profile=prof,
                orientable=prof.orientable,
                isomorphic_to_gamma=gamma,
                isomorphic_to_lambda=lam,
            )
        )
    return records


def classify_tight(
    *sym: int,
    require_orientable: bool,
    index_cap: int | None = None,
    max_cosets: int | None = None,
) -> list[CensusRecord]:
    """Exhaustive census of tight regular polytopes of type {p_1, ..., p_{n-1}}.

    Enumerates the normal subgroups of the string Coxeter group [p_1, ...,
    p_{n-1}] of index exactly 2·∏p_i, at any rank, and keeps the quotients
    that are string C-groups of exact type `sym` whose poset is a verified
    tight polytope; optionally only the orientable ones. The search itself
    skips the quotients in which a relation it pins collapses some <x_i> or
    <x_i, x_j> (`low_index_normal(..., exact_type=sym)`). With
    `require_orientable` it also visits only the bipartite tables
    (`bipartite=True`), and each record's profile must still say
    orientable.
    """
    return _census(sym, True if require_orientable else None, index_cap, max_cosets)


def census_nonorientable(
    *sym: int,
    index_cap: int | None = None,
    max_cosets: int | None = None,
) -> list[CensusRecord]:
    """Tight census of type `sym` restricted to non-orientable quotients."""
    return _census(sym, False, index_cap, max_cosets)
