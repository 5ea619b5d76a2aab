"""Coset enumeration for presentations with involutory generators.

One HLT pass over the cosets of the trivial subgroup, on the generator
columns (`cols[g][c]` is the coset c * x_g), with immediate deductions;
coincidences are processed to completion through a union-find before any
further scanning, and a merge repoints to the survivor the entries that
name the dead coset as their involutory partner. The run is fully
deterministic: cosets are processed in increasing order, relators in
presentation order, and new cosets are defined at the first missing entry
of the current scan, so two runs on the same presentation produce identical
tables. No closing sweep follows the pass (`_hlt` says why none is needed).
The pass fills the columns that the closed table keeps, relabelled to the
live cosets: the one form `CosetTable` and `PermRep` hold.

Every closed table, enumerated here or built elsewhere (the census's, and
the block products of `families._gamma_rep`), is a table of a regular
action, and is certified once as one by `_certify_regular`: the columns are
involutive permutations, `engine.left_action` succeeds, which proves the
action regular, and each relator fixes point 0. `left_action` builds the
left multiplications along a spanning tree of the table and compares them
with the columns only on the edges the tree leaves open, each once. In a
regular group an element that fixes one point is the identity
(McMullen-Schulte, *Abstract Regular Polytopes*, 2E), so a relator that
closes at coset 0 closes at every coset. A failure raises
RelatorViolation, so the certificate also holds under `python -O`. The
certificate is a pure check: it returns nothing, and the left action it
computes is carried nowhere. `poset.build_poset` needs only the columns.

Once a relator w closes from a coset c without a coincidence, the pass
marks the cosets c * w[:t] at which a rotation of w by t is w or its
reversal, and skips w there: w closes from them too and stays closed, so
the skipped scans could not have defined, deduced or merged anything, and
the tables (and the allocation at which BudgetExceeded is raised) are the
same as with every scan made.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from . import engine
from .engine import PermRep
from .errors import BudgetExceeded, RelatorViolation
from .words import Presentation, _require_involutions, closing_shifts, involution_letter

DEFAULT_MAX_COSETS = 100_000
UNDEF = -1


@dataclass(frozen=True)
class CosetTable:
    """Closed coset table as its generator columns: `columns[g][c]` is the
    coset c * x_g.

    Coset 0 is the enumerated subgroup itself. A table from
    `enumerate_cosets` has passed `_certify_regular`; `perm_rep` certifies
    a table built elsewhere. `rows`, the coset count, is what the benchmark's
    `toddcox.cosets_live` counter reads.
    """

    pres: Presentation
    columns: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.columns[0])


def _hlt(pres: Presentation, budget: int) -> tuple[list[list[int]], list[int]]:
    """One HLT pass to completion over the cosets of the trivial subgroup, on
    the generator columns: `cols[g][c]` is the coset c * x_g.

    Returns the columns, cut to the cosets allocated, and the union-find
    parents; the live cosets are the roots. Raises BudgetExceeded, with the
    cosets allocated and live and the coset being processed, when a
    definition would allocate coset number `budget`.

    No closing sweep follows the pass. Cosets are processed in increasing
    order until every allocated coset has been processed, and a coset that
    is live at the end was live throughout, so it traced every relator
    closed from itself when its turn came (a coset killed mid-scan merged
    into a smaller coset, whose root was processed in full before it). A
    cycle closed at scan time stays closed under later coincidences:
    `unify` only identifies cosets and carries every defined entry of the
    dead coset over to the live one, so the roots of the cycle's cosets
    still form a closed cycle. Hence every relator closes from every live
    coset, and each live coset's entries are complete because the
    involution relator of every generator was traced from it.

    The skip rule: when a scan of w from c ends closed with no coincidence
    (a full trace, a meeting of the two traces, or a deduction), then for
    every t at which the rotation of w by t is w or reversed(w), w also
    closes from d = c * w[:t] (reading the cycle backward when it is the
    reversal, as every generator is an involution), and d is marked for w.
    By the argument above that cycle stays closed, so when d's turn comes
    the scan of w from d would be a full closed trace: no definition, no
    deduction, no coincidence. A marked coset skips w, and the pass makes
    the same definitions in the same order as without the marks. For
    (x_i x_j)^p every t in 1..2p-1 counts, so the cycle is traced once, not
    2p times.

    Entries matter only up to `find`: `unify` and the scans resolve every
    entry they follow, and the labels in `enumerate_cosets` map a dead coset
    to its root's label. Two writes rest on this and change no result. A
    scan that reads an entry naming a dead coset writes the root back into
    it. And when `unify` kills b, each of b's entries nb whose own entry in
    that column is b, its involutory partner, is repointed to the survivor
    a; from then on find(b) is find(a), and the entry stays defined, so
    later scans read a and need no `find` for it.
    """
    n = pres.ngens
    size = 64
    cols = [[UNDEF] * size for _ in range(n)]
    parent = [0]
    # One plan entry per relator, in relator order. An involution relator
    # x_g x_g is its column: scanning it only ever fills an undefined entry.
    # A traced relator w carries its letters' columns; its last index; its
    # shifts, the t > 0 at which its rotation is w or reversed(w), found in
    # O(|w|) by `closing_shifts`; its marks, one byte per allocated coset;
    # and its path, where a scan from c records the coset c * w[:t] at
    # position t, so that a closed cycle is marked without being walked
    # again.
    all_marks = []
    plan = []
    for w in pres.relators:
        g = involution_letter(w)
        if g is not None:
            plan.append((cols[g], None, 0, None, None, None))
            continue
        marks = bytearray(size)
        all_marks.append(marks)
        plan.append((None, tuple(cols[x] for x in w), len(w) - 1, closing_shifts(w), marks, [0] * (len(w) + 1)))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(a: int, col: list[int]) -> int:
        # A new coset d = a * x_g in x_g's column, with the involutory reverse edge.
        nonlocal size
        d = len(parent)
        if d >= budget:
            live = sum(p == x for x, p in enumerate(parent))
            raise BudgetExceeded(budget, allocated=d, live=live, coset=current - 1)
        if d == size:
            # Columns and marks grow by doubling, one entry for every coset allocated.
            for column in cols:
                column.extend([UNDEF] * size)
            for marks in all_marks:
                marks.extend(bytes(size))
            size *= 2
        parent.append(d)
        col[a] = d
        col[d] = a
        return d

    def unify(a: int, b: int) -> None:
        # Process the coincidence a = b to completion; the smaller coset
        # survives, so live cosets below `current` stay processed.
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            for col in cols:
                nb = col[b]
                if nb == UNDEF:
                    continue
                nb = find(nb)
                back = col[nb]
                if back == b:
                    col[nb] = back = a
                na = col[a]
                if na == UNDEF:
                    col[a] = nb
                    if back == UNDEF:
                        col[nb] = a
                    elif back != a:
                        queue.append((back, a))
                else:
                    queue.append((na, nb))

    current = 0
    while current < len(parent):
        c = current
        current += 1
        if parent[c] != c:
            continue
        for inv, wc, last, shifts, marks, path in plan:
            if wc is None:
                if inv[c] == UNDEF:
                    define(c, inv)
                continue
            if marks[c]:
                continue
            # Scan w from c: forward from the front, backward from the back.
            f, i = c, 0
            b, j = c, last
            while True:
                while i <= last:
                    col = wc[i]
                    nxt = col[f]
                    if nxt == UNDEF:
                        break
                    if parent[nxt] != nxt:
                        nxt = col[f] = find(nxt)
                    i += 1
                    path[i] = f = nxt
                if i > last:
                    closed = f == c
                    if not closed:
                        unify(f, c)
                    break
                if i > j:
                    b, j = c, last
                while j >= i:
                    col = wc[j]
                    nxt = col[b]
                    if nxt == UNDEF:
                        break
                    if parent[nxt] != nxt:
                        nxt = col[b] = find(nxt)
                    path[j] = b = nxt
                    j -= 1
                if j < i:
                    closed = f == b
                    if not closed:
                        unify(f, b)
                    break
                col = wc[i]
                if i == j:
                    # One gap: deduce f * w[i] = b and its involutory reverse.
                    col[f] = b
                    col[b] = f
                    closed = True
                    break
                # Gap of two or more: define a new coset at the first gap.
                d = define(f, col)
                # Restarting the scan from c now would retrace the same
                # cosets, as only entries were added. So the forward trace
                # resumes at d, bounded like a restart by the end of w, and
                # only if it runs past the backward position does the
                # backward trace start again from c.
                f, i = d, i + 1
                path[i] = d
            if closed:
                # The path holds the whole cycle: the forward trace wrote
                # positions 1..i and the backward trace the rest, with no
                # coincidence since, so every coset on it is still live.
                for t in shifts:
                    marks[path[t]] = 1
            elif parent[c] != c:
                break
    for col in cols:
        del col[len(parent) :]
    return cols, parent


def _certify_regular(
    degree: int, columns: tuple[tuple[int, ...], ...], pres: Presentation
) -> None:
    """The certificate of a closed table over the trivial subgroup: every
    generator column is an involutive permutation of 0..degree-1, the action
    of the rep on those columns is regular (`engine.left_action` succeeds),
    and every other relator fixes point 0, read as `engine._image` reads any
    word. Returns nothing; raises RelatorViolation otherwise.

    As the columns are involutions, `left_action` compares each edge of the
    table that its spanning tree does not settle once, and each fixed point
    once, instead of every column at every point for every candidate.

    In a regular group an element that fixes one point is the identity, so a
    relator that fixes point 0 closes from every coset: O(|w|) per relator.
    A valid action on the cosets of a subgroup that is not normal is
    rejected, as it is not regular.
    """
    points = list(range(degree))
    for g, col in enumerate(columns):
        # An involution of 0..degree-1 is a permutation. The range check
        # comes first, so that col[x] neither raises IndexError nor reads a
        # negative x from the end.
        in_range = len(col) == degree and min(col) >= 0 and max(col) < degree
        if not in_range or [col[x] for x in col] != points:
            raise RelatorViolation(f"column {g} is not an involutive permutation")
    rep = PermRep(degree, columns)
    if engine.left_action(rep) is None:
        raise RelatorViolation(f"the action on {degree} cosets is not regular")
    for w in pres.relators:
        if involution_letter(w) is None and engine._image(rep, w) != 0:
            raise RelatorViolation(f"relator {w} does not close at coset 0")


def enumerate_cosets(pres: Presentation, max_cosets: int | None = None) -> CosetTable:
    """Enumerate the cosets of the trivial subgroup: the elements of the
    presented group.

    Raises BudgetExceeded if the table does not close within `max_cosets`
    allocated cosets (DEFAULT_MAX_COSETS when None); a partial table is
    never returned. Each column is `_hlt`'s column of that generator, read
    in one pass: its entries at the live cosets, relabelled to 0..order-1
    (every entry, one that names a dead coset too, counts up to `find`, so
    a dead coset takes its root's label). The columns have passed
    `_certify_regular`.
    """
    _require_involutions(pres)
    budget = DEFAULT_MAX_COSETS if max_cosets is None else max_cosets
    if budget < 1:
        raise ValueError("max_cosets must be >= 1")
    cols, parent = _hlt(pres, budget)
    # Number the live cosets in order. A dead coset's parent is smaller, so
    # its label is already known; the extra last slot keeps UNDEF (-1)
    # mapping to UNDEF, which the certificate rejects.
    label = [UNDEF] * (len(parent) + 1)
    degree = 0
    for x, p in enumerate(parent):
        label[x] = degree if p == x else label[p]
        degree += p == x
    # Keep each column's live entries, relabelled.
    alive = [p == x for x, p in enumerate(parent)]
    columns = tuple(tuple(map(label.__getitem__, compress(col, alive))) for col in cols)
    _certify_regular(degree, columns, pres)
    return CosetTable(pres=pres, columns=columns)


def perm_rep(table: CosetTable) -> PermRep:
    """The permutation rep on the table's own columns.

    Certifies the table with `_certify_regular`, so it also checks tables
    built elsewhere: the census's, and the direct product of the blocks of a
    Γ tuple with an entry 2, checked against the whole tuple's presentation
    (`families._gamma_rep`). They must be tables of a regular action: an
    element of a regular group that fixes one point is the identity, so the
    relators are checked at coset 0.
    """
    _certify_regular(table.rows, table.columns, table.pres)
    return PermRep(degree=table.rows, gens=table.columns)


def group_order(pres: Presentation, max_cosets: int | None = None) -> int:
    """Order of the presented group, by enumeration over the trivial subgroup."""
    return enumerate_cosets(pres, max_cosets).rows


def regular_rep(pres: Presentation, max_cosets: int | None = None) -> PermRep:
    """Regular permutation representation: the columns that `enumerate_cosets`
    enumerated over the trivial subgroup and certified."""
    table = enumerate_cosets(pres, max_cosets)
    return PermRep(degree=table.rows, gens=table.columns)
