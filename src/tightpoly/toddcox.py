"""Coset enumeration for presentations with involutory generators.

One HLT pass over the cosets of the trivial subgroup, in a flat table
`table[c * ngens + g]`, with immediate deductions; coincidences are
processed to completion through a union-find before any further scanning.
The run is fully deterministic: cosets are processed in increasing order,
relators in presentation order, and new cosets are defined at the first
missing entry of the current scan, so two runs on the same presentation
produce identical tables. No closing sweep follows the pass (`_hlt` says why
none is needed).

Every closed table, enumerated here or built elsewhere (the census's), is a
table of a regular action, and is certified once as one by
`_certify_regular`: the columns are involutive permutations,
`engine.left_action` succeeds, which proves the action regular, and each
relator fixes point 0. In a regular group an element that fixes one point is
the identity (McMullen-Schulte, *Abstract Regular Polytopes*, 2E), so a
relator that closes at coset 0 closes at every coset. A failure raises
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

from . import engine
from .engine import PermRep
from .errors import BudgetExceeded, RelatorViolation
from .words import Presentation, _require_involutions, involution_letter, rotations

DEFAULT_MAX_COSETS = 100_000
UNDEF = -1


@dataclass(frozen=True)
class CosetTable:
    """Closed coset table; row c column g is the coset c * x_g.

    Coset 0 is the enumerated subgroup itself. A table from
    `enumerate_cosets` has passed `_certify_regular`; `perm_rep` certifies
    a table built elsewhere.
    """

    pres: Presentation
    table: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.table)


def _hlt(pres: Presentation, budget: int) -> tuple[list[int], list[int]]:
    """One HLT pass to completion over the cosets of the trivial subgroup, in
    the flat table `table[c * ngens + g]`.

    Returns the table and the union-find parents; the live cosets are the
    roots. Raises BudgetExceeded when a definition would allocate coset
    number `budget`.

    No closing sweep follows the pass. Cosets are processed in increasing
    order until every allocated coset has been processed, and a coset that
    is live at the end was live throughout, so it traced every relator
    closed from itself when its turn came (a coset killed mid-scan merged
    into a smaller coset, whose root was processed in full before it). A
    cycle closed at scan time stays closed under later coincidences:
    `unify` only identifies cosets and carries every defined entry of the
    dead row into the live one, so the roots of the cycle's cosets still
    form a closed cycle. Hence every relator closes from every live coset,
    and each live row is complete because the involution relator of every
    generator was traced from it.

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

    A scan that reads an entry naming a dead coset writes the root back
    into it. Entries matter only up to `find` (`unify` and the labels in
    `enumerate_cosets` both resolve them), so this changes no result.
    """
    n = pres.ngens
    table = [UNDEF] * n
    parent = [0]
    blank = [UNDEF] * n
    # One plan entry per relator, in relator order. An involution relator
    # x_g x_g is its generator g: scanning it only ever fills an undefined
    # row entry. A traced relator w carries its last index; its shifts, the
    # t > 0 at which its rotation is w or reversed(w); its marks, one byte
    # per allocated coset; and its path, where a scan from c records the
    # coset c * w[:t] at position t, so that a closed cycle is marked
    # without being walked again.
    size = 64
    all_marks = []
    plan = []
    for w in pres.relators:
        g = involution_letter(w)
        if g is not None:
            plan.append((g, None, 0, None, None, None))
            continue
        rev = w[::-1]
        marks = bytearray(size)
        all_marks.append(marks)
        shifts = tuple(t for t, r in enumerate(rotations(w)) if t and (r == w or r == rev))
        plan.append((0, w, len(w) - 1, shifts, marks, [0] * (len(w) + 1)))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(a: int, g: int) -> int:
        # A new coset d = a * x_g, with the involutory reverse edge.
        nonlocal size
        d = len(parent)
        if d >= budget:
            raise BudgetExceeded(budget)
        if d == size:
            # The marks grow by doubling, one byte for every coset allocated.
            for marks in all_marks:
                marks.extend(bytes(size))
            size *= 2
        parent.append(d)
        table.extend(blank)
        table[a * n + g] = d
        table[d * n + g] = a
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
            ra, rb = a * n, b * n
            for g in range(n):
                nb = table[rb + g]
                if nb == UNDEF:
                    continue
                nb = find(nb)
                na = table[ra + g]
                if na == UNDEF:
                    table[ra + g] = nb
                    back = table[nb * n + g]
                    if back == UNDEF:
                        table[nb * n + g] = a
                    else:
                        queue.append((back, a))
                else:
                    queue.append((na, nb))

    current = 0
    while current < len(parent):
        c = current
        current += 1
        if parent[c] != c:
            continue
        for g, w, last, shifts, marks, path in plan:
            if w is None:
                if table[c * n + g] == UNDEF:
                    define(c, g)
                continue
            if marks[c]:
                continue
            # Scan w from c: forward from the front, backward from the back.
            f, i = c, 0
            b, j = c, last
            while True:
                while i <= last:
                    k = f * n + w[i]
                    nxt = table[k]
                    if nxt == UNDEF:
                        break
                    if parent[nxt] != nxt:
                        nxt = table[k] = find(nxt)
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
                    k = b * n + w[j]
                    nxt = table[k]
                    if nxt == UNDEF:
                        break
                    if parent[nxt] != nxt:
                        nxt = table[k] = find(nxt)
                    path[j] = b = nxt
                    j -= 1
                if j < i:
                    closed = f == b
                    if not closed:
                        unify(f, b)
                    break
                x = w[i]
                if i == j:
                    # One gap: deduce f * x = b and its involutory reverse.
                    table[f * n + x] = b
                    table[b * n + x] = f
                    closed = True
                    break
                # Gap of two or more: define a new coset at the first gap.
                d = define(f, x)
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
    return table, parent


def _certify_regular(
    degree: int, columns: tuple[tuple[int, ...], ...], pres: Presentation
) -> None:
    """The certificate of a closed table over the trivial subgroup: every
    generator column is an involutive permutation of 0..degree-1, the action
    of the rep on those columns is regular (`engine.left_action` succeeds),
    and every other relator fixes point 0, read as `engine._image` reads any
    word. Returns nothing; raises RelatorViolation otherwise.

    In a regular group an element that fixes one point is the identity, so a
    relator that fixes point 0 closes from every coset: O(|w|) per relator.
    A valid action on the cosets of a subgroup that is not normal is
    rejected, as it is not regular.
    """
    points = list(range(degree))
    for g, col in enumerate(columns):
        if sorted(col) != points or list(map(col.__getitem__, col)) != points:
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
    never returned. The returned table has passed `_certify_regular`. As the
    action is regular, an element that fixes coset 0 is the identity, so each
    relator is checked at coset 0 only.
    """
    _require_involutions(pres)
    budget = DEFAULT_MAX_COSETS if max_cosets is None else max_cosets
    if budget < 1:
        raise ValueError("max_cosets must be >= 1")
    table, parent = _hlt(pres, budget)
    # Number the live cosets in order. A dead coset's parent is smaller, so
    # its label is already known; the extra last slot keeps UNDEF (-1)
    # mapping to UNDEF, which the certificate rejects.
    n = pres.ngens
    label = [UNDEF] * (len(parent) + 1)
    live = []
    for x, p in enumerate(parent):
        if p == x:
            label[x] = len(live)
            live.append(x)
        else:
            label[x] = label[p]
    rows = tuple(tuple(map(label.__getitem__, table[c * n : c * n + n])) for c in live)
    _certify_regular(len(rows), tuple(zip(*rows)), pres)
    return CosetTable(pres=pres, table=rows)


def perm_rep(table: CosetTable) -> PermRep:
    """Permutation images of the generators on the coset indices.

    Certifies the table with `_certify_regular`, so it also checks tables
    built elsewhere, and they must be tables of a regular action: an element
    of a regular group that fixes one point is the identity, so the
    relators are checked at coset 0.
    """
    gens = tuple(zip(*table.table))
    _certify_regular(table.rows, gens, table.pres)
    return PermRep(degree=table.rows, gens=gens)


def group_order(pres: Presentation, max_cosets: int | None = None) -> int:
    """Order of the presented group, by enumeration over the trivial subgroup."""
    return enumerate_cosets(pres, max_cosets).rows


def regular_rep(pres: Presentation, max_cosets: int | None = None) -> PermRep:
    """Regular permutation representation (enumeration over the trivial subgroup).

    Built from the columns `enumerate_cosets` has already certified; as the
    action is regular, the relators were checked at coset 0 only.
    """
    table = enumerate_cosets(pres, max_cosets)
    return PermRep(degree=table.rows, gens=tuple(zip(*table.table)))
