"""Two-pass reference coset enumerator and full-trace certificate: the
differential oracles for the one-pass kernel and the regular certificate in
`tightpoly.toddcox`.

`_Enumerator` runs the HLT main pass and then a closing sweep that rescans
every live coset until a sweep changes nothing; `_check_closed` re-traces
every relator from every coset. `reference_table` runs both on the same
inputs as `enumerate_cosets`, so tests can demand identical tables and
identical BudgetExceeded behaviour. It also enumerates over a subgroup
generated by some of the generators, which the kernel does not: that is
where the tests get coset tables of actions that are not regular.

`_certify` is the full-trace certificate of a closed table: it traces every
relator from every coset, and so accepts any valid coset action, regular or
not. `toddcox._certify_regular` must agree with it on regular tables and
reject every table that is not regular.
"""

from __future__ import annotations

from tightpoly.errors import BudgetExceeded, RelatorViolation
from tightpoly.toddcox import UNDEF, _require_involutions
from tightpoly.words import Presentation, Word, involution_letter, rotations


class _Enumerator:
    def __init__(self, pres: Presentation, subgroup_gens: frozenset[int], budget: int):
        self.ngens = pres.ngens
        self.rels = pres.relators
        self.budget = budget
        self.table: list[list[int]] = []
        self.parent: list[int] = []
        self.changed = False
        self._new_coset()
        for g in sorted(subgroup_gens):
            self._set(0, g, 0)

    def _new_coset(self) -> int:
        if len(self.table) >= self.budget:
            raise BudgetExceeded(self.budget)
        c = len(self.table)
        self.table.append([UNDEF] * self.ngens)
        self.parent.append(c)
        return c

    def find(self, c: int) -> int:
        parent = self.parent
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def _unify(self, a: int, b: int) -> None:
        queue = [(a, b)]
        table = self.table
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.parent[b] = a
            self.changed = True
            row_b = table[b]
            row_a = table[a]
            for g in range(self.ngens):
                nb = row_b[g]
                if nb == UNDEF:
                    continue
                nb = self.find(nb)
                na = row_a[g]
                if na == UNDEF:
                    row_a[g] = nb
                    back = table[nb][g]
                    if back == UNDEF:
                        table[nb][g] = a
                    else:
                        queue.append((back, a))
                else:
                    queue.append((na, nb))

    def _set(self, a: int, g: int, b: int) -> None:
        # Record a*x_g = b together with the involutory reverse edge.
        a, b = self.find(a), self.find(b)
        ea = self.table[a][g]
        if ea != UNDEF:
            if self.find(ea) != b:
                self._unify(ea, b)
            return
        self.table[a][g] = b
        self.changed = True
        eb = self.table[b][g]
        if eb == UNDEF:
            self.table[b][g] = a
        elif self.find(eb) != a:
            self._unify(eb, a)

    def scan(self, c: int, w: Word) -> None:
        """Trace relator w from coset c, defining cosets to close the scan."""
        table = self.table
        find = self.find
        while True:
            f = find(c)
            b = f
            i, j = 0, len(w) - 1
            while True:
                while i <= j:
                    nxt = table[f][w[i]]
                    if nxt == UNDEF:
                        break
                    f = find(nxt)
                    i += 1
                if i > j:
                    if f != b:
                        self._unify(f, b)
                    return
                while j >= i:
                    nxt = table[b][w[j]]
                    if nxt == UNDEF:
                        break
                    b = find(nxt)
                    j -= 1
                if j < i:
                    if f != b:
                        self._unify(f, b)
                    return
                if i == j:
                    self._set(f, w[i], b)
                    return
                # Gap of two or more: define at the first missing entry and
                # restart the scan (entries may have merged meanwhile).
                self._set(f, w[i], self._new_coset())
                break

    def run(self) -> None:
        current = 0
        while True:
            while current < len(self.table):
                c = current
                current += 1
                if self.find(c) != c:
                    continue
                for w in self.rels:
                    self.scan(c, w)
                    if self.find(c) != c:
                        break
            # Closing sweep: coincidences can add entries to rows processed
            # earlier, so rescan everything until a clean pass.
            self.changed = False
            for c in range(len(self.table)):
                if self.find(c) != c:
                    continue
                for w in self.rels:
                    self.scan(c, w)
                    if self.find(c) != c:
                        break
            if not self.changed and current >= len(self.table):
                return

    def compact(self) -> tuple[tuple[int, ...], ...]:
        live = [c for c in range(len(self.table)) if self.find(c) == c]
        index = {c: i for i, c in enumerate(live)}
        rows = []
        for c in live:
            row = self.table[c]
            assert UNDEF not in row, "closed table has undefined entries"
            rows.append(tuple(index[self.find(v)] for v in row))
        return tuple(rows)


def _check_closed(table: tuple[tuple[int, ...], ...], pres: Presentation) -> bool:
    n = len(table)
    for g in range(pres.ngens):
        col = [row[g] for row in table]
        if sorted(col) != list(range(n)):
            return False
        if any(table[col[c]][g] != c for c in range(n)):
            return False
    for w in pres.relators:
        for c in range(n):
            x = c
            for letter in w:
                x = table[x][letter]
            if x != c:
                return False
    return True


def reference_table(
    pres: Presentation, subgroup_gens=(), max_cosets: int = 100_000
) -> tuple[tuple[int, ...], ...]:
    """The closed table the two-pass enumerator builds, compacted."""
    _require_involutions(pres)
    gens = frozenset(subgroup_gens)
    enum = _Enumerator(pres, gens, max_cosets)
    enum.run()
    table = enum.compact()
    if not _check_closed(table, pres):
        raise AssertionError("reference enumeration produced an inconsistent table")
    return table


def _certify(degree: int, columns: tuple[tuple[int, ...], ...], pres: Presentation) -> None:
    """The full-trace certificate: every generator column is an involutive
    permutation of 0..degree-1, and every other relator closes from every
    coset. Raises RelatorViolation otherwise."""
    points = list(range(degree))
    for g, col in enumerate(columns):
        if sorted(col) != points or list(map(col.__getitem__, col)) != points:
            raise RelatorViolation(f"column {g} is not an involutive permutation")
    for w in pres.relators:
        if involution_letter(w) is not None:
            continue  # certified by the column check
        # w = u^k acts as the k-th power of u's permutation: trace u from
        # every coset at once, then raise to the k-th power by squaring. The
        # length of u is w's period, the smallest shift that rotates w onto
        # itself (1 for the empty word, which closes everywhere).
        size = next((t for t, r in enumerate(rotations(w)) if t and r == w), len(w)) or 1
        u, k = w[:size], len(w) // size
        step = points
        for letter in u:
            step = list(map(columns[letter].__getitem__, step))
        images = points
        while k:
            if k & 1:
                images = list(map(step.__getitem__, images))
            k >>= 1
            if k:
                step = list(map(step.__getitem__, step))
        if images != points:
            c = next(c for c in points if images[c] != c)
            raise RelatorViolation(f"relator {w} does not close at coset {c}")
