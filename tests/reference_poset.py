"""The face-poset checks as they were before the one-pass rewrite: the
differential oracle for `tightpoly.poset.FacePoset`.

`ReferencePoset` keeps the two chain recursions (maximal chains in
`verify_polytope`, flags in `flags_and_adjacency`), the three section
generators and FaceRef-based `_between_mask`, copied verbatim, over the same
`(rank, levels)` input as `meet_poset`. Tests demand equal reports, flag
systems and Schlafli symbols from both, or the same exception. Its flag
count, flatness and two-route tightness ask every face, so they also hold
`FacePoset`'s root-only verdicts to account. Its fifth axiom, transitive
incidence, was added after the copy: it walks every comparable pair of
proper faces in section order, where `FacePoset` starts only at its roots.
`section` is where the tests take sections from, to rebuild them as
`FacePoset`s.

`FacePoset` takes its comparability rows. Tests that make a poset by hand
give its faces as point sets, rank by rank and each rank in the order
given. `meet_poset` compares every two faces of different ranks by their
point sets, so faces may overlap or miss points. `partition_poset` takes
levels in which every rank partitions the same points, labels the points
and hands the labels to `poset.label_rows`, the routine `build_poset` uses.

`reference_build` is `build_poset` as it was before the label pass: each
face the `frozenset` of an orbit of the rep's own columns, one size per rank
checked, and the levels given to `meet_poset`. `build_poset` must give the
same comparability rows, roots and face counts; `orbit_levels` then gives
the point sets of `build_poset`'s faces, in its numbering.
`left_levels` is the face build before that one read the columns: the
cosets Γ_i g, as the orbits of the left multiplications that
`engine.left_action` computes. Inversion maps them onto the cosets gΓ_i
that `build_poset` takes, so the two posets are isomorphic but number
their faces differently; tests compare their verdicts, not their levels.
"""

from __future__ import annotations

from math import prod
from typing import Iterator

from tightpoly import engine
from tightpoly.engine import PermRep
from tightpoly.errors import (
    DiamondViolation,
    InvariantViolation,
    PreconditionViolated,
    RouteDisagreement,
)
from tightpoly.poset import (
    FacePoset,
    FaceRef,
    FlagSystem,
    NotEquivelar,
    PosetReport,
    label_rows,
)

BOTTOM: FaceRef = (-1, 0)


class NotComparable(Exception):
    """Section endpoints are not incident. Not a `TightpolyError`: no code in
    the package raises it."""


class ReferencePoset:
    def __init__(self, rank: int, levels):
        self.rank = rank
        self.levels: tuple[tuple[frozenset[int], ...], ...] = tuple(
            tuple(sorted(level, key=sorted)) for level in levels
        )
        if len(self.levels) != max(rank, 0):
            raise ValueError(f"rank {rank} needs {rank} proper levels, got {len(self.levels)}")
        self._offsets = []
        total = 0
        for level in self.levels:
            self._offsets.append(total)
            total += len(level)
        self._total = total
        self._comp: list[int] | None = None
        self._flags: FlagSystem | None = None

    def face_id(self, ref: FaceRef) -> int:
        i, k = ref
        return self._offsets[i] + k

    def face_rank(self, fid: int) -> int:
        i = len(self.levels) - 1
        while self._offsets[i] > fid:
            i -= 1
        return i

    def face_points(self, fid: int) -> frozenset[int]:
        i = self.face_rank(fid)
        return self.levels[i][fid - self._offsets[i]]

    def _faces(self) -> Iterator[int]:
        return iter(range(self._total))

    def _rank_mask(self, i: int) -> int:
        return ((1 << len(self.levels[i])) - 1) << self._offsets[i]

    def _comparability(self) -> list[int]:
        # comp[f] = bitmask of faces comparable with f (including f itself)
        if self._comp is not None:
            return self._comp
        comp = [1 << f for f in self._faces()]
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                for a, sa in enumerate(self.levels[i]):
                    fa = self._offsets[i] + a
                    for b, sb in enumerate(self.levels[j]):
                        if sa & sb:
                            fb = self._offsets[j] + b
                            comp[fa] |= 1 << fb
                            comp[fb] |= 1 << fa
        self._comp = comp
        return comp

    def leq(self, lo: FaceRef, hi: FaceRef) -> bool:
        """Order relation; improper faces compare with everything."""
        if lo[0] == -1 or hi[0] == self.rank:
            return True
        if lo[0] > hi[0]:
            return False
        if lo[0] == hi[0]:
            return lo == hi
        comp = self._comparability()
        return bool(comp[self.face_id(lo)] >> self.face_id(hi) & 1)

    def _between_mask(self, lo: FaceRef, hi: FaceRef) -> int:
        """Bitmask of proper faces strictly between lo and hi."""
        comp = self._comparability()
        mask = 0
        for i in range(max(lo[0] + 1, 0), min(hi[0], self.rank)):
            mask |= self._rank_mask(i)
        if lo[0] >= 0:
            mask &= comp[self.face_id(lo)] & ~(1 << self.face_id(lo))
        if hi[0] < self.rank:
            mask &= comp[self.face_id(hi)] & ~(1 << self.face_id(hi))
        return mask

    @property
    def top(self) -> FaceRef:
        return (self.rank, 0)

    # -- polytope axioms ----------------------------------------------------

    def verify_polytope(self) -> PosetReport:
        """Exhaustive check of the five axioms; reports the first failure."""
        failures: list[str] = []

        # (a) Unique greatest and least faces hold by construction; the
        # sentinels are single and comparable with every proper face.

        chain_lengths = True
        # (b) Every maximal chain of proper faces must have one face per rank.
        for chain in self._maximal_chains():
            if len(chain) != self.rank:
                chain_lengths = False
                refs = [self._ref_of(f) for f in chain]
                failures.append(
                    f"maximal chain {refs} has {len(chain) + 2} faces, "
                    f"expected {self.rank + 2}"
                )
                break

        connected = True
        for lo, hi in self._sections_of_rank_at_least(2):
            if not self._section_connected(lo, hi):
                connected = False
                failures.append(f"section {hi}/{lo} is disconnected")
                break

        diamond = True
        for lo, hi in self._sections_of_exact_rank(1):
            count = self._between_mask(lo, hi).bit_count()
            if count != 2:
                diamond = False
                failures.append(
                    f"section {hi}/{lo} has {count} middle faces, expected 2"
                )
                break

        # (e) Incidence is transitive: lo < mid < hi puts lo below hi. Every
        # proper pair lo < mid, and above mid every face of a higher rank.
        transitive_incidence = True
        comp = self._comparability()
        for lo, mid in self._sections(lambda diff: True):
            if lo == BOTTOM or mid == self.top:
                continue
            above = sum(self._rank_mask(i) for i in range(mid[0] + 1, self.rank))
            missed = comp[self.face_id(mid)] & above & ~comp[self.face_id(lo)]
            if missed:
                transitive_incidence = False
                hi = self._ref_of((missed & -missed).bit_length() - 1)
                failures.append(
                    f"incidence is not transitive: {lo} < {mid} < {hi}, but {lo} is not below {hi}"
                )
                break

        return PosetReport(
            chain_lengths=chain_lengths,
            connected=connected,
            diamond=diamond,
            transitive_incidence=transitive_incidence,
            first_failure=failures[0] if failures else None,
        )

    def _ref_of(self, fid: int) -> FaceRef:
        i = self.face_rank(fid)
        return (i, fid - self._offsets[i])

    def _maximal_chains(self) -> Iterator[tuple[int, ...]]:
        # Chains built in ascending rank order are enumerated exactly once;
        # a chain is maximal iff no proper face is comparable with all members.
        comp = self._comparability()
        above = [0] * (self.rank + 1)
        for i in range(self.rank - 1, -1, -1):
            above[i] = above[i + 1] | self._rank_mask(i)

        def rec(members: tuple[int, ...], shared: int) -> Iterator[tuple[int, ...]]:
            candidates = shared & ~sum(1 << f for f in members)
            if candidates == 0:
                yield members
                return
            last_rank = self.face_rank(members[-1])
            m = candidates & above[last_rank + 1]
            while m:
                low = m & -m
                f = low.bit_length() - 1
                m ^= low
                yield from rec(members + (f,), shared & comp[f])

        for f in self._faces():
            yield from rec((f,), comp[f])

    def _sections_of_exact_rank(self, r: int) -> Iterator[tuple[FaceRef, FaceRef]]:
        yield from self._sections(lambda diff: diff - 1 == r)

    def _sections_of_rank_at_least(self, r: int) -> Iterator[tuple[FaceRef, FaceRef]]:
        yield from self._sections(lambda diff: diff - 1 >= r)

    def _sections(self, want) -> Iterator[tuple[FaceRef, FaceRef]]:
        refs: list[FaceRef] = [BOTTOM]
        refs += [self._ref_of(f) for f in self._faces()]
        refs.append(self.top)
        for a, lo in enumerate(refs):
            for hi in refs[a + 1 :]:
                if hi[0] <= lo[0]:
                    continue
                if want(hi[0] - lo[0]) and self.leq(lo, hi):
                    yield lo, hi

    def _section_connected(self, lo: FaceRef, hi: FaceRef) -> bool:
        comp = self._comparability()
        inside = self._between_mask(lo, hi)
        if inside == 0:
            return True
        start = (inside & -inside).bit_length() - 1
        seen = 1 << start
        frontier = [start]
        while frontier:
            f = frontier.pop()
            reach = comp[f] & inside & ~seen
            while reach:
                low = reach & -reach
                reach ^= low
                g = low.bit_length() - 1
                seen |= low
                frontier.append(g)
        return seen == inside

    # -- flags ---------------------------------------------------------------

    def _flag_list(self) -> list[tuple[int, ...]]:
        """Every chain with one face per rank, sorted: the flags, on a polytope."""
        comp = self._comparability()
        flags: list[tuple[int, ...]] = []

        def rec(members: tuple[int, ...], shared: int, next_rank: int) -> None:
            if next_rank == self.rank:
                flags.append(members)
                return
            m = shared & self._rank_mask(next_rank)
            while m:
                low = m & -m
                f = low.bit_length() - 1
                m ^= low
                rec(members + (f,), shared & comp[f], next_rank + 1)

        rec((), (1 << self._total) - 1, 0)
        return sorted(flags)

    def flag_count(self) -> int:
        return len(self._flag_list())

    def flags_and_adjacency(self) -> FlagSystem:
        """All flags and, for each flag and rank j, its unique j-adjacent flag."""
        if self._flags is not None:
            return self._flags
        flags = self._flag_list()
        index = {flag: i for i, flag in enumerate(flags)}
        adjacency = []
        for flag in flags:
            row = []
            for j in range(self.rank):
                lo = self._ref_of(flag[j - 1]) if j > 0 else BOTTOM
                hi = self._ref_of(flag[j + 1]) if j + 1 < self.rank else self.top
                mid = self._between_mask(lo, hi)
                if mid.bit_count() != 2:
                    raise DiamondViolation(
                        f"{mid.bit_count()} faces between {lo} and {hi}"
                    )
                other = mid & ~(1 << flag[j])
                swapped = flag[:j] + (other.bit_length() - 1,) + flag[j + 1 :]
                adj = index.get(swapped)
                if adj is None:
                    raise DiamondViolation(f"swap at rank {j} of {flag} is not a flag")
                row.append(adj)
            adjacency.append(tuple(row))
        self._flags = FlagSystem(flags=tuple(flags), adjacency=tuple(adjacency))
        return self._flags

    def section(self, lo: FaceRef, hi: FaceRef) -> "ReferencePoset":
        """Sub-poset of faces strictly between lo and hi, re-ranked."""
        self._check_ref(lo)
        self._check_ref(hi)
        if not self.leq(lo, hi):
            raise NotComparable(f"{lo} is not below {hi}")
        new_rank = hi[0] - lo[0] - 1
        levels = [[] for _ in range(max(new_rank, 0))]
        mask = self._between_mask(lo, hi)
        while mask:
            low = mask & -mask
            mask ^= low
            fid = low.bit_length() - 1
            i = self.face_rank(fid)
            levels[i - lo[0] - 1].append(self.face_points(fid))
        return ReferencePoset(new_rank, levels)

    def _check_ref(self, ref: FaceRef) -> None:
        i, k = ref
        if i in (-1, self.rank):
            if k != 0:
                raise ValueError(f"bad improper face reference {ref}")
        elif not (0 <= i < self.rank and 0 <= k < len(self.levels[i])):
            raise ValueError(f"face reference {ref} out of range")


    def combinatorial_schlafli(self):
        """Sizes of the rank-2 sections, or a NotEquivelar witness.

        Requires the polytope axioms to hold.
        """
        symbol = []
        for i in range(1, self.rank):
            size: int | None = None
            lows: list[FaceRef] = (
                [BOTTOM] if i == 1 else [(i - 2, k) for k in range(len(self.levels[i - 2]))]
            )
            his: list[FaceRef] = (
                [self.top] if i == self.rank - 1 else [(i + 1, k) for k in range(len(self.levels[i + 1]))]
            )
            for lo in lows:
                for hi in his:
                    if not self.leq(lo, hi):
                        continue
                    mid = self._between_mask(lo, hi)
                    vertices = (mid & self._rank_mask(i - 1)).bit_count()
                    edges = (mid & self._rank_mask(i)).bit_count()
                    if vertices != edges:
                        raise PreconditionViolated(
                            f"rank-2 section at slot {i} is not a polygon; "
                            "the polytope axioms do not hold"
                        )
                    if size is None:
                        size = vertices
                    elif size != vertices:
                        return NotEquivelar(position=i, sizes=(size, vertices))
            if size is None:
                raise ValueError(f"no rank-2 section at slot {i}")
            symbol.append(size)
        return tuple(symbol)

    def is_flat(self, k: int, m: int) -> bool:
        """Is every k-face incident with every m-face? Asks every k-face."""
        if not 0 <= k < m <= self.rank - 1:
            raise ValueError(f"need 0 <= k < m <= {self.rank - 1}, got ({k}, {m})")
        return all(
            self.leq((k, a), (m, b))
            for a in range(len(self.levels[k]))
            for b in range(len(self.levels[m]))
        )

    def is_tight(self) -> bool:
        """The two tightness routes, by flag count and by (i, i+2)-flatness,
        over every face; they must agree."""
        sym = self.combinatorial_schlafli()
        if isinstance(sym, NotEquivelar):
            raise ValueError(f"tightness needs an equivelar poset: {sym}")
        by_count = self.flag_count() == 2 * prod(sym)
        by_flat = all(self.is_flat(i, i + 2) for i in range(self.rank - 2))
        if by_count != by_flat:
            raise RouteDisagreement(
                f"flag count route says {by_count}, flatness route says {by_flat}"
            )
        return by_count


def orbit_levels(degree: int, perms) -> list[list[frozenset[int]]]:
    """For each i, the orbits of the points under the perms other than
    perms[i], each a `frozenset`, started at points 0, 1, 2, ... in turn."""
    n = len(perms)
    levels = []
    for i in range(n):
        movers = [perms[j] for j in range(n) if j != i]
        assigned = [False] * degree
        blocks = []
        for start in range(degree):
            if assigned[start]:
                continue
            orbit = {start}
            assigned[start] = True
            frontier = [start]
            while frontier:
                x = frontier.pop()
                for perm in movers:
                    y = perm[x]
                    if not assigned[y]:
                        assigned[y] = True
                        orbit.add(y)
                        frontier.append(y)
            blocks.append(frozenset(orbit))
        levels.append(blocks)
    return levels


def meet_poset(rank: int, levels, transitive: bool = False) -> FacePoset:
    """The poset of faces given as point sets, `rank` levels of them: two
    distinct faces are comparable when their ranks differ and their point
    sets meet, as in `ReferencePoset._comparability`."""
    levels = [list(level) for level in levels]
    if len(levels) != rank:
        raise ValueError(f"rank {rank} needs {rank} proper levels, got {len(levels)}")
    faces = [(i, face) for i, level in enumerate(levels) for face in level]
    rows = [
        sum(1 << g for g, (j, other) in enumerate(faces) if g == f or i != j and face & other)
        for f, (i, face) in enumerate(faces)
    ]
    return FacePoset(list(map(len, levels)), rows, transitive)


def partition_poset(levels, transitive: bool = False) -> FacePoset:
    """The poset of levels in which every rank partitions the same points
    into non-empty faces, through `label_rows`: each point is labelled with
    the id of its face of each rank. Raises ValueError on other levels."""
    levels = [list(level) for level in levels]
    ids, total = [], 0  # ids[i] = {point: id of the rank-i face holding it}
    for i, level in enumerate(levels):
        ids.append({x: f for f, face in enumerate(level, total) for x in face})
        total += len(level)
        if not all(level) or sum(map(len, level)) != len(ids[i]) or ids[i].keys() != ids[0].keys():
            raise ValueError(f"rank {i} does not partition the points of rank 0")
    labels = [[face_of[x] for x in ids[0]] for face_of in ids]
    return FacePoset(list(map(len, levels)), label_rows(labels, total), transitive)


def reference_build(rep: PermRep) -> FacePoset:
    """The coset poset from point sets: the orbits of the rep's columns,
    each rank checked for one orbit size, compared by pairwise meets."""
    levels = orbit_levels(rep.degree, rep.gens)
    for i, blocks in enumerate(levels):
        sizes = {len(b) for b in blocks}
        if len(sizes) != 1 or len(blocks) * sizes.pop() != rep.degree:
            raise InvariantViolation(f"coset partition size mismatch at rank {i}")
    return meet_poset(len(rep.gens), levels, transitive=True)


def left_levels(rep: PermRep) -> list[list[frozenset[int]]]:
    """The rank-i faces of a regular rep as the cosets Γ_i g: the orbits of
    the points under the left multiplications by the generators other than
    x_i. Raises ValueError on a rep whose action is not regular."""
    lams = engine.left_action(rep)
    if lams is None:
        raise ValueError(f"the action on {rep.degree} points is not regular")
    return orbit_levels(rep.degree, lams)
