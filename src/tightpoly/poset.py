"""Face posets from the coset construction, and the polytope axioms.

Proper faces of rank i are the cosets gΓ_i of the subgroup Γ_i omitting
generator i: the orbits of the points under the rep's own columns x_j,
j != i. `build_poset` writes them as labels, one face id per point per
rank, and builds no point set. Two faces of different ranks are incident
exactly when their point sets meet: each point lies in one face of each
rank, so the comparability rows come from the labels (`label_rows`).
Inversion maps each gΓ_i onto Γ_i g^-1 and keeps intersections, so the
cosets Γ_i g give the same poset up to numbering (McMullen-Schulte,
*Abstract Regular Polytopes*, 2E). Meeting need not be transitive, so
`verify_polytope` checks that it is; it is when x_i and x_j commute for
|i - j| >= 2 (ibid.). `build_poset` gives the faces of each rank in
increasing order of least point, and faces are numbered in the order
given, so builds are deterministic and golden files stable.

The improper least and greatest faces are implicit. Failure messages name
them (-1, 0) and (n, 0), as (rank, index) face references; inside they are
the ids -1 and the number of proper faces.

A poset from the coset construction is transitive on the faces of each rank:
the certificate of a rep (`toddcox._certify_regular`) proved its action
regular, so left multiplication by each group element is a permutation of
the points that commutes with the columns. It maps each coset gΓ_i to the
coset hgΓ_i, so each face of rank i to a face of rank i, keeps
intersections, and is transitive on the points. So `build_poset` marks one
root face per rank, the face that holds point 0, which is face 0 of its
rank since the faces of a rank come in increasing order of least point.
The verdicts (the section pass, the transitivity check, the flag count,
the Schlafli symbol and flatness, and the chain walk where it runs) start
only at roots, and each root stands for its whole rank. The first failure
is unchanged: every loop visits ranks in ascending order and the faces of
a rank by id, a failure at some face of a rank is a failure at every face
of that rank, and the root is the first of them.

Under transitive incidence no verdict lists the maximal chains: the chain
lengths follow from the section pass (`verify_polytope`) and the flags are
counted rank by rank (`flag_count`). The chains are walked only when
incidence is not transitive or some interval is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from .errors import (
    DiamondViolation,
    InvariantViolation,
    PreconditionViolated,
    RouteDisagreement,
)
from .engine import PermRep

FaceRef = tuple[int, int]  # (rank, index within rank)


@dataclass(frozen=True)
class PosetReport:
    chain_lengths: bool
    connected: bool
    diamond: bool
    transitive_incidence: bool
    first_failure: str | None

    @property
    def passed(self) -> bool:
        return self.chain_lengths and self.connected and self.diamond and self.transitive_incidence


@dataclass(frozen=True)
class NotEquivelar:
    """Witness that two rank-2 sections at the same slot have unequal sizes."""

    position: int  # 1-based symbol slot
    sizes: tuple[int, int]


@dataclass(frozen=True)
class FlagSystem:
    """All flags (ascending face ids, one per proper rank) with j-adjacency."""

    flags: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, ...], ...]  # adjacency[f][j] = index of the j-adjacent flag


class FacePoset:
    """Ranked poset of proper faces, given by its comparability rows.

    `counts[i]` is the number of faces of rank i, and the proper faces are
    the ids 0 .. _total - 1 in rank order. `rows[f]` is the bitmask of the
    proper faces comparable with face f, f itself included; `build_poset`
    computes the rows from its labels (`label_rows`), in which two faces of
    different ranks are comparable when their point sets meet. Inside, the
    greatest face is _total and the least face is -1. `_offsets`,
    `_rank_of` and `_comp` end with an entry for the greatest and then one
    for the least face, so index -1 reaches the least face's entry.

    `_roots` is the mask of the faces the verdicts start from. By default it
    holds every proper face. `transitive=True` promises automorphisms that
    are transitive on the faces of each rank, as the coset construction
    gives, and keeps face 0 of each rank only: a walk or a section check
    from any other face is the image of one from the root of its rank, so
    its outcome is the same, and the root is the first face of its rank in
    every loop, so the first failure reported is the same too.
    `flags_and_adjacency` lists every flag and walks from every face.
    """

    def __init__(self, counts, rows, transitive: bool = False):
        self.rank = rank = len(counts)
        self._counts = tuple(counts)
        self._offsets: list[int] = []  # id of the first face of each rank
        self._rank_of: list[int] = []  # rank of each id
        for i, count in enumerate(counts):
            self._offsets.append(len(self._rank_of))
            self._rank_of += [i] * count
        self._total = total = len(self._rank_of)
        self._offsets += [total, -1]
        self._rank_of += [rank, -1]
        top = 1 << total
        everything = (top << 1) - 1
        # _below[i] = bitmask of the ids of rank < i, for 0 <= i <= rank + 1
        self._below = [(1 << offset) - 1 for offset in self._offsets[:-1]] + [everything]
        # The greatest face is comparable with every proper face, and both
        # improper faces with every id.
        self._comp = [row | top for row in rows] + [everything, everything]
        self._roots = top - 1
        if transitive:
            self._roots = sum(m & -m for m in map(self._rank_mask, range(rank)))
        self._flags: int | None = None
        self._schlafli: tuple[int, ...] | NotEquivelar | None = None

    # -- face bookkeeping ---------------------------------------------------

    def face_counts(self) -> tuple[int, ...]:
        return self._counts

    def _rank_mask(self, i: int) -> int:
        return ((1 << self._counts[i]) - 1) << self._offsets[i]

    @staticmethod
    def _ids(mask: int) -> list[int]:
        """The ids in a bitmask, ascending."""
        ids = []
        while mask:
            low = mask & -mask
            mask ^= low
            ids.append(low.bit_length() - 1)
        return ids

    def _between_mask(self, lo: int, hi: int) -> int:
        """Bitmask of proper faces strictly between the faces with ids lo and hi."""
        r_lo, r_hi = self._rank_of[lo], self._rank_of[hi]
        if r_hi - r_lo < 2:
            return 0
        return self._below[r_hi] & ~self._below[r_lo + 1] & self._comp[lo] & self._comp[hi]

    # -- polytope axioms ----------------------------------------------------

    def verify_polytope(self) -> PosetReport:
        """Exhaustive check of the five axioms; reports the first failure.

        Under transitive incidence (axiom (e)) a chain is maximal exactly
        when no interval between neighbours holds a face (McMullen-Schulte,
        2B and 2E), so (b) holds when no interval the section pass visits is
        empty. A gap between neighbours c < d of a chain leaves a face of the
        interval (c, d), which by transitivity is comparable with every
        member; an empty interval extends to a maximal chain with a gap. The
        pairs from the roots stand for all pairs, as for (c) and (d). A coset
        poset has no empty interval, since a point lies in one face of each
        rank and those faces meet pairwise. So the chains are walked only
        when incidence is not transitive, an interval is empty, or the pass
        stopped early, as for the (2,3,3) triangle group; a failure of (b)
        is always the walk's first.
        """
        # (a) Unique greatest and least faces hold by construction; the
        # sentinels are single and comparable with every proper face.

        # (c) Sections of rank >= 2 are connected, (d) sections of rank 1 have
        # two middle faces. One pass over the comparable pairs lo < hi at least
        # two ranks apart, in the order: the least face, then the proper faces
        # by id, then the greatest face; the first failure of each is kept.
        # lo is the least face or a root; above the least face, hi is a root
        # or the greatest face. The pass also notes an empty interval, for (b).
        connected = diamond = True
        connect_failure = diamond_failure = None
        empty_interval = False
        rank_of = self._rank_of
        roots = self._roots
        for lo in [-1, *self._ids(roots)]:
            his = self._comp[lo] & ~self._below[rank_of[lo] + 2]
            if lo == -1:
                his &= roots | 1 << self._total
            while his and (connected or diamond):
                low = his & -his
                his ^= low
                hi = low.bit_length() - 1
                mid = self._between_mask(lo, hi)
                empty_interval = empty_interval or not mid
                if rank_of[hi] - rank_of[lo] > 2:
                    if connected and not self._section_connected(mid):
                        connected = False
                        connect_failure = f"section {self._ref_of(hi)}/{self._ref_of(lo)} is disconnected"
                elif diamond and (count := mid.bit_count()) != 2:
                    diamond = False
                    diamond_failure = (
                        f"section {self._ref_of(hi)}/{self._ref_of(lo)} "
                        f"has {count} middle faces, expected 2"
                    )

        # (b) Every maximal chain of proper faces must have one face per rank.
        stray = self._stray
        chain_failure = None
        if stray is not None or empty_interval or not (connected or diamond):
            chain_failure = next(
                (
                    f"maximal chain {[self._ref_of(f) for f in chain]} has "
                    f"{len(chain) + 2} faces, expected {self.rank + 2}"
                    for chain in self._maximal_chains()
                    if len(chain) != self.rank
                ),
                None,
            )

        # (e) is ranked after (b)-(d), whose first failures stand.
        order_failure = None
        if stray is not None:
            f, g, h = map(self._ref_of, stray)
            order_failure = (
                f"incidence is not transitive: {f} < {g} < {h}, but {f} is not below {h}"
            )

        return PosetReport(
            chain_lengths=chain_failure is None,
            connected=connected,
            diamond=diamond,
            transitive_incidence=stray is None,
            first_failure=chain_failure or connect_failure or diamond_failure or order_failure,
        )

    @cached_property
    def _stray(self) -> tuple[int, int, int] | None:
        """Axiom (e), incidence is transitive: f < g < h puts f below h.

        Meeting point sets do not make it so. The first ids f < g < h with f
        not below h, or None. From the roots is enough: for each root f and
        each proper face g above f, every face above g must be comparable
        with f. Cached, so that `flag_count` reads it without a report.
        """
        comp, below, rank_of = self._comp, self._below, self._rank_of
        return next(
            (
                (f, g, (missed & -missed).bit_length() - 1)
                for f in self._ids(self._roots)
                for g in self._ids(comp[f] & below[self.rank] & ~below[rank_of[f] + 1])
                if (missed := comp[g] & ~below[rank_of[g] + 1] & ~comp[f])
            ),
            None,
        )

    def _ref_of(self, fid: int) -> FaceRef:
        i = self._rank_of[fid]
        return (i, fid - self._offsets[i])

    def _maximal_chains(self) -> list[tuple[int, ...]]:
        """The maximal chains whose least face is a root."""
        return self._chains_from(self._roots)

    def _chains_from(self, starts: int) -> list[tuple[int, ...]]:
        """Every maximal chain of proper faces whose least face is in the
        bitmask `starts` once, as ascending face ids, in depth-first order.

        Chains grow upwards from the empty chain, carrying the mask of the
        faces outside the chain comparable with all its members; a chain is
        maximal when that mask is empty.
        """
        comp = self._comp
        below = self._below
        rank_of = self._rank_of
        chains: list[tuple[int, ...]] = []

        def grow(chain: tuple[int, ...], shared: int, candidates: int) -> None:
            if not shared:
                chains.append(chain)
                return
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                f = low.bit_length() - 1
                rest = shared & comp[f] & ~low
                grow(chain + (f,), rest, rest & ~below[rank_of[f] + 1])

        grow((), (1 << self._total) - 1, starts)
        return chains

    def _section_connected(self, inside: int) -> bool:
        """Is comparability connected on the faces in the bitmask `inside`?"""
        if inside == 0:
            return True
        comp = self._comp
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

    def flags_and_adjacency(self) -> FlagSystem:
        """All flags and, for each flag and rank j, its unique j-adjacent flag.

        The flags are the maximal chains with one face per rank; every such
        chain is maximal, since distinct faces of one rank are never comparable.
        DiamondViolation is a flag-level diamond check beside `verify_polytope`.
        """
        everything = (1 << self._total) - 1
        flags = sorted(c for c in self._chains_from(everything) if len(c) == self.rank)
        index = {flag: i for i, flag in enumerate(flags)}
        adjacency = []
        for flag in flags:
            ends = (-1,) + flag + (self._total,)  # ends[j], ends[j + 2] enclose flag[j]
            row = []
            for j in range(self.rank):
                mid = self._between_mask(ends[j], ends[j + 2])
                if mid.bit_count() != 2:
                    raise DiamondViolation(
                        f"{mid.bit_count()} faces between "
                        f"{self._ref_of(ends[j])} and {self._ref_of(ends[j + 2])}"
                    )
                other = mid & ~(1 << flag[j])
                swapped = flag[:j] + (other.bit_length() - 1,) + flag[j + 1 :]
                adj = index.get(swapped)
                if adj is None:
                    raise DiamondViolation(f"swap at rank {j} of {flag} is not a flag")
                row.append(adj)
            adjacency.append(tuple(row))
        return FlagSystem(flags=tuple(flags), adjacency=tuple(adjacency))

    def flag_count(self) -> int:
        """Maximal chains with one face per rank: the flags, on a polytope
        (McMullen-Schulte, 2B). Raises nothing on a non-polytope. Cached.

        Each such chain starts at a vertex, and every vertex starts as many,
        so the vertex roots stand for all the vertices. Under transitive
        incidence a sequence of faces, one per rank and each below the next,
        is such a chain, so the chains are counted rank by rank: a vertex
        root starts one, and a face of rank r ends as many as the faces of
        rank r - 1 below it end together. Every face counted is above a
        vertex root. Otherwise the chains from the roots are walked.
        """
        if self._flags is not None:
            return self._flags
        vertex_roots = self._roots & self._rank_mask(0) if self.rank > 0 else 0
        if vertex_roots and self._stray is None:
            comp = self._comp
            count = [0] * self._total  # count[f] = chains from a vertex root up to f
            above = 0  # the faces above some vertex root
            for v in self._ids(vertex_roots):
                count[v] = 1
                above |= comp[v]
            reached = vertex_roots
            for r in range(1, self.rank):
                lower, reached = reached, above & self._rank_mask(r)
                for f in self._ids(reached):
                    count[f] = sum(count[g] for g in self._ids(comp[f] & lower))
            walked = sum(count[f] for f in self._ids(reached))
        else:
            walked = sum(len(chain) == self.rank for chain in self._maximal_chains())
        if vertex_roots:
            walked = walked * self._counts[0] // vertex_roots.bit_count()
        self._flags = walked
        return walked

    # -- equivelarity, flatness, tightness -------------------------------------

    def combinatorial_schlafli(self):
        """Sizes of the rank-2 sections, or a NotEquivelar witness.

        Requires the polytope axioms to hold. The answer is cached, so
        `is_tight` and a caller reuse it; an exception is not.
        """
        if self._schlafli is not None:
            return self._schlafli
        top = 1 << self._total
        symbol = []
        for i in range(1, self.rank):
            size: int | None = None
            his = top if i == self.rank - 1 else self._rank_mask(i + 1)
            if i == 1:  # above the least face, only roots
                lows, his = [-1], his & (self._roots | top)
            else:
                lows = self._ids(self._roots & self._rank_mask(i - 2))
            for lo in lows:
                for hi in self._ids(self._comp[lo] & his):
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
                        self._schlafli = NotEquivelar(position=i, sizes=(size, vertices))
                        return self._schlafli
            if size is None:
                raise ValueError(f"no rank-2 section at slot {i}")
            symbol.append(size)
        self._schlafli = tuple(symbol)
        return self._schlafli

    def is_flat(self, k: int, m: int) -> bool:
        """Is every k-face incident with every m-face? Asks the k-face roots."""
        if not 0 <= k < m <= self.rank - 1:
            raise ValueError(f"need 0 <= k < m <= {self.rank - 1}, got ({k}, {m})")
        mmask = self._rank_mask(m)
        return all(
            self._comp[f] & mmask == mmask for f in self._ids(self._roots & self._rank_mask(k))
        )

    def is_tight(self) -> bool:
        """Minimum flag count, checked by two independent routes.

        Route A compares the flag count against twice the product of the
        Schlafli entries; route B checks (i, i+2)-flatness for every i. The
        routes must agree.
        """
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


def build_poset(rep: PermRep) -> FacePoset:
    """Coset construction over a regular representation.

    Points are in bijection with group elements, so the rank-i faces (the
    cosets gΓ_i of the subgroup omitting generator i) are exactly the orbits
    of the points under the columns of the other generators. One pass per
    rank starts an orbit at each unlabelled point 0, 1, 2, ... in turn and
    labels each point it reaches with the face id, so each rank comes in
    increasing order of least point, with no point sets. The orbits of a
    rank must have one size, as the cosets of Γ_i do. The comparability
    rows come from the labels (`label_rows`). The rep must come from
    `regular_rep` or `perm_rep`, whose certificate proved the action
    regular: then the left multiplications act on the poset by
    automorphisms, transitively on each rank, and the poset is built with
    `transitive=True`. Only the columns are read.
    """
    n, degree = len(rep.gens), rep.degree
    labels, counts = [], []  # labels[i][x] = id of the rank-i face holding x
    for i in range(n):
        movers = [rep.gens[j] for j in range(n) if j != i]
        face_of = [-1] * degree
        sizes = []
        first = sum(counts)  # id of the first rank-i face
        for start in range(degree):
            if face_of[start] >= 0:
                continue
            face_of[start] = f = first + len(sizes)
            orbit = [start]
            for x in orbit:
                for col in movers:
                    y = col[x]
                    if face_of[y] < 0:
                        face_of[y] = f
                        orbit.append(y)
            sizes.append(len(orbit))
        # The sizes sum to the degree, so max * count is the degree only when they are equal.
        if not sizes or max(sizes) * len(sizes) != degree:
            raise InvariantViolation(f"coset partition size mismatch at rank {i}")
        labels.append(face_of)
        counts.append(len(sizes))
    return FacePoset(counts, label_rows(labels, sum(counts)), transitive=True)


def label_rows(labels, total: int) -> list[int]:
    """The comparability rows of `total` faces given by labels: each rank
    labels every point x with the id `labels[i][x]` of the one rank-i face
    holding it. Row f is the bitmask of the faces that share a point with
    face f, which are f itself and faces of other ranks. One pass ORs the
    faces holding each point, a second ORs those masks over each face."""
    bit = [1 << f for f in range(total)]
    held = [0] * len(labels[0])  # held[x] = the faces holding x
    for face_of in labels:
        held = [h | bit[f] for h, f in zip(held, face_of)]
    rows = [0] * total
    for face_of in labels:
        for f, h in zip(face_of, held):
            rows[f] |= h
    return rows


def poset_checks(poset: FacePoset):
    """(report, flag count, combinatorial type or None, tight) of a coset
    poset from `build_poset`; all but the report are computed for polytopes
    only."""
    report = poset.verify_polytope()
    if not report.passed:
        return report, 0, None, False
    sym = poset.combinatorial_schlafli()
    if isinstance(sym, NotEquivelar):
        return report, poset.flag_count(), None, False
    return report, poset.flag_count(), sym, poset.is_tight()
