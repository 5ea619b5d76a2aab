"""Finite-group computations on permutation representations (`PermRep`,
which `toddcox` builds and certifies).

The pipeline reads a regular representation at point 0: a subgroup is its
point set (`point_orbit`), and an element given as a word is the image of
point 0 under it (`_image`), the identity exactly when that is 0.
Permutations are composed only in `closure_perms`, which stays because the
benchmark traces it by name, and in `acts_regularly`'s test that columns
of different classes commute. The element sets the tests compare point
sets against are built with `closure_perms` in
`tests/reference_elements.py`, which also holds the permutation products
(`compose`, `invert`, `perm_order`); the tests' odd-even-odd rotation
representation, which is not regular, uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import CapExceeded
from .words import Presentation, Word

DEFAULT_ELEMENT_CAP = 5000
UNASSIGNED = -1
# A point's state in `left_action`'s traversal.
UNSEEN, QUEUED, PROCESSED = 0, 1, 2

Perm = tuple[int, ...]


@dataclass(frozen=True)
class PermRep:
    """Permutations of the generators on points 0..degree-1.

    Permutations act on the right: a word is applied letter by letter, so
    evaluating (a, b) sends point x to gens[b][gens[a][x]]. The pipeline's
    reps come from `toddcox.regular_rep` or `toddcox.perm_rep`, whose
    certificate proved the action regular; the rep is its columns alone.
    """

    degree: int
    gens: tuple[Perm, ...]


def _image(rep: PermRep, word: Word, point: int = 0) -> int:
    """The image of a point under a word, its letters applied left to right."""
    for letter in word:
        point = rep.gens[letter][point]
    return point


def closure_perms(degree: int, perms: Iterable[Perm], cap: int | None = None) -> frozenset[Perm]:
    """Breadth-first closure of a generating set; includes the identity."""
    cap = DEFAULT_ELEMENT_CAP if cap is None else cap
    gens = list(perms)
    elements = {tuple(range(degree))}
    frontier = list(elements)
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple(map(g.__getitem__, p))
                if q not in elements:
                    if len(elements) >= cap:
                        raise CapExceeded(cap)
                    elements.add(q)
                    new.append(q)
        frontier = new
    return frozenset(elements)


def point_orbit(rep: PermRep, gen_indices: Iterable[int]) -> frozenset[int]:
    """Orbit of point 0 under the indexed generators.

    For a regular representation the orbit of point 0 under a generator
    subset is exactly the point set of the subgroup it generates, so this
    encodes the subgroup's element set without composing a single
    permutation.
    """
    gens = [rep.gens[i] for i in gen_indices]
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def left_action(rep: PermRep) -> tuple[Perm, ...] | None:
    """Left-multiplication permutations of the generators on the points of a
    regular representation, or None if the action is not regular.

    The candidates λ_j are built along a breadth-first spanning tree from
    point 0 and must commute with every right-multiplication column ρ_k,
    which together with transitivity is equivalent to regularity. That is,
    every edge y -> x = ρ_k(y) of the Schreier graph needs
    λ_j(x) = ρ_k(λ_j(y)) for all j. A discovery edge sets λ_j(x) to exactly
    that, so only the edges the tree does not settle are compared, each as
    the traversal meets it, and the first failure returns None.

    An edge of an involutive column ρ_k back to a point x processed before
    y needs no comparison: when x was processed, its own edge along ρ_k led
    to ρ_k(x) = y, and either discovered y or was compared, so
    λ_j(y) = ρ_k(λ_j(x)), and applying ρ_k gives the edge from y. Each
    undirected non-tree edge of such a column, and each of its fixed
    points, is thus compared once, for all n of the λ_j. A column that is
    not an involution gets no such skip: each of its non-discovery edges is
    compared. `toddcox._certify_regular` checks that its columns are
    involutive permutations before `acts_regularly` hands them here, whole
    or one class at a time, and keeps only the verdict; the census's tables
    are involutive too.
    """
    n = len(rep.gens)
    d = rep.degree
    gens = rep.gens
    points = list(range(d))
    columns = [(g, [g[x] for x in g] == points) for g in gens]
    lam = [[UNASSIGNED] * d for _ in range(n)]
    for j in range(n):
        lam[j][0] = gens[j][0]
    state = [UNSEEN] * d
    state[0] = QUEUED
    queue = [0]
    for y in queue:  # the loop visits the points appended as it runs
        for gk, involutive in columns:
            x = gk[y]
            mark = state[x]
            if mark == UNSEEN:
                state[x] = QUEUED
                for lj in lam:
                    lj[x] = gk[lj[y]]
                queue.append(x)
            elif mark == QUEUED or not involutive:
                for lj in lam:
                    if lj[x] != gk[lj[y]]:
                        return None
        state[y] = PROCESSED
    if len(queue) < d:
        return None
    return tuple(tuple(row) for row in lam)


def acts_regularly(rep: PermRep) -> bool:
    """Is the action of the rep regular? `left_action`'s verdict, read one
    commuting class of columns at a time.

    Columns a, b share a class when their commutator moves point 0
    (0·abab != 0); the classes are the connected components. A table of one
    class goes to `left_action` whole. Otherwise the columns of different
    classes must commute at every point, and each class, restricted to the
    orbit O_i of point 0 under the subgroup H_i it generates, must pass
    `left_action`. If the |O_i| multiply to the degree d, the table is
    regular iff it is transitive; if not, it goes to `left_action` whole.

    The class lemma: let the H_i commute with each other, G = H_1···H_m be
    transitive, and each H_i act regularly on O_i. An h in H_i that fixes
    O_i fixes every point, as 0·h_1···h_m·h = (0·h_i·h)·∏_{j≠i} h_j, so H_i
    is faithful on O_i, |H_i| = |O_i|, and d <= |G| <= ∏|O_i|. A product of
    d makes G regular. Each rejection is exact: in a regular action an
    element that fixes a point is the identity, so columns of different
    classes commute, and H_i acts freely, so regularly on O_i. The product exceeds d when the H_i
    meet (x0 = x2 in [2, 2]: 8 on 4 points), where the lemma says nothing.

    Transitivity is read off the classes' breadth-first trees. For y = 0·g,
    g in H_1···H_{k-1}, and h in H_k taking 0 to o = 0·w_o, w_o the tree's
    word, y·h = o·g = y·w_o. So the orbit of 0 under H_1···H_k is the
    earlier orbit moved by each w_o, one column step per tree edge: ∏|O_i|
    = d images in all.
    """
    gens = rep.gens
    n = len(gens)
    label = list(range(n))
    for i, j in combinations(range(n), 2):
        a, b = gens[i], gens[j]
        if b[a[b[a[0]]]] != 0 and label[i] != label[j]:
            old, new = label[j], label[i]
            label = [new if c == old else c for c in label]
    names = sorted(set(label))
    if len(names) <= 1:
        return left_action(rep) is not None
    classes = [[i for i in range(n) if label[i] == c] for c in names]
    after = [itemgetter(*g) for g in gens]  # after[i](g)[x] is g[gens[i][x]]
    for ci, cj in combinations(classes, 2):
        for i in ci:
            for j in cj:
                if after[i](gens[j]) != after[j](gens[i]):
                    return False
    size = 1
    trees = []
    for c in classes:
        cols = [gens[i] for i in c]
        orbit, edges = [0], []  # edges[k - 1] discovered orbit[k]: (parent's index, column)
        position = {0: 0}
        for k, x in enumerate(orbit):  # the loop visits the points appended as it runs
            for g in cols:
                y = g[x]
                if y not in position:
                    position[y] = len(orbit)
                    orbit.append(y)
                    edges.append((k, g))
        restricted = tuple(tuple([position[g[x]] for x in orbit]) for g in cols)
        if left_action(PermRep(len(orbit), restricted)) is None:
            return False
        size *= len(orbit)
        trees.append(edges)
    if size != rep.degree:
        return left_action(rep) is not None
    points = [0]
    for edges in trees:
        moved = [points]  # moved[k]: the points so far, moved by the tree's word to its k-th point
        for k, g in edges:
            moved.append(list(map(g.__getitem__, moved[k])))
        points = list(chain.from_iterable(moved))
    return len(set(points)) == rep.degree


def element_order(rep: PermRep, word: Word) -> int:
    """Order of a word's element in a regular rep: the length of the cycle
    of point 0 under it."""
    order, point = 1, _image(rep, word)
    while point != 0:
        order, point = order + 1, _image(rep, word, point)
    return order


def check_generator_map(
    src: Presentation, dst_rep: PermRep, images: Sequence[Word]
) -> bool:
    """Does x_i -> images[i] extend to a homomorphism into the target group?

    True iff every relator of `src` maps to the identity, that is, its image
    word fixes point 0: `dst_rep` must be regular. Surjectivity is a
    separate question, which `classifier._presents_subgroup` settles by
    orders.
    """
    if len(images) != src.ngens:
        raise ValueError(f"expected {src.ngens} images, got {len(images)}")
    for w in src.relators:
        point = 0
        for letter in w:
            point = _image(dst_rep, images[letter], point)
        if point != 0:
            return False
    return True
