"""Finite-group computations on permutation representations (`PermRep`,
which `toddcox` builds and certifies).

The pipeline reads a regular representation at point 0: a subgroup is its
point set (`point_orbit`), and an element given as a word is the image of
point 0 under it (`_image`), the identity exactly when that is 0. The one
composed permutation left here is in `closure_perms`, which stays because
the benchmark traces it by name. The element sets the tests compare point
sets against are built from it in `tests/reference_elements.py`, which also
holds the permutation products (`compose`, `invert`, `perm_order`); the
tests' odd-even-odd rotation representation, which is not regular, uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapExceeded
from .words import Presentation, Word

DEFAULT_ELEMENT_CAP = 5000
UNASSIGNED = -1

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

    Built by breadth-first traversal and then certified: each candidate must
    commute with every right-multiplication column, which together with
    transitivity is equivalent to regularity. `toddcox._certify_regular`
    calls it once per certified table and keeps only the verdict.
    """
    n = len(rep.gens)
    d = rep.degree
    gens = rep.gens
    lam = [[UNASSIGNED] * d for _ in range(n)]
    for j in range(n):
        lam[j][0] = gens[j][0]
    seen = [False] * d
    seen[0] = True
    queue = [0]
    for y in queue:  # the loop visits the points appended as it runs
        for k in range(n):
            x = gens[k][y]
            if not seen[x]:
                seen[x] = True
                for j in range(n):
                    lam[j][x] = gens[k][lam[j][y]]
                queue.append(x)
    if len(queue) < d:
        return None
    for j in range(n):
        lj = lam[j]
        for k in range(n):
            gk = gens[k]
            for x in range(d):
                if lj[gk[x]] != gk[lj[x]]:
                    return None
    return tuple(tuple(row) for row in lam)


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
