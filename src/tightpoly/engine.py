"""Finite-group computations on permutation representations.

The pipeline reads a regular representation at point 0: a subgroup is its
point set (`point_orbit`), and an element given as a word is the image of
point 0 under it (`_image`), the identity exactly when that is 0. Element
sets from `closure` are plain frozensets of permutation tuples: the
independent oracle the tests compare point sets against, and the
element-level toolkit (centrality, generator maps).
Permutations compose left to right: compose(p, q) applies p first.
"""

from __future__ import annotations

from enum import Enum
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import CapExceeded
from .toddcox import PermRep, group_order
from .words import Presentation, Word

DEFAULT_ELEMENT_CAP = 5000
UNASSIGNED = -1

Perm = tuple[int, ...]


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    return tuple(map(q.__getitem__, p))


def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def perm_order(p: Perm) -> int:
    order = 1
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        order = order * length // gcd(order, length)
    return order


def eval_word(rep: PermRep, word: Word) -> Perm:
    p = identity_perm(rep.degree)
    for letter in word:
        p = compose(p, rep.gens[letter])
    return p


def _image(rep: PermRep, word: Word, point: int = 0) -> int:
    """The image of a point under a word, its letters applied left to right."""
    for letter in word:
        point = rep.gens[letter][point]
    return point


def closure_perms(degree: int, perms: Iterable[Perm], cap: int | None = None) -> frozenset[Perm]:
    """Breadth-first closure of a generating set; includes the identity."""
    cap = DEFAULT_ELEMENT_CAP if cap is None else cap
    gens = list(perms)
    elements = {identity_perm(degree)}
    frontier = list(elements)
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in elements:
                    if len(elements) >= cap:
                        raise CapExceeded(cap)
                    elements.add(q)
                    new.append(q)
        frontier = new
    return frozenset(elements)


def closure(rep: PermRep, gen_indices: Iterable[int], cap: int | None = None) -> frozenset[Perm]:
    """Element set of the subgroup generated by the indexed generators."""
    return closure_perms(rep.degree, (rep.gens[i] for i in gen_indices), cap)


def point_orbit(rep: PermRep, gen_indices: Iterable[int], start: int = 0) -> frozenset[int]:
    """Orbit of a point under the indexed generators.

    For a regular representation the orbit of point 0 under a generator
    subset is exactly the point set of the subgroup it generates, so this
    encodes the same element set as `closure` without composing a single
    permutation.
    """
    gens = [rep.gens[i] for i in gen_indices]
    seen = {start}
    frontier = [start]
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
    transitivity is equivalent to regularity.
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
    qi = 0
    while qi < len(queue):
        y = queue[qi]
        qi += 1
        for k in range(n):
            x = gens[k][y]
            if not seen[x]:
                seen[x] = True
                for j in range(n):
                    lam[j][x] = gens[k][lam[j][y]]
                queue.append(x)
    if not all(seen):
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


class Conjugation(Enum):
    FIXES = "fixes"
    INVERTS = "inverts"
    NEITHER = "neither"


def conjugation_class(rep: PermRep, g: Word, w: Word) -> Conjugation:
    """Classify g w g^-1 relative to w (letters are involutions)."""
    conj = eval_word(rep, g + w + tuple(reversed(g)))
    pw = eval_word(rep, w)
    if conj == pw:
        return Conjugation.FIXES
    if conj == invert(pw):
        return Conjugation.INVERTS
    return Conjugation.NEITHER


def is_central_in(rep: PermRep, word: Word, subgroup: Iterable[Perm]) -> bool:
    p = eval_word(rep, word)
    return all(compose(p, h) == compose(h, p) for h in subgroup)


def check_generator_map(
    src: Presentation, dst_rep: PermRep, images: Sequence[Word]
) -> bool:
    """Does x_i -> images[i] extend to a homomorphism into the target group?

    True iff every relator of `src` maps to the identity, that is, its image
    word fixes point 0: `dst_rep` must be regular. Surjectivity is a
    separate question; see images_generate.
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


def _presents_subgroup(
    pres: Presentation,
    rep: PermRep,
    gen_indices: Sequence[int],
    max_cosets: int | None,
) -> bool:
    """Is x_i -> gen_indices[i] an isomorphism from the group of `pres` onto
    the subgroup of a regular rep generated by the indexed generators?

    The relators holding on the images give a surjection onto the subgroup,
    so equal orders certify a bijection.
    """
    if not check_generator_map(pres, rep, [(g,) for g in gen_indices]):
        return False
    return group_order(pres, max_cosets) == len(point_orbit(rep, gen_indices))


def images_generate(dst_rep: PermRep, images: Sequence[Word]) -> bool:
    """Do the image words generate the whole target group?"""
    image_perms = [eval_word(dst_rep, w) for w in images]
    full = closure_perms(dst_rep.degree, dst_rep.gens)
    return len(closure_perms(dst_rep.degree, image_perms)) == len(full)


def generator_map_extends(
    degree: int,
    gens: Sequence[Perm],
    images: Sequence[Perm],
) -> Mapping[Perm, Perm] | None:
    """Extend gens[i] -> images[i] over the group generated by `gens`.

    Walks the Cayley graph checking edge consistency, which is equivalent to
    multiplicativity. Returns the full map, or None if the assignment does
    not extend to a homomorphism.
    """
    if len(gens) != len(images):
        raise ValueError("gens and images must have equal length")
    target_degree = len(images[0]) if images else degree
    phi: dict[Perm, Perm] = {identity_perm(degree): identity_perm(target_degree)}
    frontier = list(phi)
    while frontier:
        new = []
        for a in frontier:
            fa = phi[a]
            for g, fg in zip(gens, images):
                b = compose(a, g)
                fb = compose(fa, fg)
                seen = phi.get(b)
                if seen is None:
                    if len(phi) >= DEFAULT_ELEMENT_CAP:
                        raise CapExceeded(DEFAULT_ELEMENT_CAP)
                    phi[b] = fb
                    new.append(b)
                elif seen != fb:
                    return None
        frontier = new
    return phi


def is_automorphism_map(phi: Mapping[Perm, Perm]) -> bool:
    """Is an extended generator map a bijection onto the same group?"""
    values = set(phi.values())
    return len(values) == len(phi) and values == set(phi.keys())
