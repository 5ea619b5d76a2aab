"""The element-set toolkit on full permutations: the oracle the tests hold the
point-0 readings of `tightpoly.engine` and `tightpoly.sggi` against.

Moved verbatim out of the package, where no pipeline path called it:
`identity_perm`, `compose`, `invert`, `perm_order`, `eval_word`, `closure`,
`Conjugation`, `conjugation_class`, `is_central_in`, `images_generate`,
`generator_map_extends` and `is_automorphism_map` from `engine`,
`quotient_criterion` (with `Side`) and `rotation_subgroup` from `sggi`.
Permutations compose left to right: compose(p, q) applies p first. `is_regular`, the element-closure oracle for `engine.left_action`
and for the regularity check of `toddcox._certify_regular`, is the tests'
own. An element here is the permutation its word spells, and a subgroup
is the frozenset of its elements, closed breadth-first by
`engine.closure_perms`; none of it needs a regular representation.
"""

from __future__ import annotations

from enum import Enum
from itertools import permutations
from math import gcd
from typing import Iterable, Literal, Mapping, Sequence

from tightpoly import engine
from tightpoly.engine import DEFAULT_ELEMENT_CAP, Perm, closure_perms, point_orbit
from tightpoly.errors import CapExceeded
from tightpoly.toddcox import PermRep
from tightpoly.words import Word


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


def closure(rep: PermRep, gen_indices: Iterable[int], cap: int | None = None) -> frozenset[Perm]:
    """Element set of the subgroup generated by the indexed generators."""
    return closure_perms(rep.degree, (rep.gens[i] for i in gen_indices), cap)


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


Side = Literal["facet", "vertexfigure"]


def quotient_criterion(rep: PermRep, quotient_rep: PermRep, side: Side) -> bool:
    """Is the generator-preserving map onto a known string C-group injective
    on the facet (or vertex-figure) subgroup?

    Certified by equal subgroup orders. When true, `rep` is a string C-group
    without running the full intersection check.
    """
    n = len(rep.gens)
    if len(quotient_rep.gens) != n:
        raise ValueError("generator counts differ")
    if side == "facet":
        indices = range(0, n - 1)
    elif side == "vertexfigure":
        indices = range(1, n)
    else:
        raise ValueError(f"unknown side {side!r}")
    big = engine.point_orbit(rep, indices)
    small = engine.point_orbit(quotient_rep, indices)
    return len(big) == len(small)


def rotation_subgroup(rep: PermRep) -> frozenset:
    """Element set of the subgroup generated by all products of two generators."""
    pairs = (compose(g, h) for g, h in permutations(rep.gens, 2))
    return engine.closure_perms(rep.degree, pairs)


def is_regular(rep: PermRep) -> bool:
    """Does the group generated by the rep act regularly on its points?

    The element-closure oracle for `engine.left_action`."""
    try:
        group = closure_perms(rep.degree, rep.gens, cap=rep.degree + 1)
    except CapExceeded:
        return False
    if len(group) != rep.degree:
        return False
    return len(point_orbit(rep, range(len(rep.gens)))) == rep.degree
