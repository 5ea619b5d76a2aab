"""The element readings of `tightpoly.sggi` and `tightpoly.engine` on full
permutations: the differential oracle for the point-0 readings there.

Copied verbatim from the permutation-composing code: `check_sggi`,
`degenerate_generators`, `_pair_products` and `_rotation_index` from
`sggi`, `element_order` and `check_generator_map` from `engine`.
`schlafli_of_group` is the `sggi` function with this module's
`element_order`. Each builds the permutation a word spells with
`reference_elements.compose` or `eval_word` and compares it with
`identity_perm`, so it needs no regular representation; tests demand the
same answers from the point-0 versions on regular ones.
"""

from __future__ import annotations

from typing import Sequence

from reference_elements import compose, eval_word, identity_perm, perm_order
from tightpoly import engine
from tightpoly.errors import InvariantViolation
from tightpoly.toddcox import PermRep
from tightpoly.words import Presentation, Word


def check_sggi(rep: PermRep) -> bool:
    """Generators square to 1 and non-adjacent pairs commute."""
    n = len(rep.gens)
    ident = identity_perm(rep.degree)
    for g in rep.gens:
        if compose(g, g) != ident:
            return False
    for i in range(n):
        for j in range(i + 2, n):
            if eval_word(rep, (i, j, i, j)) != ident:
                return False
    return True


def degenerate_generators(rep: PermRep) -> tuple[int, ...]:
    """Indices of generators equal to the identity."""
    ident = identity_perm(rep.degree)
    return tuple(i for i, g in enumerate(rep.gens) if g == ident)


def element_order(rep: PermRep, word: Word) -> int:
    return perm_order(eval_word(rep, word))


def schlafli_of_group(rep: PermRep) -> tuple[int, ...]:
    """Orders of the products of consecutive generators."""
    return tuple(
        element_order(rep, (i - 1, i)) for i in range(1, len(rep.gens))
    )


def _pair_products(rep: PermRep) -> tuple[engine.Perm, ...]:
    """The products x_i x_j of two distinct generators, which generate the
    rotation subgroup."""
    n = len(rep.gens)
    return tuple(
        compose(rep.gens[i], rep.gens[j])
        for i in range(n)
        for j in range(n)
        if i != j
    )


def _rotation_index(rep: PermRep) -> int:
    """Index of the rotation subgroup (all products of two generators) in a
    regular representation: 1 or 2, as the group is generated by involutions."""
    pairs = _pair_products(rep)
    pair_rep = PermRep(degree=rep.degree, gens=pairs)
    rotations = len(engine.point_orbit(pair_rep, range(len(pairs))))
    index, rem = divmod(rep.degree, rotations)
    if rem or index not in (1, 2):
        raise InvariantViolation(f"rotation subgroup index {rep.degree}/{rotations}")
    return index


def check_generator_map(
    src: Presentation, dst_rep: PermRep, images: Sequence[Word]
) -> bool:
    """Does x_i -> images[i] extend to a homomorphism into the target group?

    True iff every relator of `src` maps to the identity permutation.
    Surjectivity is a separate question; see images_generate.
    """
    if len(images) != src.ngens:
        raise ValueError(f"expected {src.ngens} images, got {len(images)}")
    ident = identity_perm(dst_rep.degree)
    for w in src.relators:
        image_word: tuple[int, ...] = ()
        for letter in w:
            image_word += tuple(images[letter])
        if eval_word(dst_rep, image_word) != ident:
            return False
    return True
