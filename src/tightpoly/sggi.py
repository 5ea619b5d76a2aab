"""Verdicts on a group with marked involutory generators.

Every operation here takes the regular representation of the group (the
output of a trivial-subgroup enumeration, where points are in bijection
with group elements) and reads it at point 0: an element, given as a word,
is the identity exactly when it fixes point 0, its order is the length of
point 0's cycle under it, and a subgroup is exactly its point set. So the
intersection condition meets point sets instead of permutation sets. `profile` first meets the point sets of the n(n+1)/2
generator intervals, which suffices for a string group generated by
involutions; only when that check does not apply or fails does it run
`check_intersection_condition`, the exhaustive meet over all pairs of
generator subsets that also finds the first witness. The tests compare it
with the same condition on element sets built by composing permutations
(`tests/reference_elements.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import engine
from .errors import InvariantViolation
from .toddcox import PermRep

Subset = tuple[int, ...]


@dataclass(frozen=True)
class SggiProfile:
    rank: int
    group_order: int
    is_sggi: bool
    degenerate: tuple[int, ...]
    schlafli: tuple[int, ...]
    is_string_c_group: bool
    intersection_witness: tuple[Subset, Subset] | None
    orientable: bool
    rotation_index: int


def check_sggi(rep: PermRep) -> bool:
    """Generators square to 1 and non-adjacent pairs commute."""
    n = len(rep.gens)
    return all(engine._image(rep, (i, i)) == 0 for i in range(n)) and all(
        engine._image(rep, (i, j, i, j)) == 0 for i in range(n) for j in range(i + 2, n)
    )


def degenerate_generators(rep: PermRep) -> tuple[int, ...]:
    """Indices of generators equal to the identity (fixing point 0)."""
    return tuple(i for i, g in enumerate(rep.gens) if g[0] == 0)


def schlafli_of_group(rep: PermRep) -> tuple[int, ...]:
    """Orders of the products of consecutive generators."""
    return tuple(
        engine.element_order(rep, (i - 1, i)) for i in range(1, len(rep.gens))
    )


def _subsets(n: int) -> list[Subset]:
    # Size-graded lexicographic order; the first failing pair in this order
    # is the reported witness.
    return [
        tuple(c) for size in range(n + 1) for c in combinations(range(n), size)
    ]


def check_intersection_condition(rep: PermRep) -> tuple[bool, tuple[Subset, Subset] | None]:
    """Subgroup intersections must match closures of index intersections.

    Checked over every pair of subsets on exact point-set encodings of the
    subgroups (the rep must be regular); on failure, returns the first
    violating pair in size-graded lexicographic order.
    """
    n = len(rep.gens)
    # Subsets as bitmasks of generator indices, so the meet of I and J is a & b.
    keyed = [(sum(1 << i for i in I), I) for I in _subsets(n)]
    orbit = [frozenset()] * (1 << n)
    for a, I in keyed:
        orbit[a] = engine.point_orbit(rep, I)
    for a, I in keyed:
        orbit_a = orbit[a]
        for b, J in keyed:
            if orbit_a & orbit[b] != orbit[a & b]:
                return False, (I, J)
    return True, None


def _interval_condition(rep: PermRep) -> bool:
    """Do the point sets of the generator intervals meet as the intersection
    condition demands?

    With orbit[i, j] the point set of <x_i, ..., x_j> (the empty interval
    j = i - 1 is {0}), every interval of length >= 2 must satisfy
    orbit[i, j-1] & orbit[i+1, j] == orbit[i+1, j-1]. The meets are taken
    shortest first, so each needs only orbits already computed, and the
    first failure stops the check. No meet reads the orbit of the whole
    interval [0, n-1], so it is not taken.
    """
    n = len(rep.gens)
    orbit = {(i, i - 1): frozenset((0,)) for i in range(n + 1)}
    for length in range(1, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            if length >= 2 and orbit[i, j - 1] & orbit[i + 1, j] != orbit[i + 1, j - 1]:
                return False
            if length < n:
                orbit[i, j] = engine.point_orbit(rep, range(i, j + 1))
    return True


def _rotation_index(rep: PermRep) -> int:
    """Index of the rotation subgroup (all products of two generators) in a
    regular representation generated by involutions: 2 exactly when the
    parity of the word length, spread from point 0, is well defined, that
    is, when every generator changes the parity of every point; else 1."""
    parity = [-1] * rep.degree
    parity[0] = 0
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in rep.gens:
            if parity[g[x]] < 0:
                parity[g[x]] = 1 - parity[x]
                frontier.append(g[x])
    if -1 in parity:
        raise InvariantViolation(f"{parity.count(-1)} of {rep.degree} points not reached from point 0")
    return 2 if all(parity[y] != p for g in rep.gens for y, p in zip(g, parity)) else 1


def profile(rep: PermRep) -> SggiProfile:
    """Full verdict bundle for a regular representation.

    For an sggi whose generators are all involutions (none degenerate), the
    intersection condition holds as soon as the generator intervals meet as
    it demands (McMullen and Schulte, Abstract Regular Polytopes, 2002,
    Prop. 2E16(a), applied from the intervals of length 1 up): fewer than
    n(n+1)/2 point sets instead of 2^n, and n(n-1)/2 meets instead of 4^n. A
    degenerate generator (one equal to the identity) is no involution, so
    the rank-1 base of that induction fails and the route is skipped.
    When the route is skipped or a meet fails, the exhaustive
    `check_intersection_condition` gives the verdict and the first witness,
    so the profile is the same as from the exhaustive check alone.
    """
    rot_index = _rotation_index(rep)
    sggi_ok = check_sggi(rep)
    degenerate = degenerate_generators(rep)
    if sggi_ok and not degenerate and _interval_condition(rep):
        c_group, witness = True, None
    else:
        c_group, witness = check_intersection_condition(rep)
    return SggiProfile(
        rank=len(rep.gens),
        group_order=rep.degree,
        is_sggi=sggi_ok,
        degenerate=degenerate,
        schlafli=schlafli_of_group(rep),
        is_string_c_group=sggi_ok and c_group,
        intersection_witness=witness,
        orientable=rot_index == 2,
        rotation_index=rot_index,
    )
