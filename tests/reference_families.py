"""The family subgroup checks as they were on element sets: the differential
oracle for the point-set checks in `paper_checks` and the shared
isomorphism certificate `tightpoly.classifier._presents_subgroup`.

Copied verbatim from the closure-based code: `_klein_four_checks`,
`check_fap` and `subgroup_2_check` from `families`, `_family_isomorphism`
from `classifier`. Each builds its subgroup as a frozenset of permutations
with `reference_elements.closure` or `engine.closure_perms`, and checks
generator maps with the permutation-composing
`reference_sggi.check_generator_map`; tests demand the same answers from
the point-set versions.

`direct_line` is the whole-presentation oracle for an atlas line, which
`TestBlockProducts` and the `atlas` and `atlas7` gates of `tests/gates.py`
hold the block route to.
"""

from __future__ import annotations

from typing import Sequence

from paper_checks import FapSide, kill_generators
from reference_elements import closure, compose, eval_word, identity_perm
from reference_sggi import check_generator_map
from tightpoly import engine, families, sggi
from tightpoly.atlas import entry_from_verdict
from tightpoly.poset import build_poset, poset_checks
from tightpoly.toddcox import PermRep, group_order, regular_rep
from tightpoly.words import gamma_tuple_presentation, validate_symbol


def _klein_four_checks(rep: PermRep, k: int, cap: int | None) -> tuple[bool, bool]:
    """Normal Klein 4-subgroup generated by x2 and x1 x2 x1, with dihedral
    quotient of order 6k (certified by order arithmetic plus the order of
    x0 x1 modulo the subgroup)."""
    ident = identity_perm(rep.degree)
    a = rep.gens[2]
    b = eval_word(rep, (1, 2, 1))
    subgroup = engine.closure_perms(rep.degree, [a, b], cap)
    klein = len(subgroup) == 4 and all(
        compose(h, h) == ident for h in subgroup
    )
    normal = klein and all(
        compose(compose(g, h), g) in subgroup
        for g in rep.gens
        for h in subgroup
    )
    if not normal:
        return False, False
    quotient_order = rep.degree // 4
    rho01 = eval_word(rep, (0, 1))
    power = ident
    image_order = 0
    for m in range(1, rep.degree + 1):
        power = compose(power, rho01)
        if power in subgroup:
            image_order = m
            break
    dihedral = quotient_order == 6 * k and image_order == 3 * k
    return True, dihedral


def check_fap(
    sym: Sequence[int],
    side: FapSide,
    max_cosets: int | None = None,
    cap: int | None = None,
) -> bool:
    """Does killing the generators above (or below) the cut leave a
    presentation of the corresponding parabolic subgroup?

    Certified by order equality: the killed quotient always receives a
    surjection from the parabolic, so equal orders mean the natural map is
    a bijection.
    """
    entries = validate_symbol(sym)
    n = len(entries) + 1
    pres = gamma_tuple_presentation(entries)
    if side == "two_faces":
        keep = range(0, min(2, n))
    elif side == "co_faces":
        keep = range(max(n - 2, 0), n)
    else:
        raise ValueError(f"unknown side {side!r}")
    killed = kill_generators(pres, keep)
    killed_order = group_order(killed, max_cosets)
    rep = regular_rep(pres, max_cosets)
    parabolic = closure(rep, keep, cap)
    return killed_order == len(parabolic)


def subgroup_2_check(
    sym: Sequence[int],
    max_cosets: int | None = None,
    cap: int | None = None,
) -> bool:
    """Where an entry equals 2, the prefix and suffix parabolic subgroups
    must realize the corresponding family groups.

    Checked for every slot with entry 2, in both directions: the family
    relators hold on the parabolic generators, and the orders agree.
    """
    entries = validate_symbol(sym)
    slots = [i for i, p in enumerate(entries, start=1) if p == 2]
    if not slots:
        raise ValueError(f"no entry equal to 2 in {entries}")
    n = len(entries) + 1
    rep = regular_rep(gamma_tuple_presentation(entries), max_cosets)
    for i in slots:
        for keep, part in (
            (tuple(range(0, i + 1)), entries[:i]),
            (tuple(range(i - 1, n)), entries[i - 1 :]),
        ):
            part_pres = gamma_tuple_presentation(part)
            images = [(g,) for g in keep]
            if not check_generator_map(part_pres, rep, images):
                return False
            parabolic = closure(rep, keep, cap)
            if len(parabolic) != group_order(part_pres, max_cosets):
                return False
    return True


def _family_isomorphism(
    family_pres, rep: PermRep, max_cosets: int | None
) -> bool:
    """Is the identity generator map an isomorphism from the family group?

    The quotient satisfies the Coxeter relators by construction, so checking
    the family relators plus equal orders certifies a bijection.
    """
    images = [(g,) for g in range(len(rep.gens))]
    if not check_generator_map(family_pres, rep, images):
        return False
    return group_order(family_pres, max_cosets) == rep.degree


def direct_line(t: tuple[int, ...]) -> str:
    """The atlas line of a tuple from the enumeration of its whole
    presentation, with the whole rep's own profile and poset checks: the
    oracle for a line whose rep, profile and poset checks come from its
    tuple's blocks."""
    pres = gamma_tuple_presentation(t)
    rep = regular_rep(pres)
    verdict = families._verdict("gamma", t, pres, sggi.profile(rep), poset_checks(build_poset(rep)), True)
    return entry_from_verdict(verdict).to_json_line()
