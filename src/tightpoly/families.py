"""End-to-end construction and verification of the tight family.

A verdict never raises on a mathematical failure: every claim is recorded
in an ordered claim map and the caller aggregates. A coset budget that runs
out (BudgetExceeded) does propagate. `_verdict` is the one claim map of both
families: the Γ verdicts here (`verify_gamma_family`, and `verify_gamma_pair`,
which gives a tuple's and its reverse's from one enumeration), and the Λ(k)
verdict of the tests (`tests/paper_checks.py`), which sets its `family`,
`orientable` and `extra_claims` and is the only maker of `"lambda"`
verdicts. The paper's lemma checks that no command runs (the FAP, the
parabolic checks at entries equal to 2, the odd-even-odd rotation
representation) live there too, beside the acceptance criteria.

Every tuple is the direct product of its blocks, the runs between its 2s,
and its rep, profile and poset are read off theirs (`_gamma_rep` gives the
argument); a reversed tuple's come from its tuple's (`verify_gamma_pair`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from . import poset, sggi
from .engine import PermRep
from .errors import BudgetExceeded, NotAdmissible
from .toddcox import DEFAULT_MAX_COSETS, CosetTable, perm_rep, regular_rep
from .words import (
    Presentation,
    admissibility_message,
    check_mirrored,
    gamma_tuple_presentation,
    is_admissible,
    validate_symbol,
)


@dataclass(frozen=True)
class FamilyVerdict:
    family: str
    schlafli: tuple[int, ...]
    presentation: Presentation
    group_order: int
    profile: sggi.SggiProfile
    flag_count: int
    tight: bool
    claims: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.claims.values())


def _verdict(
    family: str,
    entries: tuple[int, ...],
    pres: Presentation,
    prof: sggi.SggiProfile,
    faces: poset.FacePoset,
    orientable: bool,
    extra_claims: dict[str, bool] | None = None,
) -> FamilyVerdict:
    """Record the claims every family makes on the group's profile and face
    poset, the order being the paper's bound 2 p_1 ... p_{n-1}, then the
    family's own `extra_claims`."""
    report, flag_count, combinatorial, tight = poset.poset_checks(faces)
    claims = {
        "order": prof.group_order == 2 * prod(entries),
        "type": prof.schlafli == entries,
        "string_c_group": prof.is_string_c_group,
        "tight": tight,
        "orientable" if orientable else "non_orientable": prof.orientable == orientable,
        "polytope": report.passed,
        "flags_equal_order": flag_count == prof.group_order,
        "schlafli_consistent": combinatorial == prof.schlafli,
        **(extra_claims or {}),
    }
    return FamilyVerdict(
        family=family,
        schlafli=entries,
        presentation=pres,
        group_order=prof.group_order,
        profile=prof,
        flag_count=flag_count,
        tight=tight,
        claims=claims,
    )


def _product(reps: list[PermRep]) -> PermRep:
    """The direct product of regular reps. Its points are the tuples
    (i_1, ..., i_m), i_j a point of the j-th rep, numbered with i_m varying
    fastest, so point 0 is (0, ..., 0); a generator of the j-th rep moves
    i_j alone."""
    degree = prod(rep.degree for rep in reps)
    gens = []
    stride = degree
    for rep in reps:
        # A step of i_j moves `stride` points, and i_j's whole run spans `step`:
        # the image of one run, shifted to the start of every run.
        stride //= rep.degree
        step = rep.degree * stride
        for col in rep.gens:
            run = [c * stride + s for c in col for s in range(stride)]
            gens.append(tuple([hi + x for hi in range(0, degree, step) for x in run]))
    return PermRep(degree, tuple(gens))


@dataclass(frozen=True)
class _Block:
    """One block of `_gamma_rep`: its certified regular rep, and the rep's
    own `sggi.profile` and `build_poset`."""

    rep: PermRep
    profile: sggi.SggiProfile
    faces: poset.FacePoset


def _block(blocks: dict, key: tuple[int, ...], max_cosets: int) -> _Block:
    """The data of the block of the entries `key`, from `blocks`, or made on
    first use and stored there: the block is enumerated on its own tuple's
    presentation under `max_cosets`; a lone generator, `key` (), is C2 on 2
    points."""
    if key not in blocks:
        rep = regular_rep(gamma_tuple_presentation(key), max_cosets) if key else PermRep(2, ((1, 0),))
        blocks[key] = _Block(rep, sggi.profile(rep), poset.build_poset(rep))
    return blocks[key]


def _gamma_rep(
    sym: Sequence[int], max_cosets: int | None, blocks: dict
) -> tuple[tuple[int, ...], Presentation, PermRep, sggi.SggiProfile, poset.FacePoset]:
    """An admissible tuple, its presentation, the certified regular rep of
    its group, and the rep's profile and face poset; a tuple that is not
    admissible raises NotAdmissible, and a `max_cosets` below 1
    (DEFAULT_MAX_COSETS when None) raises ValueError before any work.

    The tuple is cut into blocks at every entry 2: generators x_j, ..., x_k
    between two 2s form the block of the entries p_{j+1}, ..., p_k. Each
    block's data come from `blocks`, keyed by its entries (`_block`): a dict
    that lives for one batch of verdicts under one `max_cosets`, so a block
    that the batch's tuples share is enumerated, certified, profiled and
    built into a poset once. A block that raises BudgetExceeded is not
    stored, so the reuse changes no verdict and no error. A tuple with no
    entry 2 is one block, whose data are the tuple's.

    A tuple of two or more blocks presents their direct product, as the
    string Coxeter diagram falls apart at an entry 2 (McMullen-Schulte,
    *Abstract Regular Polytopes*). The product of the blocks' reps is
    certified against the whole presentation by `perm_rep`, the one
    certificate. Its degree, the product of the blocks' degrees, is the
    group's order, and an enumeration of the whole presentation allocates at
    least that many cosets: a degree above the budget raises BudgetExceeded
    before any column is built. This is sound: the whole presentation holds
    every block's relators and every cross commutation ((x_j x_k)^2 for
    |j - k| >= 2, and (x_{i-1} x_i)^2 at the entry 2), so its group is a
    quotient of the product, of order at most the product's degree. The
    certificate proves that the product rep is a regular rep of a quotient
    of that group, so the two orders are equal and the product rep is a
    regular rep of the tuple's group; were a relator across a 2 not to hold,
    it would raise RelatorViolation. A product action is regular exactly
    when each factor's is, so each block is proved regular too, and the
    profile and poset are read off the blocks' (`sggi.product_profile` and
    `poset.product_poset` give why).
    """
    budget = DEFAULT_MAX_COSETS if max_cosets is None else max_cosets
    if budget < 1:
        raise ValueError("max_cosets must be >= 1")
    entries = validate_symbol(sym)
    adm = is_admissible(entries)
    if not adm:
        raise NotAdmissible(
            admissibility_message(entries, adm),
            odd_index=adm.odd_index,
            violating_index=adm.violating_index,
        )
    pres = gamma_tuple_presentation(entries)
    parts = []
    start = 0
    # A 2 appended to the entries closes the last block.
    for k, p in enumerate(entries + (2,)):
        if p == 2:
            parts.append(_block(blocks, entries[start:k], budget))
            start = k + 1
    if len(parts) == 1:
        return entries, pres, parts[0].rep, parts[0].profile, parts[0].faces
    degree = prod(b.rep.degree for b in parts)
    if degree > budget:
        raise BudgetExceeded(budget, order=degree)
    rep = perm_rep(CosetTable(pres, _product([b.rep for b in parts]).gens))
    prof = sggi.product_profile(rep, [b.profile for b in parts])
    return entries, pres, rep, prof, poset.product_poset([b.faces for b in parts])


def verify_gamma_family(sym: Sequence[int], max_cosets: int | None = None) -> FamilyVerdict:
    """Build the quotient for an admissible tuple and verify every claim:
    exact order, type, string C-group, tightness, orientability, and the
    polytope axioms. Its blocks' data live for this verdict alone."""
    entries, pres, _, prof, faces = _gamma_rep(sym, max_cosets, {})
    return _verdict("gamma", entries, pres, prof, faces, True)


def verify_gamma_pair(sym: Sequence[int], max_cosets: int | None = None, *, blocks: dict) -> list[FamilyVerdict]:
    """The verdict of an admissible tuple, as `verify_gamma_family` gives
    it, then that of the reversed tuple unless the tuple is a palindrome,
    from the one enumeration of the tuple's group, with its blocks' data
    from the batch's `blocks` (`_gamma_rep`).

    Admissibility reads the same backwards, and the reversed tuple's
    presentation is the tuple's with its generators in reverse order, up to
    rotating and inverting relators: `check_mirrored` checks that, and
    raises InvariantViolation where it fails, under `python -O` too. So the
    two presentations have isomorphic groups under x_i -> x_{n-1-i}, and
    the certified regular rep with its columns reversed is a regular rep of
    the reversed tuple's group. Its profile is `product_profile`'s on that
    rep with the tuple's profile as its one block (`sggi.product_profile`
    gives why), and its poset is the tuple's dual (`poset.dual_poset`). What
    goes is a second enumeration, certificate and poset build. What stays is
    every claim of the reversed tuple: `_verdict` on its own presentation,
    with the axioms, flags and both tightness routes on the dual's own poset.
    """
    entries, pres, rep, prof, faces = _gamma_rep(sym, max_cosets, blocks)
    verdicts = [_verdict("gamma", entries, pres, prof, faces, True)]
    mirror = entries[::-1]
    if mirror != entries:
        mirror_pres = gamma_tuple_presentation(mirror)
        check_mirrored(pres, mirror_pres)
        mirror_prof = sggi.product_profile(PermRep(rep.degree, rep.gens[::-1]), [prof])
        verdicts.append(_verdict("gamma", mirror, mirror_pres, mirror_prof, poset.dual_poset(faces), True))
    return verdicts
