"""The paper's lemma checks that no command runs, beside the acceptance
criteria that are their callers.

Moved out of the package, where no command reached them, and changed only
in how they name the permutation products: `_klein_four_checks`,
`verify_lambda_family`, `FapSide`, `check_fap`, `OeoReport`,
`oeo_permutation_rep` and `subgroup_2_check` from `families`, and
`kill_generators` from `words`. The acceptance criteria run these
point-set versions; `tests/reference_families.py` keeps the closure-based
copies of `_klein_four_checks`, `check_fap` and `subgroup_2_check` as their
oracle. The Λ(k) verdict goes through `families._verdict`, the one claim
map of both families, and only it makes the `"lambda"` verdicts that the
atlas reader still accepts. `oeo_permutation_rep` acts on p1·p2 points, not
regularly, so it composes permutations with `reference_elements`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from reference_elements import compose, identity_perm, invert, perm_order
from tightpoly import engine, sggi
from tightpoly.classifier import _presents_subgroup
from tightpoly.errors import PreconditionViolated
from tightpoly.families import FamilyVerdict, _verdict
from tightpoly.poset import build_poset, poset_checks
from tightpoly.toddcox import PermRep, group_order, regular_rep
from tightpoly.words import (
    Presentation,
    gamma_tuple_presentation,
    lambda_k_presentation,
    validate_symbol,
)


def kill_generators(pres: Presentation, keep: Iterable[int]) -> Presentation:
    """Quotient by setting every generator outside `keep` to the identity.

    `keep` must be a nonempty contiguous prefix or suffix of 0..ngens-1.
    Killed letters are deleted from each relator; relators that become empty
    are dropped; surviving generators are renumbered densely.
    """
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("keep must be nonempty")
    lo, hi = kept[0], kept[-1]
    if kept != list(range(lo, hi + 1)) or (lo != 0 and hi != pres.ngens - 1):
        raise ValueError(f"keep {kept} is not a contiguous prefix or suffix")
    if hi >= pres.ngens:
        raise ValueError(f"keep {kept} out of range for {pres.ngens} generators")
    renumber = {g: g - lo for g in kept}
    rels = []
    for w in pres.relators:
        new = tuple(renumber[letter] for letter in w if letter in renumber)
        if new:
            rels.append(new)
    return Presentation(len(kept), tuple(rels))


def _klein_four_checks(rep: PermRep, k: int) -> tuple[bool, bool]:
    """Normal Klein 4-subgroup H generated by a = x2 and b = x1 x2 x1, with
    dihedral quotient of order 6k (certified by order arithmetic plus the
    order of x0 x1 modulo H).

    H is read at point 0: in a regular rep an element is the identity exactly
    when it fixes point 0, so H is Klein when 1, a, b, ab give four points
    and square to 1, and an element lies in H exactly when its image of 0 does.
    """
    elements = ((), (2,), (1, 2, 1), (2, 1, 2, 1))
    subgroup = {engine._image(rep, h) for h in elements}
    klein = len(subgroup) == 4 and all(engine._image(rep, h + h) == 0 for h in elements)
    normal = klein and all(
        engine._image(rep, (g,) + h + (g,)) in subgroup
        for g in range(len(rep.gens))
        for h in elements
    )
    if not normal:
        return False, False
    point, image_order = 0, 0
    for m in range(1, rep.degree + 1):
        point = engine._image(rep, (0, 1), point)
        if point in subgroup:
            image_order = m
            break
    dihedral = rep.degree // 4 == 6 * k and image_order == 3 * k
    return True, dihedral


def verify_lambda_family(k: int, max_cosets: int | None = None) -> FamilyVerdict:
    """Verify the non-orientable family member for odd k: order 24k, type
    {3k, 4}, string C-group, tight, non-orientable, with its normal Klein
    4-subgroup and dihedral quotient of order 6k."""
    pres = lambda_k_presentation(k)
    rep = regular_rep(pres, max_cosets)
    klein, dihedral = _klein_four_checks(rep, k)
    claims = {"klein_four_normal": klein, "dihedral_quotient": dihedral}
    return _verdict("lambda", (3 * k, 4), pres, sggi.profile(rep), poset_checks(build_poset(rep)), False, claims)


FapSide = Literal["two_faces", "co_faces"]


def check_fap(sym: Sequence[int], side: FapSide, max_cosets: int | None = None) -> bool:
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
    return killed_order == len(engine.point_orbit(rep, keep))


@dataclass(frozen=True)
class OeoReport:
    degree: int
    orders: tuple[int, int, int]
    relators_ok: dict[str, bool]


def oeo_permutation_rep(p1: int, p2: int, p3: int) -> tuple[PermRep, OeoReport]:
    """Rotation-group permutation representation for odd-even-odd triples.

    Points are pairs (j, k) with j mod p1 and k mod p2; requires p1, p3 odd
    and p2 an even divisor of both 2*p1 and 2*p3. Verifies the eight
    defining relators of the rotation group and reports generator orders.
    """
    if p1 % 2 == 0 or p3 % 2 == 0:
        raise PreconditionViolated(f"p1={p1} and p3={p3} must be odd")
    if p2 % 2 != 0 or (2 * p1) % p2 != 0 or (2 * p3) % p2 != 0:
        raise PreconditionViolated(
            f"p2={p2} must be an even divisor of 2*p1={2 * p1} and 2*p3={2 * p3}"
        )
    degree = p1 * p2

    def build(step) -> tuple[int, ...]:
        out = [0] * degree
        for j in range(p1):
            for k in range(p2):
                jj, kk = step(j, k)
                out[j * p2 + k] = (jj % p1) * p2 + (kk % p2)
        return tuple(out)

    pi2 = build(lambda j, k: (j, k + 1))
    pi1 = build(lambda j, k: (j + 1, k) if k % 2 == 0 else (j - 1, k - 2))
    pi3 = build(lambda j, k: (j, k - 2 * j) if k % 2 == 0 else (j, k + 2 * (j - 1)))

    ident = identity_perm(degree)

    def power(p, e):
        out = ident
        for _ in range(e):
            out = compose(out, p)
        return out

    def commutator(a, b):
        return compose(compose(a, b), compose(invert(a), invert(b)))

    y12 = compose(pi1, pi2)
    y23 = compose(pi2, pi3)
    y123 = compose(y12, pi3)
    sq2 = compose(pi2, pi2)
    relators_ok = {
        "y1^p1": power(pi1, p1) == ident,
        "y2^p2": power(pi2, p2) == ident,
        "y3^p3": power(pi3, p3) == ident,
        "(y1 y2)^2": compose(y12, y12) == ident,
        "(y2 y3)^2": compose(y23, y23) == ident,
        "(y1 y2 y3)^2": compose(y123, y123) == ident,
        "[y1, y2^2]": commutator(pi1, sq2) == ident,
        "[y3, y2^2]": commutator(pi3, sq2) == ident,
    }
    report = OeoReport(
        degree=degree,
        orders=(perm_order(pi1), perm_order(pi2), perm_order(pi3)),
        relators_ok=relators_ok,
    )
    return PermRep(degree=degree, gens=(pi1, pi2, pi3)), report


def subgroup_2_check(sym: Sequence[int], max_cosets: int | None = None) -> bool:
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
    return all(
        _presents_subgroup(gamma_tuple_presentation(part), rep, keep, max_cosets)
        for i in slots
        for keep, part in ((range(0, i + 1), entries[:i]), (range(i - 1, n), entries[i - 1 :]))
    )
