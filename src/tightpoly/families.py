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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from . import sggi
from .engine import PermRep
from .errors import NotAdmissible
from .poset import poset_checks
from .toddcox import regular_rep
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
    rep: PermRep,
    expected: int,
    orientable: bool,
    extra_claims: dict[str, bool] | None = None,
) -> FamilyVerdict:
    """Profile the regular rep and build its poset once; record the claims
    every family makes, then the family's own `extra_claims`."""
    prof = sggi.profile(rep)
    _, report, flag_count, combinatorial, tight = poset_checks(rep)
    claims = {
        "order": prof.group_order == expected,
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


def _gamma_rep(sym: Sequence[int], max_cosets: int | None) -> tuple[tuple[int, ...], Presentation, PermRep]:
    """An admissible tuple, its presentation and the certified regular rep
    of the quotient; a tuple that is not admissible raises NotAdmissible."""
    entries = validate_symbol(sym)
    adm = is_admissible(entries)
    if not adm:
        raise NotAdmissible(
            admissibility_message(entries, adm),
            odd_index=adm.odd_index,
            violating_index=adm.violating_index,
        )
    pres = gamma_tuple_presentation(entries)
    return entries, pres, regular_rep(pres, max_cosets)


def verify_gamma_family(sym: Sequence[int], max_cosets: int | None = None) -> FamilyVerdict:
    """Build the quotient for an admissible tuple and verify every claim:
    exact order, type, string C-group, tightness, orientability, and the
    polytope axioms."""
    entries, pres, rep = _gamma_rep(sym, max_cosets)
    return _verdict("gamma", entries, pres, rep, 2 * prod(entries), True)


def verify_gamma_pair(sym: Sequence[int], max_cosets: int | None = None) -> list[FamilyVerdict]:
    """The verdict of an admissible tuple, as `verify_gamma_family` gives
    it, then that of the reversed tuple unless the tuple is a palindrome,
    from the one enumeration of the tuple's group.

    Admissibility reads the same backwards, and the reversed tuple's
    presentation is the tuple's with its generators in reverse order, up to
    rotating and inverting relators: `check_mirrored` checks that, and
    raises InvariantViolation where it fails, under `python -O` too. So the
    two presentations have isomorphic groups under x_i -> x_{n-1-i} (the
    dual polytope, McMullen–Schulte 2E), of the same order, and the
    certified regular rep with its columns in reverse order is a regular rep
    of the reversed tuple's group. What goes is a second enumeration and
    certificate of an isomorphic presentation. What stays is every claim of
    the reversed tuple: `_verdict` runs on its own presentation and rep, with
    its own `sggi.profile`, its own poset and both tightness routes.
    """
    entries, pres, rep = _gamma_rep(sym, max_cosets)
    expected = 2 * prod(entries)
    verdicts = [_verdict("gamma", entries, pres, rep, expected, True)]
    mirror = entries[::-1]
    if mirror != entries:
        mirror_pres = gamma_tuple_presentation(mirror)
        check_mirrored(pres, mirror_pres)
        verdicts.append(_verdict("gamma", mirror, mirror_pres, PermRep(rep.degree, rep.gens[::-1]), expected, True))
    return verdicts
