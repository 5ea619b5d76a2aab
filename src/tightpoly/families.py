"""End-to-end construction and verification of the tight family.

A verdict never raises on a mathematical failure: every claim is recorded
in an ordered claim map and the caller aggregates. A coset budget that runs
out (BudgetExceeded) does propagate. `_verdict` is the one claim map of both
families: `verify_gamma_family` here, and the Λ(k) verdict of the tests
(`tests/paper_checks.py`), which sets its `family`, `orientable` and
`extra_claims` and is the only maker of `"lambda"` verdicts. The paper's
lemma checks that no command runs (the FAP, the parabolic checks at entries
equal to 2, the odd-even-odd rotation representation) live there too,
beside the acceptance criteria.
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


def verify_gamma_family(sym: Sequence[int], max_cosets: int | None = None) -> FamilyVerdict:
    """Build the quotient for an admissible tuple and verify every claim:
    exact order, type, string C-group, tightness, orientability, and the
    polytope axioms."""
    entries = validate_symbol(sym)
    adm = is_admissible(entries)
    if not adm:
        raise NotAdmissible(
            admissibility_message(entries, adm),
            odd_index=adm.odd_index,
            violating_index=adm.violating_index,
        )
    pres = gamma_tuple_presentation(entries)
    rep = regular_rep(pres, max_cosets)
    return _verdict("gamma", entries, pres, rep, 2 * prod(entries), True)
