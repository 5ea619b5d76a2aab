"""The point-set family checks against the element-set originals.

`reference_families` keeps the closure-based `_klein_four_checks`,
`check_fap`, `subgroup_2_check` and `classifier._family_isomorphism`; every
test here demands the same answers from the point-set code on the same
input, and that the inputs reach each outcome, so equality is not vacuous.
"""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

import paper_checks
import reference_families as ref
from test_poset_differential import BUDGET, rank3_with_extra_relator
from test_toddcox_differential import gamma_tuples
from tightpoly import engine
from tightpoly.classifier import census_nonorientable
from tightpoly.errors import AdjacentOddPair, BudgetExceeded
from tightpoly.toddcox import PermRep, perm_rep, regular_rep
from tightpoly.words import Presentation, gamma_tuple_presentation, lambda_k_presentation

# Each member of the non-orientable family with its true k and a wrong one.
LAMBDA_CASES = [(k, claimed) for k in (1, 3, 5, 7, 9) for claimed in (k, k + 2)]


@lru_cache(maxsize=None)
def lambda_rep(k: int) -> PermRep:
    return regular_rep(lambda_k_presentation(k))


def regular_or_none(pres: Presentation) -> PermRep | None:
    try:
        return regular_rep(pres, BUDGET)
    except BudgetExceeded:
        return None


klein_cases = st.one_of(
    st.sampled_from(LAMBDA_CASES).map(lambda case: (lambda_rep(case[0]), case[1])),
    st.tuples(rank3_with_extra_relator().map(regular_or_none), st.integers(1, 9)),
)


def test_klein_four_checks_match_closure_route():
    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(klein_cases)
    @example((lambda_rep(3), 3))
    @example((lambda_rep(3), 5))
    # Not involutions: every generator is the same 4-cycle, so the subgroup
    # has order 4 but is cyclic.
    @example((PermRep(4, ((1, 2, 3, 0),) * 3), 1))
    def check(case):
        rep, k = case
        if rep is None:  # the enumeration ran out of budget
            return
        got = paper_checks._klein_four_checks(rep, k)
        assert got == ref._klein_four_checks(rep, k, None)
        seen.add(got)

    check()
    assert seen == {(True, True), (True, False), (False, False)}


def family_presentations(p: int, q: int):
    """The family presentations `classifier` certifies records of type {p, q}
    against, or None where the family has no member of that type."""
    try:
        gamma_pres = gamma_tuple_presentation((p, q))
    except AdjacentOddPair:
        gamma_pres = None
    lambda_pres = None
    if q == 4 and p % 3 == 0 and (p // 3) % 2 == 1:
        lambda_pres = lambda_k_presentation(p // 3)
    return gamma_pres, lambda_pres


def reference_flags(record):
    rep = perm_rep(record.table)
    return tuple(
        None if pres is None else ref._family_isomorphism(pres, rep, None)
        for pres in family_presentations(*record.schlafli)
    )


def test_isomorphism_certificate_matches_on_census_grid(census_grid):
    seen = set()
    for records in census_grid["records"].values():
        for record in records:
            expected = reference_flags(record)
            assert (record.isomorphic_to_gamma, record.isomorphic_to_lambda) == expected
            seen.add(expected[0])
    assert {True, False} <= seen


def test_isomorphism_certificate_matches_on_drawn_quotients():
    # The Coxeter relators hold in every quotient of [p, q], so the order
    # comparison decides: true exactly when the extra relator was redundant.
    seen = set()

    @settings(max_examples=100, deadline=None)
    @given(rank3_with_extra_relator())
    def check(pres):
        rep = regular_or_none(pres)
        if rep is None:
            return
        base = Presentation(3, pres.relators[:-1])
        try:
            expected = ref._family_isomorphism(base, rep, BUDGET)
        except BudgetExceeded:
            expected = BudgetExceeded
        try:
            got = engine._presents_subgroup(base, rep, range(3), BUDGET)
        except BudgetExceeded:
            got = BudgetExceeded
        assert got == expected
        seen.add(got)

    check()
    assert {True, False} <= seen


@pytest.mark.parametrize("p", [3, 9, 15])
def test_isomorphism_certificate_matches_on_lambda_types(p):
    records = census_nonorientable(p, 4)
    assert records
    for record in records:
        assert reference_flags(record) == (False, True)
        assert (record.isomorphic_to_gamma, record.isomorphic_to_lambda) == (False, True)


@settings(max_examples=40, deadline=None)
@given(gamma_tuples, st.sampled_from(("two_faces", "co_faces")))
def test_check_fap_matches_closure_route(sym, side):
    assert paper_checks.check_fap(sym, side) == ref.check_fap(sym, side)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 6), min_size=1, max_size=3), st.integers(0, 3))
def test_subgroup_2_check_matches_closure_route(entries, slot):
    entries = entries[:slot] + [2] + entries[slot:]
    try:
        expected = ref.subgroup_2_check(entries, BUDGET)
    except (AdjacentOddPair, BudgetExceeded) as exc:
        expected = type(exc)
    try:
        got = paper_checks.subgroup_2_check(entries, BUDGET)
    except (AdjacentOddPair, BudgetExceeded) as exc:
        got = type(exc)
    assert got == expected
