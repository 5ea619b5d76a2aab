import pytest
from hypothesis import example, given, settings, strategies as st

from reference_elements import closure, quotient_criterion
from test_poset_differential import BUDGET, rank3_with_extra_relator, rank4_with_extra_relator
from test_toddcox_differential import gamma_tuples
from tightpoly import sggi
from tightpoly.errors import BudgetExceeded, InvariantViolation
from tightpoly.toddcox import PermRep, regular_rep
from tightpoly.words import (
    Presentation,
    coxeter_presentation,
    gamma_pq_presentation,
    gamma_tuple_presentation,
    lambda_k_presentation,
)


def with_extra_relator(symbol, extra):
    base = coxeter_presentation(symbol)
    return Presentation(base.ngens, base.relators + (extra,))


def counted_oracle(monkeypatch):
    """Replace check_intersection_condition by a wrapper that records each
    call; returns the list of calls and the original function."""
    oracle = sggi.check_intersection_condition
    calls = []

    def counted(rep):
        calls.append(rep)
        return oracle(rep)

    monkeypatch.setattr(sggi, "check_intersection_condition", counted)
    return calls, oracle


class TestSggiCheck:
    def test_families_are_sggi(self, rep_gamma36, rep_cube):
        assert sggi.check_sggi(rep_gamma36)
        assert sggi.check_sggi(rep_cube)

    def test_collapsed_generators_still_sggi(self, rep_degenerate_x0x2):
        # x0 = x2 forced: commuting holds trivially.
        assert sggi.check_sggi(rep_degenerate_x0x2)
        assert sggi.degenerate_generators(rep_degenerate_x0x2) == ()

    def test_degenerate_generator_reported(self):
        rep = regular_rep(coxeter_presentation((2,)))
        assert sggi.degenerate_generators(rep) == ()
        # x0 = 1: in [2, 2] with the extra relator x0, and in the
        # one-generator group with the relator x0.
        rep = regular_rep(with_extra_relator((2, 2), (0,)))
        assert sggi.degenerate_generators(rep) == (0,)
        rep = regular_rep(Presentation(1, ((0, 0), (0,))))
        assert rep.degree == 1
        assert sggi.degenerate_generators(rep) == (0,)


class TestSchlafli:
    def test_gamma36(self, rep_gamma36):
        assert sggi.schlafli_of_group(rep_gamma36) == (3, 6)

    def test_lambda5(self):
        rep = regular_rep(lambda_k_presentation(5))
        assert sggi.schlafli_of_group(rep) == (15, 4)

    def test_rank5(self):
        rep = regular_rep(gamma_tuple_presentation((3, 6, 3, 6)))
        assert sggi.schlafli_of_group(rep) == (3, 6, 3, 6)


class TestIntersectionCondition:
    def test_gamma36_passes(self, rep_gamma36):
        ok, witness = sggi.check_intersection_condition(rep_gamma36)
        assert ok and witness is None

    def test_lambda3_passes(self, rep_lambda3):
        ok, witness = sggi.check_intersection_condition(rep_lambda3)
        assert ok and witness is None

    def test_degenerate_witness(self, rep_degenerate_x0x2):
        ok, witness = sggi.check_intersection_condition(rep_degenerate_x0x2)
        assert not ok
        assert witness == ((0,), (2,))


def closure_route(rep):
    """The intersection condition on element sets from `closure`, with
    subsets as sorted tuples: the independent route to the same verdict."""
    subsets = sggi._subsets(len(rep.gens))
    groups = {I: closure(rep, I) for I in subsets}
    for I in subsets:
        for J in subsets:
            meet = tuple(sorted(set(I) & set(J)))
            if groups[I] & groups[J] != groups[meet]:
                return False, (I, J)
    return True, None


class TestClosureRoute:
    def test_fixtures(self, rep_gamma36, rep_lambda3, rep_degenerate_x0x2):
        for rep in (rep_gamma36, rep_lambda3, rep_degenerate_x0x2):
            assert sggi.check_intersection_condition(rep) == closure_route(rep)

    @settings(max_examples=60, deadline=None)
    @given(rank3_with_extra_relator())
    def test_same_first_witness_on_quotients(self, pres):
        # The verdict and the first failing pair must agree.
        try:
            rep = regular_rep(pres, max_cosets=400)
        except BudgetExceeded:
            return
        assert sggi.check_intersection_condition(rep) == closure_route(rep)


class TestQuotientCriterion:
    def test_facet_side(self, rep_gamma36):
        quotient = regular_rep(gamma_pq_presentation(3, 2))
        assert quotient_criterion(rep_gamma36, quotient, "facet")

    def test_vertex_figure_side(self, rep_lambda3, rep_lambda1):
        assert quotient_criterion(rep_lambda3, rep_lambda1, "vertexfigure")

    def test_identity_quotient(self, rep_gamma36):
        assert quotient_criterion(rep_gamma36, rep_gamma36, "facet")
        assert quotient_criterion(rep_gamma36, rep_gamma36, "vertexfigure")

    def test_agrees_with_full_intersection_check(self, rep_gamma36, rep_lambda3):
        # Wherever the criterion certifies, the oracle must agree.
        for rep in (rep_gamma36, rep_lambda3):
            ok, _ = sggi.check_intersection_condition(rep)
            assert ok


class TestOrientability:
    def test_gamma36_orientable(self, rep_gamma36):
        assert sggi.profile(rep_gamma36).orientable

    def test_lambda1_non_orientable(self, rep_lambda1):
        assert not sggi.profile(rep_lambda1).orientable

    def test_polygon_orientable(self):
        rep = regular_rep(coxeter_presentation((3,)))
        assert sggi.profile(rep).orientable

    @pytest.mark.parametrize(
        "pres",
        [
            coxeter_presentation((4, 3)),
            gamma_pq_presentation(5, 2),
            gamma_tuple_presentation((3, 6, 4)),
            gamma_tuple_presentation((4, 4, 4)),
        ],
    )
    def test_even_relators_imply_orientable(self, pres):
        assert all(len(w) % 2 == 0 for w in pres.relators)
        assert sggi.profile(regular_rep(pres)).orientable

    def test_impossible_index_is_a_typed_error(self):
        # Not a regular representation: the generators reach only point 0 of
        # 3, so no parity colouring covers every point. A typed error, so it
        # also holds under -O.
        rep = PermRep(degree=3, gens=((0, 1, 2), (0, 1, 2)))
        with pytest.raises(InvariantViolation):
            sggi._rotation_index(rep)
        with pytest.raises(InvariantViolation):
            sggi.profile(rep)


class TestProfile:
    def test_gamma36_profile(self, rep_gamma36):
        prof = sggi.profile(rep_gamma36)
        assert prof.rank == 3
        assert prof.group_order == 36
        assert prof.is_sggi
        assert prof.schlafli == (3, 6)
        assert prof.is_string_c_group
        assert prof.intersection_witness is None
        assert prof.orientable
        assert prof.rotation_index == 2

    def test_lambda1_profile(self, rep_lambda1):
        prof = sggi.profile(rep_lambda1)
        assert prof.group_order == 24
        assert not prof.orientable
        assert prof.rotation_index == 1
        assert prof.is_string_c_group

    def test_degenerate_profile(self, rep_degenerate_x0x2):
        prof = sggi.profile(rep_degenerate_x0x2)
        assert prof.is_sggi
        assert not prof.is_string_c_group
        assert prof.intersection_witness == ((0,), (2,))


class TestIntervalRoute:
    """`profile` meets the generator intervals first and runs the exhaustive
    check only when that route is skipped or a meet fails."""

    def test_string_c_group_skips_the_exhaustive_check(self, monkeypatch):
        rep = regular_rep(gamma_tuple_presentation((2, 2, 6, 3, 2, 2)))

        def refuse(rep):
            raise AssertionError("exhaustive intersection check called")

        monkeypatch.setattr(sggi, "check_intersection_condition", refuse)
        prof = sggi.profile(rep)
        assert prof.is_string_c_group
        assert prof.intersection_witness is None

    def test_failed_meet_falls_back_once(self, monkeypatch, rep_degenerate_x0x2):
        # x0 = x2: every interval of length 2 meets trivially, the whole
        # interval does not, and the exhaustive check finds the witness.
        calls, _ = counted_oracle(monkeypatch)
        prof = sggi.profile(rep_degenerate_x0x2)
        assert len(calls) == 1
        assert not prof.is_string_c_group
        assert prof.intersection_witness == ((0,), (2,))

    def test_same_verdict_and_witness_as_the_oracle(self, monkeypatch):
        calls, oracle = counted_oracle(monkeypatch)
        routes = set()

        @settings(max_examples=200, deadline=None)
        @given(
            st.one_of(
                rank3_with_extra_relator(),
                rank4_with_extra_relator(),
                gamma_tuples.map(gamma_tuple_presentation),
            )
        )
        # One draw for each route, and the smallest quotients that weakened
        # interval checks accept: x0 = x2 passes every length-2 meet, x0 = x1
        # passes every longer one.
        @example(coxeter_presentation((3, 3)))
        @example(with_extra_relator((2, 2), (0, 2)))
        @example(with_extra_relator((2, 2), (0, 1)))
        @example(with_extra_relator((2, 2), (0,)))
        def check(pres):
            try:
                rep = regular_rep(pres, BUDGET)
            except BudgetExceeded:
                return
            calls.clear()
            prof = sggi.profile(rep)
            ok, witness = oracle(rep)
            assert prof.is_string_c_group == (sggi.check_sggi(rep) and ok)
            assert prof.intersection_witness == witness
            if not prof.is_sggi or prof.degenerate:
                routes.add("skipped")
                assert len(calls) == 1
            else:
                routes.add("fallback" if calls else "fast")
                assert len(calls) <= 1

        check()
        assert routes == {"fast", "fallback", "skipped"}
