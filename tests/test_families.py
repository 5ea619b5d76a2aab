from math import prod

import pytest

from paper_checks import check_fap, oeo_permutation_rep, subgroup_2_check, verify_lambda_family
from reference_elements import closure, images_generate
from tightpoly import engine
from tightpoly.errors import BudgetExceeded, NotAdmissible, PreconditionViolated
from tightpoly.families import verify_gamma_family
from tightpoly.sggi import schlafli_of_group
from tightpoly.toddcox import group_order, regular_rep
from tightpoly.words import gamma_tuple_presentation


class TestGammaFamily:
    @pytest.mark.parametrize(
        "sym,order",
        [((3, 6), 36), ((2, 3), 12), ((3, 6, 4), 144), ((5, 10, 5), 500)],
    )
    def test_admissible_tuples_pass(self, sym, order):
        verdict = verify_gamma_family(sym)
        assert verdict.passed, verdict.claims
        assert verdict.group_order == order
        assert verdict.flag_count == order
        assert verdict.profile.schlafli == sym

    def test_not_admissible_raises(self):
        with pytest.raises(NotAdmissible) as err:
            verify_gamma_family((3, 4))
        assert err.value.odd_index == 0
        assert err.value.violating_index == 1

    def test_duality(self):
        for sym in [(3, 6), (3, 6, 4)]:
            fwd = verify_gamma_family(sym)
            rev = verify_gamma_family(tuple(reversed(sym)))
            assert fwd.passed == rev.passed
            assert fwd.group_order == rev.group_order
            # Generator reversal is an isomorphism in both directions.
            n = fwd.presentation.ngens
            images = [(n - 1 - g,) for g in range(n)]
            rep_fwd = regular_rep(fwd.presentation)
            rep_rev = regular_rep(rev.presentation)
            assert engine.check_generator_map(fwd.presentation, rep_rev, images)
            assert engine.check_generator_map(rev.presentation, rep_fwd, images)
            assert images_generate(rep_rev, images)


class TestNonAdmissibleOrders:
    @pytest.mark.parametrize("sym", [(3, 4), (3, 8), (5, 4), (3, 4, 4)])
    def test_order_divides_bound_and_odd_entries_exact(self, sym):
        # Buildable but not admissible: the order divides twice the entry
        # product and odd entries keep their exact order.
        pres = gamma_tuple_presentation(sym)
        order = group_order(pres)
        assert (2 * prod(sym)) % order == 0
        computed = schlafli_of_group(regular_rep(pres))
        for slot, p in enumerate(sym):
            if p % 2 == 1:
                assert computed[slot] == p


class TestLambdaFamily:
    @pytest.mark.parametrize("k,order", [(1, 24), (3, 72), (9, 216)])
    def test_passes(self, k, order):
        verdict = verify_lambda_family(k)
        assert verdict.passed, verdict.claims
        assert verdict.group_order == order
        assert verdict.profile.schlafli == (3 * k, 4)
        assert not verdict.profile.orientable

    def test_rejects_even_k(self):
        with pytest.raises(ValueError):
            verify_lambda_family(2)

    def test_budget_forwarded(self):
        with pytest.raises(BudgetExceeded) as err:
            verify_lambda_family(3, max_cosets=10)
        assert err.value.budget == 10


class TestFap:
    def test_two_faces(self):
        assert check_fap((3, 6, 4), "two_faces")

    def test_co_faces(self):
        assert check_fap((4, 6, 3), "co_faces")

    def test_rank2_keep_all(self):
        assert check_fap((5,), "two_faces")
        assert check_fap((5,), "co_faces")

    def test_unknown_side(self):
        with pytest.raises(ValueError):
            check_fap((3, 6, 4), "faces")

    def test_budget_forwarded(self):
        with pytest.raises(BudgetExceeded) as err:
            check_fap((3, 6), "two_faces", max_cosets=5)
        assert err.value.budget == 5


class TestOeoPermutationRep:
    @pytest.mark.parametrize("triple", [(3, 6, 3), (5, 10, 5)])
    def test_relators_hold(self, triple):
        rep, report = oeo_permutation_rep(*triple)
        assert all(report.relators_ok.values()), report.relators_ok
        assert rep.degree == triple[0] * triple[1] == report.degree

    def test_363_orders(self):
        _, report = oeo_permutation_rep(3, 6, 3)
        assert report.orders[1] == 6
        assert 3 % report.orders[2] == 0

    @pytest.mark.parametrize("triple", [(4, 6, 3), (3, 4, 3), (3, 6, 5)])
    def test_preconditions(self, triple):
        with pytest.raises(PreconditionViolated):
            oeo_permutation_rep(*triple)


class TestSubgroup2:
    def test_325_prefix_matches(self):
        assert subgroup_2_check((3, 2, 5))
        rep = regular_rep(gamma_tuple_presentation((3, 2, 5)))
        assert len(closure(rep, (0, 1, 2))) == group_order(
            gamma_tuple_presentation((3, 2))
        ) == 12

    def test_trivial_split(self):
        assert subgroup_2_check((3, 2))

    def test_5244_suffix(self):
        assert subgroup_2_check((5, 2, 4, 4))
        rep = regular_rep(gamma_tuple_presentation((5, 2, 4, 4)))
        assert len(closure(rep, (1, 2, 3, 4))) == group_order(
            gamma_tuple_presentation((2, 4, 4))
        )

    def test_requires_an_entry_equal_to_two(self):
        with pytest.raises(ValueError):
            subgroup_2_check((3, 6))
