import pytest
from hypothesis import given, settings, strategies as st

from reference_elements import (
    Conjugation,
    closure,
    conjugation_class,
    eval_word,
    generator_map_extends,
    images_generate,
    is_automorphism_map,
    is_central_in,
    rotation_subgroup,
)
from test_poset_differential import BUDGET, rank3_with_extra_relator
from tightpoly import engine
from tightpoly.engine import closure_perms, point_orbit
from tightpoly.errors import BudgetExceeded, CapExceeded
from tightpoly.families import oeo_permutation_rep
from tightpoly.toddcox import PermRep, enumerate_cosets, perm_rep, regular_rep
from tightpoly.words import coxeter_presentation, gamma_pq_presentation


def is_regular(rep: PermRep) -> bool:
    """Does the group generated by the rep act regularly on its points?

    The element-closure oracle for `engine.left_action`."""
    try:
        group = closure_perms(rep.degree, rep.gens, cap=rep.degree + 1)
    except CapExceeded:
        return False
    if len(group) != rep.degree:
        return False
    return len(point_orbit(rep, range(len(rep.gens)))) == rep.degree


# Odd-even-odd triples for `oeo_permutation_rep`: p2 an even divisor of 2*p1
# and 2*p3. Their groups act on p1*p2 points, regularly or not.
OEO_TRIPLES = [
    (p1, p2, p3)
    for p1 in range(1, 12, 2)
    for p3 in range(1, 12, 2)
    for p2 in range(2, 23, 2)
    if (2 * p1) % p2 == 0 and (2 * p3) % p2 == 0
]


@st.composite
def transitive_reps(draw):
    """A coset action of a drawn [p, q] quotient: on the trivial subgroup it
    is regular, on a nonempty subgroup it is regular only when the subgroup
    is normal."""
    pres = draw(rank3_with_extra_relator())
    subgroup = draw(st.sets(st.integers(0, 2)))
    try:
        return perm_rep(enumerate_cosets(pres, subgroup, BUDGET))
    except BudgetExceeded:
        return None


class TestPermBasics:
    def test_compose_applies_left_then_right(self):
        p = (1, 2, 0)
        q = (0, 2, 1)
        assert engine.compose(p, q) == (2, 1, 0)

    def test_invert(self):
        p = (2, 0, 1)
        assert engine.invert(p) == (1, 2, 0)
        assert engine.compose(p, engine.invert(p)) == (0, 1, 2)

    def test_perm_order(self):
        assert engine.perm_order((0, 1, 2)) == 1
        assert engine.perm_order((1, 0, 3, 2)) == 2
        assert engine.perm_order((1, 2, 0, 4, 3)) == 6


class TestClosure:
    def test_empty_generators_give_identity(self, rep_gamma36):
        assert len(closure(rep_gamma36, ())) == 1

    def test_parabolic_orders(self, rep_gamma36):
        assert len(closure(rep_gamma36, (0, 1))) == 6
        assert len(closure(rep_gamma36, (1, 2))) == 12

    def test_cap_exceeded(self, rep_gamma36):
        with pytest.raises(CapExceeded):
            closure(rep_gamma36, (0, 1, 2), cap=10)


class TestElementOrder:
    def test_consecutive_products(self, rep_gamma36, rep_lambda3):
        assert engine.element_order(rep_gamma36, (0, 1)) == 3
        assert engine.element_order(rep_gamma36, (1, 2)) == 6
        assert engine.element_order(rep_lambda3, (0, 1)) == 9

    def test_lagrange(self, rep_gamma36):
        words = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2), (0, 1, 2, 1)]
        for w in words:
            assert 36 % engine.element_order(rep_gamma36, w) == 0


class TestConjugation:
    def test_omega_inverted_by_x1(self, rep_gamma36):
        assert (
            conjugation_class(rep_gamma36, (1,), (1, 2, 1, 2))
            is Conjugation.INVERTS
        )

    def test_identity_fixes(self, rep_gamma36):
        assert (
            conjugation_class(rep_gamma36, (), (1, 2, 1, 2))
            is Conjugation.FIXES
        )

    def test_never_neither_for_even_slot(self, rep_gamma364):
        for g in range(4):
            outcome = conjugation_class(rep_gamma364, (g,), (1, 2, 1, 2))
            assert outcome in (Conjugation.FIXES, Conjugation.INVERTS)


class TestCentrality:
    def test_omega_central_in_rotation_subgroup(self, rep_gamma36):
        rot = rotation_subgroup(rep_gamma36)
        assert is_central_in(rep_gamma36, (1, 2, 1, 2), rot)

    def test_identity_always_central(self, rep_gamma36):
        full = engine.closure_perms(rep_gamma36.degree, rep_gamma36.gens)
        assert is_central_in(rep_gamma36, (), full)

    def test_omega_not_central_in_full_group(self, rep_gamma36):
        # Brute-force commutation oracle.
        full = engine.closure_perms(rep_gamma36.degree, rep_gamma36.gens)
        omega = eval_word(rep_gamma36, (1, 2, 1, 2))
        commutes = all(
            engine.compose(omega, h) == engine.compose(h, omega) for h in full
        )
        assert not commutes
        assert not is_central_in(rep_gamma36, (1, 2, 1, 2), full)


class TestPointEncoding:
    @pytest.mark.parametrize(
        "sym", [(3, 6), (4, 3), (3, 6, 4), (2, 2)]
    )
    def test_point_orbit_matches_element_closure(self, sym):
        # The two subgroup encodings must agree on every generator subset.
        from itertools import combinations

        from tightpoly.words import gamma_tuple_presentation

        rep = regular_rep(gamma_tuple_presentation(sym))
        n = len(rep.gens)
        for size in range(n + 1):
            for subset in combinations(range(n), size):
                elements = closure(rep, subset)
                points = engine.point_orbit(rep, subset)
                assert len(elements) == len(points)
                assert points == frozenset(p[0] for p in elements)

    def test_left_action_certifies_regularity(self, rep_gamma36):
        lams = engine.left_action(rep_gamma36)
        assert lams is not None
        # Left multiplications commute with the right action.
        for lam in lams:
            for g in rep_gamma36.gens:
                assert engine.compose(lam, g) == engine.compose(g, lam)

    def test_left_action_rejects_non_regular(self):
        rep, _ = oeo_permutation_rep(3, 6, 3)  # order 54 on 18 points
        assert engine.left_action(rep) is None

    def test_is_regular(self, rep_gamma36):
        assert is_regular(rep_gamma36)
        rep, _ = oeo_permutation_rep(3, 6, 3)
        assert not is_regular(rep)

    def test_left_action_iff_regular(self):
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(
            st.one_of(
                transitive_reps(),
                st.sampled_from(OEO_TRIPLES).map(lambda t: oeo_permutation_rep(*t)[0]),
            )
        )
        def check(rep):
            if rep is None:  # the enumeration ran out of budget
                return
            regular = is_regular(rep)
            assert (engine.left_action(rep) is not None) == regular
            seen.add(regular)

        check()
        assert seen == {True, False}


class TestConjugationAcrossBuilders:
    @pytest.mark.parametrize(
        "sym", [(3, 6), (4, 4), (3, 6, 4), (4, 4, 4), (5, 10, 5), (3, 6, 3, 6)]
    )
    def test_even_slot_squares_never_neither(self, sym):
        from tightpoly.words import gamma_tuple_presentation

        rep = regular_rep(gamma_tuple_presentation(sym))
        for slot, p in enumerate(sym, start=1):
            if p % 2 != 0:
                continue
            omega = (slot - 1, slot) * 2
            for g in range(len(sym) + 1):
                outcome = conjugation_class(rep, (g,), omega)
                assert outcome is not Conjugation.NEITHER


class TestGeneratorMaps:
    @pytest.mark.parametrize("p,q", [(3, 6), (5, 10)])
    def test_dihedral_quotient(self, p, q):
        # x1 -> y1, x2 -> y2, x0 -> (y1 y2)^(p-1) y1 maps onto the dihedral
        # group of order 2q.
        dq = regular_rep(coxeter_presentation((q,)))
        images = [(0, 1) * (p - 1) + (0,), (0,), (1,)]
        pres = gamma_pq_presentation(p, q)
        assert engine.check_generator_map(pres, dq, images)
        assert images_generate(dq, images)

    def test_identity_map(self, rep_gamma36):
        pres = gamma_pq_presentation(3, 6)
        images = [(0,), (1,), (2,)]
        assert engine.check_generator_map(pres, rep_gamma36, images)

    def test_non_homomorphism_detected(self, rep_gamma36):
        pres = gamma_pq_presentation(3, 6)
        images = [(1,), (0,), (2,)]  # swaps break the braid relator orders
        assert not engine.check_generator_map(pres, rep_gamma36, images)

    def test_mirror_automorphism_of_rotation_group(self, rep_gamma36):
        # s1 -> s1 s2^2, s2 -> s2^-1 extends to an automorphism of the
        # rotation subgroup.
        s1 = eval_word(rep_gamma36, (0, 1))
        s2 = eval_word(rep_gamma36, (1, 2))
        images = [engine.compose(s1, engine.compose(s2, s2)), engine.invert(s2)]
        phi = generator_map_extends(rep_gamma36.degree, [s1, s2], images)
        assert phi is not None
        assert is_automorphism_map(phi)
        assert len(phi) == 18

    def test_inconsistent_map_returns_none(self, rep_gamma36):
        s1 = eval_word(rep_gamma36, (0, 1))  # order 3
        s2 = eval_word(rep_gamma36, (1, 2))  # order 6
        phi = generator_map_extends(rep_gamma36.degree, [s1], [s2])
        assert phi is None
