import pytest
from hypothesis import given, settings, strategies as st

from paper_checks import oeo_permutation_rep
from reference_elements import (
    Conjugation,
    closure,
    compose,
    conjugation_class,
    eval_word,
    generator_map_extends,
    images_generate,
    invert,
    is_automorphism_map,
    is_central_in,
    is_regular,
    left_action,
    perm_order,
    rotation_subgroup,
)
from reference_toddcox import reference_table
from test_poset_differential import BUDGET, rank3_with_extra_relator, rank4_with_extra_relator
from test_toddcox_differential import gamma_tuples
from tightpoly import engine
from tightpoly.errors import BudgetExceeded, CapExceeded
from tightpoly.toddcox import PermRep, regular_rep
from tightpoly.words import coxeter_presentation, gamma_pq_presentation, gamma_tuple_presentation


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
    is normal. The reference enumerator builds the table, as the kernel
    enumerates over the trivial subgroup only, and the rep is built from its
    columns: `perm_rep` rejects every action that is not regular."""
    pres = draw(rank3_with_extra_relator())
    subgroup = draw(st.sets(st.integers(0, 2)))
    try:
        table = reference_table(pres, subgroup, BUDGET)
    except BudgetExceeded:
        return None
    return PermRep(len(table), tuple(zip(*table)))


@st.composite
def mixed_reps(draw):
    """A drawn coset action with one more column, the product of two of its
    columns: in general not an involution, so the rep mixes involutive and
    non-involutive columns. The action stays regular exactly when it was."""
    rep = draw(transitive_reps())
    if rep is None:
        return None
    a, b = draw(st.permutations(range(len(rep.gens))))[:2]
    return PermRep(rep.degree, rep.gens + (compose(rep.gens[a], rep.gens[b]),))


@st.composite
def repaired_reps(draw):
    """A certified regular rep with one column `repaired`: the column stays
    an involution, and the change sits at the points the enumeration
    numbered last, far from point 0, where the spanning tree is thin and
    most edges are left to the comparisons."""
    pres = draw(
        st.one_of(
            rank3_with_extra_relator(),
            rank4_with_extra_relator(),
            gamma_tuples.map(gamma_tuple_presentation),
        )
    )
    try:
        rep = regular_rep(pres, BUDGET)
    except BudgetExceeded:
        return None
    return repaired(rep, draw(st.integers(0, len(rep.gens) - 1)), draw(st.booleans()))


def repaired(rep: PermRep, k: int, cross: bool) -> PermRep | None:
    """The rep with the two 2-cycles of its involutive column k whose
    smaller points are largest re-paired, (a b)(c e) -> (a c)(b e), or
    (a e)(b c) when `cross`; None if the column has fewer than two."""
    col = list(rep.gens[k])
    cycles = sorted(((x, y) for x, y in enumerate(col) if x < y), reverse=True)
    if len(cycles) < 2:
        return None
    (a, b), (c, e) = cycles[:2]
    if cross:
        c, e = e, c
    col[a], col[c], col[b], col[e] = c, a, e, b
    return PermRep(rep.degree, rep.gens[:k] + (tuple(col),) + rep.gens[k + 1 :])


def traversal_order(rep: PermRep) -> list[int]:
    """The points in the order `engine.left_action`'s breadth-first
    traversal reaches them, columns in order."""
    queue, seen = [0], {0}
    for y in queue:
        for g in rep.gens:
            if g[y] not in seen:
                seen.add(g[y])
                queue.append(g[y])
    return queue


@st.composite
def swapped_rotation_reps(draw):
    """A certified regular rep with one more column, a product of two of its
    columns that is not an involution, whose images at the last two points
    of the traversal are swapped, so the action is not regular. The swapped
    edges lead back to points processed earlier, which an involutive column
    would skip; edges elsewhere may fail too."""
    pres = draw(st.one_of(rank3_with_extra_relator(), gamma_tuples.map(gamma_tuple_presentation)))
    try:
        rep = regular_rep(pres, BUDGET)
    except BudgetExceeded:
        return None
    a, b = draw(st.permutations(range(len(rep.gens))))[:2]
    column = list(compose(rep.gens[a], rep.gens[b]))
    if perm_order(column) <= 2:
        return None
    y1, y2 = traversal_order(PermRep(rep.degree, rep.gens + (tuple(column),)))[-2:]
    column[y1], column[y2] = column[y2], column[y1]
    return PermRep(rep.degree, rep.gens + (tuple(column),))


oeo_reps = st.sampled_from(OEO_TRIPLES).map(lambda t: oeo_permutation_rep(*t)[0])


class TestPermBasics:
    def test_compose_applies_left_then_right(self):
        p = (1, 2, 0)
        q = (0, 2, 1)
        assert compose(p, q) == (2, 1, 0)

    def test_invert(self):
        p = (2, 0, 1)
        assert invert(p) == (1, 2, 0)
        assert compose(p, invert(p)) == (0, 1, 2)

    def test_perm_order(self):
        assert perm_order((0, 1, 2)) == 1
        assert perm_order((1, 0, 3, 2)) == 2
        assert perm_order((1, 2, 0, 4, 3)) == 6


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
            compose(omega, h) == compose(h, omega) for h in full
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
                assert compose(lam, g) == compose(g, lam)

    def test_left_action_rejects_non_regular(self):
        rep, _ = oeo_permutation_rep(3, 6, 3)  # order 54 on 18 points
        assert engine.left_action(rep) is None

    def test_is_regular(self, rep_gamma36):
        assert is_regular(rep_gamma36)
        rep, _ = oeo_permutation_rep(3, 6, 3)
        assert not is_regular(rep)


class TestLeftActionOracle:
    """`engine.left_action` compares only the edges its spanning tree leaves
    open; `reference_elements.left_action` compares every column with every
    candidate at every point. They must return the same tuples or None."""

    @pytest.mark.parametrize(
        "reps, outcomes",
        [
            (transitive_reps(), {True, False}),
            (oeo_reps, {True, False}),
            (mixed_reps(), {True, False}),
            (repaired_reps(), {True, False}),
            (swapped_rotation_reps(), {False}),
        ],
        ids=["transitive", "odd-even-odd", "mixed", "re-paired", "swapped-rotation"],
    )
    def test_same_value_as_all_pairs(self, reps, outcomes):
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(reps)
        def check(rep):
            if rep is None:  # out of budget, or no two 2-cycles to re-pair
                return
            got = engine.left_action(rep)
            assert got == left_action(rep)
            assert (got is not None) == is_regular(rep)
            seen.add(got is not None)

        check()
        assert seen == outcomes

    def test_non_involutive_columns_of_a_regular_rep(self, rep_gamma36):
        # Γ(3, 6) on the columns x0, x0 x1 and x1 x2: right multiplications
        # that generate the group, so the action is regular, and only the
        # first column is an involution.
        gens = rep_gamma36.gens
        rep = PermRep(rep_gamma36.degree, (gens[0], compose(gens[0], gens[1]), compose(gens[1], gens[2])))
        assert [perm_order(g) for g in rep.gens] == [2, 3, 6]
        lams = engine.left_action(rep)
        assert lams is not None
        assert lams == left_action(rep)

    def test_a_rotation_broken_only_on_edges_back(self):
        # The dihedral group of order 8 on its own columns, then a third
        # column: the first with its images at points 4 and 7 swapped, which
        # is no involution. Every edge where the action fails leads back to a
        # point processed earlier, which an involutive column would skip.
        x0, x1 = (1, 0, 7, 4, 3, 6, 5, 2), (2, 3, 0, 1, 5, 4, 7, 6)
        assert engine.left_action(PermRep(8, (x0, x1))) is not None
        rep = PermRep(8, (x0, x1, (1, 0, 7, 4, 2, 6, 5, 3)))
        assert engine.left_action(rep) is None
        assert left_action(rep) is None
        assert not is_regular(rep)

    def test_a_new_fixed_point_breaks(self):
        # C2 x C2 on 4 points is regular. With the second column fixing
        # points 1 and 3 instead of swapping them, the group is D4 on 4
        # points, and the comparison at the fixed point 1 fails.
        rep = PermRep(4, ((1, 0, 3, 2), (2, 3, 0, 1)))
        assert engine.left_action(rep) == left_action(rep) == ((1, 0, 3, 2), (2, 3, 0, 1))
        broken = PermRep(4, ((1, 0, 3, 2), (2, 1, 0, 3)))
        assert engine.left_action(broken) is None
        assert left_action(broken) is None
        assert not is_regular(broken)


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
        images = [compose(s1, compose(s2, s2)), invert(s2)]
        phi = generator_map_extends(rep_gamma36.degree, [s1, s2], images)
        assert phi is not None
        assert is_automorphism_map(phi)
        assert len(phi) == 18

    def test_inconsistent_map_returns_none(self, rep_gamma36):
        s1 = eval_word(rep_gamma36, (0, 1))  # order 3
        s2 = eval_word(rep_gamma36, (1, 2))  # order 6
        phi = generator_map_extends(rep_gamma36.degree, [s1], [s2])
        assert phi is None
