import pytest
from hypothesis import given, settings, strategies as st

from reference_elements import compose, identity_perm
from reference_toddcox import reference_table
from tightpoly import engine
from tightpoly.errors import BudgetExceeded, RelatorViolation
from tightpoly.toddcox import (
    CosetTable,
    enumerate_cosets,
    group_order,
    perm_rep,
    regular_rep,
)
from tightpoly.words import (
    Presentation,
    coxeter_presentation,
    gamma_pq_presentation,
    gamma_tuple_presentation,
    lambda_k_presentation,
)


class TestOrders:
    @pytest.mark.parametrize(
        "pres,order",
        [
            (coxeter_presentation((3, 2)), 12),
            (coxeter_presentation((4, 3)), 48),
            (gamma_pq_presentation(3, 6), 36),
            (gamma_pq_presentation(5, 10), 100),
            (gamma_tuple_presentation((3, 6, 3)), 108),
            (lambda_k_presentation(7), 168),
        ],
    )
    def test_group_order(self, pres, order):
        assert group_order(pres) == order

    def test_subgroup_enumeration(self):
        # |G : <x0, x1>| where the subgroup order comes from a separate
        # enumeration of the dihedral presentation. The kernel enumerates
        # over the trivial subgroup only, so the reference enumerator builds
        # the subgroup's table.
        table = reference_table(gamma_pq_presentation(3, 6), (0, 1))
        dihedral = group_order(coxeter_presentation((3,)))
        assert len(table) == 36 // dihedral == 6

    def test_trivial_subgroup_of_small_group(self):
        table = reference_table(coxeter_presentation((2,)), (0, 1))
        assert len(table) == 1


class TestBudget:
    def test_budget_exceeded_is_raised(self):
        with pytest.raises(BudgetExceeded):
            enumerate_cosets(gamma_pq_presentation(5, 10), max_cosets=10)

    def test_environment_does_not_set_the_budget(self, monkeypatch):
        # The budget comes only from the caller's arguments.
        monkeypatch.setenv("TIGHTPOLY_MAX_COSETS", "3")
        assert enumerate_cosets(gamma_pq_presentation(3, 6)).rows == 36

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="max_cosets must be >= 1"):
            enumerate_cosets(gamma_pq_presentation(3, 6), max_cosets=budget)

    def test_requires_involution_relators(self):
        with pytest.raises(ValueError):
            enumerate_cosets(Presentation(2, ((0, 1, 0, 1),)))


class TestPermRep:
    def test_dihedral_regular_action(self):
        rep = regular_rep(coxeter_presentation((3,)))
        assert rep.degree == 6
        ident = identity_perm(6)
        for g in rep.gens:
            assert compose(g, g) == ident
        # Regular: the generated group has order equal to the degree and
        # no non-identity element fixes a point.
        group = engine.closure_perms(6, rep.gens)
        assert len(group) == 6
        for p in group:
            assert p == ident or all(p[i] != i for i in range(6))

    @pytest.mark.parametrize(
        "pres,degree",
        [(lambda_k_presentation(1), 24), (gamma_pq_presentation(5, 2), 20)],
    )
    def test_degrees(self, pres, degree):
        assert regular_rep(pres).degree == degree

    def test_relator_violation_on_tampered_table(self):
        table = enumerate_cosets(coxeter_presentation((3,)))
        rows = [list(r) for r in table.table]
        rows[0][0], rows[1][0] = rows[1][0], rows[0][0]
        bad = CosetTable(pres=table.pres, table=tuple(tuple(r) for r in rows))
        with pytest.raises(RelatorViolation):
            perm_rep(bad)


class TestDeterminism:
    @pytest.mark.parametrize(
        "pres",
        [
            gamma_pq_presentation(3, 6),
            lambda_k_presentation(3),
            coxeter_presentation((4, 3)),
        ],
    )
    def test_two_runs_identical(self, pres):
        a = enumerate_cosets(pres)
        b = enumerate_cosets(pres)
        assert a.table == b.table

    def test_golden_dump(self):
        table = enumerate_cosets(coxeter_presentation((3,)))
        assert table.table == ((1, 2), (0, 3), (5, 0), (4, 1), (3, 5), (2, 4))


def _scan_closes(table, w, c):
    x = c
    for letter in w:
        x = table.table[x][letter]
    return x == c


symbols = st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3)


class TestClosedTableInvariants:
    @settings(max_examples=20, deadline=None)
    @given(symbols)
    def test_every_relator_closes_from_every_coset(self, sym):
        pres = coxeter_presentation(tuple(sym))
        try:
            table = enumerate_cosets(pres, max_cosets=3000)
        except BudgetExceeded:
            return  # hyperbolic symbol; nothing to verify
        for w in pres.relators:
            for c in range(table.rows):
                assert _scan_closes(table, w, c)

    @pytest.mark.parametrize(
        "pres",
        [
            coxeter_presentation((3, 2)),
            gamma_pq_presentation(3, 6),
            gamma_tuple_presentation((3, 6, 3)),
            lambda_k_presentation(3),
            coxeter_presentation((4, 3)),
        ],
    )
    def test_degree_matches_element_closure(self, pres):
        # Independent order oracle: breadth-first element closure.
        rep = regular_rep(pres)
        assert len(engine.closure_perms(rep.degree, rep.gens, cap=500)) == rep.degree
