import pytest
from hypothesis import given, settings, strategies as st

from reference_elements import compose, identity_perm
from reference_toddcox import reference_table
from tightpoly import engine, toddcox
from tightpoly.atlas import admissible_tuples
from tightpoly.errors import BudgetExceeded, RelatorViolation
from tightpoly.families import verify_gamma_family
from tightpoly.toddcox import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    _hlt,
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

    def test_budget_exceeded_says_how_far_it_got(self):
        # Γ(4, 6) allocates 30 cosets, none merged yet, while processing coset 2.
        with pytest.raises(BudgetExceeded) as info:
            enumerate_cosets(gamma_tuple_presentation((4, 6)), max_cosets=30)
        err = info.value
        assert (err.budget, err.allocated, err.live, err.coset) == (30, 30, 30, 2)
        assert str(err) == "coset enumeration exceeded budget of 30 cosets (30 allocated, 30 live, at coset 2)"

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
        col = list(table.columns[0])
        col[0], col[1] = col[1], col[0]
        bad = CosetTable(pres=table.pres, columns=(tuple(col),) + table.columns[1:])
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
        assert a.columns == b.columns

    def test_golden_dump(self):
        table = enumerate_cosets(coxeter_presentation((3,)))
        assert table.columns == ((1, 0, 5, 4, 3, 2), (2, 3, 0, 1, 5, 4))


class TestDefinitions:
    """The kernel's work, summed over fixed samples of the atlas: a change
    to the definition order, or to when coincidences are found, moves the
    cosets allocated or live."""

    @pytest.mark.parametrize(
        "tuples, allocated, live",
        [
            (admissible_tuples(500, 4)[::8], 46_362, 34_692),
            ([t for t in admissible_tuples(600, 7) if len(t) == 6][::5], 20_959, 13_904),
        ],
        ids=["atlas-500-4-every-8th", "rank-7-every-5th"],
    )
    def test_cosets_allocated_and_live(self, tuples, allocated, live):
        total_allocated = total_live = 0
        for t in tuples:
            _, parent = _hlt(gamma_tuple_presentation(t), DEFAULT_MAX_COSETS)
            total_allocated += len(parent)
            total_live += sum(p == x for x, p in enumerate(parent))
        assert (total_allocated, total_live) == (allocated, live)

    @pytest.mark.parametrize(
        "tuples, enumerations, allocated, live",
        [
            (admissible_tuples(500, 4)[::8], 155, 22_556, 17_858),
            ([t for t in admissible_tuples(600, 7) if len(t) == 6][::5], 45, 453, 448),
        ],
        ids=["atlas-workload", "highrank-workload"],
    )
    def test_cosets_allocated_on_the_verdict_path(self, tuples, enumerations, allocated, live, monkeypatch):
        # The benchmark's atlas and highrank items, through the verdict: a
        # tuple with an entry 2 enumerates only its blocks, each block once
        # per verdict, so the work is less than the whole presentations'
        # above (46,362 and 20,959).
        runs = []

        def counted(pres, budget):
            cols, parent = _hlt(pres, budget)
            runs.append(parent)
            return cols, parent

        monkeypatch.setattr(toddcox, "_hlt", counted)
        for t in tuples:
            verify_gamma_family(t)
        total_allocated = sum(map(len, runs))
        total_live = sum(p == x for parent in runs for x, p in enumerate(parent))
        assert (len(runs), total_allocated, total_live) == (enumerations, allocated, live)


def _scan_closes(table, w, c):
    x = c
    for letter in w:
        x = table.columns[letter][x]
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
