"""The one-pass kernel against the original two-pass enumerator.

`reference_toddcox` keeps the enumerator with the closing sweep; every
test here demands byte-identical tables from both, or BudgetExceeded from
both, so the kernel makes the same definitions in the same order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from reference_toddcox import reference_table
from tightpoly.atlas import admissible_tuples
from tightpoly.errors import BudgetExceeded, RelatorViolation
from tightpoly.toddcox import _certify, enumerate_cosets
from tightpoly.words import (
    Presentation,
    coxeter_presentation,
    gamma_tuple_presentation,
    lambda_k_presentation,
    rotations,
)


def assert_same_tables(pres, subgroup_gens=(), budget=3000):
    try:
        expected = reference_table(pres, subgroup_gens, budget)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            enumerate_cosets(pres, subgroup_gens, budget)
        return
    assert enumerate_cosets(pres, subgroup_gens, budget).table == expected


def subgroups(ngens):
    return st.frozensets(st.integers(min_value=0, max_value=ngens - 1))


coxeter_symbols = st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=3)
# Admissible tuples of length 2-3 with 2 * prod <= 600 and entries <= 12,
# sampled from the list, so that no draw is thrown away.
gamma_tuples = st.sampled_from(
    [t for t in admissible_tuples(600, 4) if max(t) <= 12]
)
# Admissible tuples of length 4-6 (rank 5-7) with 2 * prod <= 600: many
# commuting relators (x_i x_j)^2, each of which closes again at every shift.
high_rank_tuples = st.sampled_from(
    [t for t in admissible_tuples(600, 7) if len(t) >= 4]
)


@st.composite
def presentations_with_subgroups(draw, base):
    pres = draw(base)
    return pres, draw(subgroups(pres.ngens))


@st.composite
def random_presentations(draw):
    # Arbitrary words, repeated letters included, on top of the involutions:
    # this reaches scan paths the builders' reduced relators never take.
    ngens = draw(st.integers(min_value=1, max_value=3))
    letters = st.integers(min_value=0, max_value=ngens - 1)
    extra = draw(st.lists(st.lists(letters, min_size=1, max_size=10).map(tuple), max_size=3))
    involutions = [(g, g) for g in range(ngens)]
    relators = draw(st.permutations(involutions + extra))
    return Presentation(ngens, tuple(relators))


@st.composite
def symmetric_presentations(draw):
    # Words that close again at some shift of their own cycle: the relators
    # of a Coxeter or Γ presentation, each rotated and perhaps reversed, so
    # the shifts fall at other places, and up to two more words of the forms
    # u^k and (x,) + v + (y,) + reversed(v) (whose reversal is its rotation
    # by 1). These reach the scans the kernel skips once a cycle closed.
    base = draw(
        st.one_of(
            coxeter_symbols.map(coxeter_presentation),
            gamma_tuples.map(gamma_tuple_presentation),
        )
    )
    letters = st.integers(min_value=0, max_value=base.ngens - 1)
    words = st.lists(letters, max_size=3).map(tuple)
    power = st.tuples(words.filter(bool), st.integers(min_value=2, max_value=4)).map(
        lambda uk: uk[0] * uk[1]
    )
    mirror = st.tuples(letters, words, letters).map(
        lambda xvy: (xvy[0],) + xvy[1] + (xvy[2],) + xvy[1][::-1]
    )
    relators = []
    for w in base.relators + tuple(draw(st.lists(st.one_of(power, mirror), max_size=2))):
        w = draw(st.sampled_from(tuple(rotations(w))))
        relators.append(w[::-1] if draw(st.booleans()) else w)
    return Presentation(base.ngens, tuple(draw(st.permutations(relators))))


class TestSameTables:
    @settings(max_examples=60, deadline=None)
    @given(presentations_with_subgroups(coxeter_symbols.map(coxeter_presentation)))
    def test_coxeter_symbols(self, case):
        pres, gens = case
        assert_same_tables(pres, gens)

    @settings(max_examples=40, deadline=None)
    @given(presentations_with_subgroups(gamma_tuples.map(gamma_tuple_presentation)))
    def test_admissible_gamma_tuples(self, case):
        pres, gens = case
        assert_same_tables(pres, gens)

    @settings(max_examples=20, deadline=None)
    @given(
        presentations_with_subgroups(
            st.sampled_from((1, 3, 5, 7, 9)).map(lambda_k_presentation)
        )
    )
    def test_lambda_k(self, case):
        pres, gens = case
        assert_same_tables(pres, gens)

    @settings(max_examples=150, deadline=None)
    @given(presentations_with_subgroups(random_presentations()))
    def test_random_relators(self, case):
        pres, gens = case
        assert_same_tables(pres, gens, budget=300)

    @settings(max_examples=150, deadline=None)
    @given(presentations_with_subgroups(symmetric_presentations()))
    def test_relators_that_close_at_a_shift(self, case):
        pres, gens = case
        assert_same_tables(pres, gens)

    @settings(max_examples=30, deadline=None)
    @given(presentations_with_subgroups(high_rank_tuples.map(gamma_tuple_presentation)))
    def test_high_rank_gamma_tuples(self, case):
        pres, gens = case
        assert_same_tables(pres, gens)


class TestSameBudgetBehaviour:
    @settings(max_examples=60, deadline=None)
    @given(
        presentations_with_subgroups(
            st.one_of(
                coxeter_symbols.map(coxeter_presentation),
                gamma_tuples.map(gamma_tuple_presentation),
            )
        ),
        st.integers(min_value=1, max_value=400),
    )
    def test_drawn_budgets(self, case, budget):
        pres, gens = case
        assert_same_tables(pres, gens, budget)

    @pytest.mark.parametrize("budget", [1, 71, 72, 89, 90, 91])
    def test_budget_edge(self, budget):
        # {6,6} closes with 72 live cosets after allocating 90, so budgets
        # between the two raise in both enumerators.
        pres = gamma_tuple_presentation((6, 6))
        assert_same_tables(pres, (), budget)
        if budget < 90:
            with pytest.raises(BudgetExceeded):
                enumerate_cosets(pres, (), budget)
        else:
            assert enumerate_cosets(pres, (), budget).rows == 72

    @pytest.mark.parametrize("budget", [287, 288, 381, 382])
    def test_budget_edge_at_rank_7(self, budget):
        # Γ(3,2,2,2,3,2) closes with 288 live cosets after allocating 382;
        # its commuting relators are where the kernel skips the most scans.
        pres = gamma_tuple_presentation((3, 2, 2, 2, 3, 2))
        assert_same_tables(pres, (), budget)
        if budget < 382:
            with pytest.raises(BudgetExceeded):
                enumerate_cosets(pres, (), budget)
        else:
            assert enumerate_cosets(pres, (), budget).rows == 288


class TestCertificate:
    def _dihedral_columns(self):
        table = enumerate_cosets(coxeter_presentation((3,)))
        return table.rows, tuple(zip(*table.table)), table.pres

    def test_accepts_closed_table(self):
        _certify(*self._dihedral_columns())

    def test_tampered_column(self):
        degree, cols, pres = self._dihedral_columns()
        col = list(cols[0])
        col[0], col[1] = col[1], col[0]
        with pytest.raises(RelatorViolation):
            _certify(degree, (tuple(col),) + cols[1:], pres)

    def test_undefined_entry(self):
        degree, cols, pres = self._dihedral_columns()
        with pytest.raises(RelatorViolation):
            _certify(degree, ((-1,) + cols[0][1:],) + cols[1:], pres)

    def test_relator_that_does_not_close(self):
        # The columns of [3] are involutive permutations, but (x0 x1)^2
        # does not close on them.
        degree, cols, _ = self._dihedral_columns()
        with pytest.raises(RelatorViolation, match="does not close"):
            _certify(degree, cols, coxeter_presentation((2,)))
