"""The normal-subgroup search against the one with the dynamic relator store.

`reference_classifier` keeps the search that stored every pinned relation,
in all its rotations, until backtracking removed it, and that tracked each
generator column as unknown, identity or derangement. The search in
`tightpoly.classifier` pins each relation in one rotation, with the prefix
its two witnesses share cut off, and keeps it for its branch so that rows
defined later are scanned with it too; a self-loop pins a one-letter word
in place of the column states. Weaker pruning may cost search nodes but
must not change the result: every test here demands equal
`low_index_normal` tables from both, or the same exception type.
Infinite groups are in the domain, where the brute-force oracle in
`test_classifier.py` cannot go.

`TestBipartite` holds the search with the parity rule of the orientable
census against the unrestricted search, filtered afterwards to the tables
of rotation index 2 by `sggi._rotation_index`, the criterion the census's
orientability filter reads.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CENSUS_TYPES
from reference_classifier import low_index_normal as reference_low_index_normal
from test_poset_differential import rank3_with_extra_relator
from tightpoly import sggi
from tightpoly.classifier import low_index_normal
from tightpoly.toddcox import perm_rep
from tightpoly.words import coxeter_presentation, gamma_pq_presentation

entries = st.integers(min_value=2, max_value=8)
indices = st.integers(min_value=0, max_value=48)  # 0 is rejected by both
caps = st.none() | st.integers(min_value=1, max_value=48)


def outcome(search, pres, index, cap):
    try:
        return [t.table for t in search(pres, index, cap)]
    except Exception as exc:  # the oracle must raise the same error type
        return type(exc)


def assert_same(pres, index, cap):
    expected = outcome(reference_low_index_normal, pres, index, cap)
    assert outcome(low_index_normal, pres, index, cap) == expected


class TestSameTables:
    @settings(max_examples=100, deadline=None)
    @given(entries, entries, indices, caps)
    def test_coxeter_groups(self, p, q, index, cap):
        # [p, q] is infinite unless 1/p + 1/q > 1/2.
        assert_same(coxeter_presentation((p, q)), index, cap)

    @settings(max_examples=60, deadline=None)
    @given(entries, entries, indices)
    def test_gamma_pq(self, p, q, index):
        assert_same(gamma_pq_presentation(p, q), index, None)

    @settings(max_examples=100, deadline=None)
    @given(rank3_with_extra_relator(), indices)
    def test_extra_relator_quotients(self, pres, index):
        assert_same(pres, index, None)


def rotation_index_2_tables(pres, index, cap):
    return [t for t in low_index_normal(pres, index, cap) if sggi._rotation_index(perm_rep(t)) == 2]


def assert_same_bipartite(pres, index, cap=None):
    bipartite = functools.partial(low_index_normal, bipartite=True)
    assert outcome(bipartite, pres, index, cap) == outcome(rotation_index_2_tables, pres, index, cap)


class TestBipartite:
    @pytest.mark.parametrize("pq", CENSUS_TYPES, ids=lambda pq: f"{pq[0]},{pq[1]}")
    def test_census_grid(self, pq):
        p, q = pq
        assert_same_bipartite(coxeter_presentation(pq), 2 * p * q)

    @settings(max_examples=100, deadline=None)
    @given(entries, entries, indices, caps)
    def test_coxeter_groups(self, p, q, index, cap):
        assert_same_bipartite(coxeter_presentation((p, q)), index, cap)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(2, 4), min_size=3, max_size=3), st.integers(0, 32))
    def test_rank4_coxeter_groups(self, entries4, index):
        assert_same_bipartite(coxeter_presentation(tuple(entries4)), index)

    @pytest.mark.parametrize("entries4", [(2, 4, 4), (4, 4, 2)], ids=["2,4,4", "4,4,2"])
    def test_rank4_at_twice_the_product(self, entries4):
        # At the index 2 * 32 of a tight rank-4 quotient: one bipartite
        # table of the three.
        pres = coxeter_presentation(entries4)
        assert len(low_index_normal(pres, 64, bipartite=True)) == 1
        assert_same_bipartite(pres, 64)

    @settings(max_examples=100, deadline=None)
    @given(rank3_with_extra_relator(), indices)
    def test_extra_relator_quotients(self, pres, index):
        assert_same_bipartite(pres, index)
