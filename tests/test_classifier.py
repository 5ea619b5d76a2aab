import pytest
from hypothesis import given, settings, strategies as st

from reference_classifier import _bfs_relabel
from reference_elements import compose, identity_perm
from test_poset_differential import rank3_with_extra_relator
from tightpoly import classifier, engine
from tightpoly.classifier import (
    UNDEF,
    _NormalSearch,
    census_nonorientable,
    classify_tight,
    low_index_normal,
)
from tightpoly.errors import CapExceeded, InvariantViolation
from tightpoly.poset import poset_checks
from tightpoly.toddcox import perm_rep, regular_rep
from tightpoly.words import (
    Presentation,
    coxeter_presentation,
    gamma_pq_presentation,
    lambda_k_presentation,
)


def direct_normal_subgroups(pres):
    """Brute-force oracle: enumerate normal subgroups of a finite group as
    unions of conjugacy classes closed under multiplication."""
    rep = regular_rep(pres)
    elements = sorted(engine.closure_perms(rep.degree, rep.gens, cap=2000))
    classes = []
    assigned = {}
    for e in elements:
        if e in assigned:
            continue
        orbit = {e}
        frontier = [e]
        while frontier:
            x = frontier.pop()
            for g in rep.gens:
                y = compose(compose(g, x), g)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        cls = frozenset(orbit)
        classes.append(cls)
        for x in cls:
            assigned[x] = cls
    ident = identity_perm(rep.degree)
    others = [c for c in classes if ident not in c]
    normals = []
    for bits in range(1 << len(others)):
        subset = {ident}
        for i, cls in enumerate(others):
            if bits >> i & 1:
                subset |= cls
        if len(elements) % len(subset) != 0:
            continue
        if all(compose(a, b) in subset for a in subset for b in subset):
            normals.append(frozenset(subset))
    return rep, normals


def coset_table_of_normal(rep, normal, ngens):
    """Canonical coset table of the action on the cosets of a normal subgroup."""
    elements = engine.closure_perms(rep.degree, rep.gens, cap=2000)
    coset_of = {}
    cosets = []
    for e in sorted(elements):
        if e in coset_of:
            continue
        coset = frozenset(compose(n, e) for n in normal)
        idx = len(cosets)
        cosets.append(coset)
        for x in coset:
            coset_of[x] = idx
    # Reorder so the subgroup itself is coset 0.
    ident = identity_perm(rep.degree)
    base = coset_of[ident]
    order = [base] + [i for i in range(len(cosets)) if i != base]
    relabel = {old: new for new, old in enumerate(order)}
    rows = [[0] * ngens for _ in cosets]
    for old, coset in enumerate(cosets):
        e = next(iter(coset))
        for g in range(ngens):
            rows[relabel[old]][g] = relabel[coset_of[compose(e, rep.gens[g])]]
    return _bfs_relabel([tuple(r) for r in rows], ngens)


class TestBfsRelabel:
    def test_relabels_breadth_first(self):
        # The 4-cycle on one generator pair, numbered out of order.
        rows = [(2, 3), (3, 2), (0, 1), (1, 0)]
        assert _bfs_relabel(rows, 2) == ((1, 2), (0, 3), (3, 0), (2, 1))

    def test_intransitive_table_is_a_typed_error(self):
        with pytest.raises(InvariantViolation):
            _bfs_relabel([(1,), (0,), (3,), (2,)], 1)


class TestEmittedNumbering:
    """`low_index_normal` returns the tables as the search emits them, so the
    search itself must number each breadth-first and emit them in strictly
    increasing order."""

    @staticmethod
    def assert_standardized(pres, index):
        tables = [t.table for t in low_index_normal(pres, index)]
        assert all(a < b for a, b in zip(tables, tables[1:])), tables
        for table in tables:
            assert _bfs_relabel(list(table), pres.ngens) == table

    @pytest.mark.parametrize("pq", [(3, 6), (4, 8), (6, 6)])
    def test_census_types(self, pq):
        self.assert_standardized(coxeter_presentation(pq), 2 * pq[0] * pq[1])

    @settings(max_examples=100, deadline=None)
    @given(rank3_with_extra_relator(), st.integers(min_value=1, max_value=48))
    def test_extra_relator_quotients(self, pres, index):
        self.assert_standardized(pres, index)


class TestLowIndexNormal:
    def test_index_one(self):
        tables = low_index_normal(coxeter_presentation((3, 2)), 1)
        assert len(tables) == 1
        assert tables[0].rows == 1

    def test_trivial_kernel_of_finite_group(self):
        assert len(low_index_normal(coxeter_presentation((3, 2)), 12)) == 1
        assert len(low_index_normal(coxeter_presentation((3, 4)), 48)) == 1

    def test_index_cap(self):
        # No element is enumerated: the message names the index and the cap.
        with pytest.raises(CapExceeded, match="^index 200 is above the index cap of 128$") as info:
            low_index_normal(coxeter_presentation((3, 2)), 200)
        assert info.value.cap == 128
        with pytest.raises(CapExceeded, match="^index 200 is above the index cap of 150$"):
            low_index_normal(coxeter_presentation((3, 2)), 200, 150)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_index_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match="index_cap must be >= 1"):
            low_index_normal(coxeter_presentation((3, 2)), 12, cap)

    def test_requires_involution_relators(self):
        # The integers have a normal subgroup of index 3, but the search
        # builds involutory columns, so it must refuse the presentation.
        with pytest.raises(ValueError, match="involution relators"):
            low_index_normal(Presentation(1, ()), 3)

    @pytest.mark.parametrize(
        "pres",
        [
            coxeter_presentation((2, 2)),
            coxeter_presentation((3, 2)),
            coxeter_presentation((3, 3)),
            coxeter_presentation((5, 2)),
            coxeter_presentation((3, 4)),
            coxeter_presentation((3, 5)),
            gamma_pq_presentation(3, 6),
            lambda_k_presentation(1),
        ],
    )
    def test_complete_against_direct_enumeration(self, pres):
        # For finite presentations, the search must agree with the
        # brute-force normal subgroup oracle at every divisor index.
        rep, normals = direct_normal_subgroups(pres)
        order = rep.degree
        by_index = {}
        for normal in normals:
            index = order // len(normal)
            by_index.setdefault(index, set()).add(
                coset_table_of_normal(rep, normal, pres.ngens)
            )
        for index in sorted(by_index):
            found = {t.table for t in low_index_normal(pres, index)}
            assert found == by_index[index], f"index {index} mismatch"

    def test_tables_are_valid_and_regular(self):
        for table in low_index_normal(coxeter_presentation((4, 4)), 32):
            rep = perm_rep(table)  # validates all relators
            group = engine.closure_perms(rep.degree, rep.gens)
            assert len(group) == rep.degree


class _RecordedUndo(_NormalSearch):
    """Records each backtrack: whether the branch ended in a failed
    propagation, the pinned relations before it, the number of them the
    mark holds, and the pinned relations after it."""

    def __init__(self, pres, index):
        super().__init__(pres, index)
        self.failed = False
        self.undos = []

    def _propagate(self):
        ok = super()._propagate()
        self.failed = not ok
        return ok

    def _undo(self, mark):
        at_mark = mark[1]
        before = len(self.pinned)
        super()._undo(mark)
        self.undos.append((self.failed, before, at_mark, len(self.pinned)))
        self.failed = False
        assert not (self.worklist or self.pending or self.fresh)


class _CheckedSelfLoops(_NormalSearch):
    """Checks after each successful propagation that every pinned one-letter
    word (g,) has made column g the identity on every row, rows defined
    after the pin included; `checked` counts the pins checked."""

    def __init__(self, pres, index):
        super().__init__(pres, index)
        self.checked = 0

    def _propagate(self):
        ok = super()._propagate()
        if ok:
            n = self.ngens
            for w in self.pinned:
                if len(w) == 1:
                    assert all(self.table[c * n + w[0]] == c for c in range(self.nrows))
                    self.checked += 1
        return ok


class TestNormalSearch:
    @pytest.mark.parametrize("pq, nodes", [((4, 8), 2230), ((6, 8), 12052)])
    def test_search_nodes(self, pq, nodes):
        # The tables alone cannot show weaker pruning. Without the scans of
        # pinned relations from rows defined later, a pinned self-loop no
        # longer fills its column in those rows: the search still finds the
        # same tables where it ends, but {4, 6} takes 326,415 nodes instead
        # of 1,051, and {4, 8} had found nothing after 64 million nodes.
        # `test_pinned_self_loops_fill_their_columns` fails fast on that.
        p, q = pq
        search = _NormalSearch(coxeter_presentation(pq), 2 * p * q)
        search.run()
        assert search.nodes == nodes

    @pytest.mark.parametrize("pq, nodes, tables", [((4, 8), 1030, 3), ((6, 8), 5311, 4)])
    def test_bipartite_search_nodes(self, pq, nodes, tables):
        # The parity rule of the orientable census: under half the nodes of
        # the unrestricted search above, and the tables it finds are exactly
        # its tables of rotation index 2 (test_classifier_differential.py).
        p, q = pq
        search = _NormalSearch(coxeter_presentation(pq), 2 * p * q, bipartite=True)
        search.run()
        assert (search.nodes, len(search.found)) == (nodes, tables)

    @pytest.mark.parametrize(
        "pq, bipartite, nodes, tables",
        [
            ((4, 8), False, 1167, 2),
            ((4, 8), True, 631, 2),
            ((6, 8), False, 6786, 2),
            ((6, 8), True, 3117, 2),
        ],
        ids=["4,8", "4,8-bipartite", "6,8", "6,8-bipartite"],
    )
    def test_exact_type_search_nodes(self, pq, bipartite, nodes, tables):
        # The rule of every census: against the pins above, {4, 8} goes
        # 2230 -> 1167 nodes and 1030 -> 631 bipartite, {6, 8} 12052 -> 6786
        # and 5311 -> 3117, and the tables whose dihedral subgroups collapse
        # are gone (test_classifier_differential.py).
        p, q = pq
        search = _NormalSearch(coxeter_presentation(pq), 2 * p * q, bipartite, pq)
        search.run()
        assert (search.nodes, len(search.found)) == (nodes, tables)

    def test_exact_type_rejects_collapsing_relations_before_writing(self):
        witness = [(), (0,), (0, 1, 0), (0, 2, 0)]
        collapsing = [
            (0, 0, 0),  # a self-loop pins (0,): x0 = 1
            (2, 1, 0),  # pins (0, 1, 0, 1): (x0 x1)^2 = 1, under p_0 = 4
            (1, 2, 0),  # pins (0, 2): x0 = x2, for a commuting pair
        ]
        search = _NormalSearch(coxeter_presentation((4, 8)), 64, exact_type=(4, 8))
        search.nrows = 4
        search.witness = witness
        for a, g, b in collapsing:
            assert not search._set(a, g, b)
        assert search.table == [-1] * (64 * 3) and search.trail == [] and search.pending == []
        assert search._set(3, 2, 0)  # (0, 2, 0, 2) holds in [4, 8]
        assert search.pending == [(0, 2, 0, 2)]
        # Without the exact type the same edges are written and pinned.
        plain = _NormalSearch(coxeter_presentation((4, 8)), 64)
        plain.nrows = 4
        plain.witness = witness
        for a, g, b in collapsing:
            assert plain._set(a, g, b)
        assert plain.pending == [(0,), (0, 1, 0, 1), (0, 2)]

    def test_bipartite_rejects_equal_parity_edges_before_writing(self):
        search = _NormalSearch(coxeter_presentation((4, 8)), 64, bipartite=True)
        search.nrows = 3
        search.witness = [(), (0,), (0, 1)]
        assert not search._set(0, 1, 0)  # a self-loop joins a row to itself
        assert not search._set(0, 2, 2)  # rows 0 and 2 both have even witnesses
        assert search.table == [-1] * (64 * 3) and search.trail == []
        assert search._set(0, 1, 1)

    def test_first_undefined_looks_only_at_the_rows_defined(self):
        search = _NormalSearch(coxeter_presentation((4, 8)), 64)
        search.nrows = 2
        search.table[:6] = [1, 0, 0, 0, 1, 1]
        # Rows 2 to 63 are all UNDEF, but no row past nrows is open yet.
        assert search._first_undefined() == -1
        search.table[4] = UNDEF
        assert search._first_undefined() == 4
        search.table[1] = UNDEF
        assert search._first_undefined() == 1

    def test_undo_unpins_the_relations_of_a_failed_branch(self):
        search = _RecordedUndo(coxeter_presentation((4, 8)), 64)
        search.run()
        assert all(after == at_mark for _, _, at_mark, after in search.undos)
        assert any(
            failed and before > at_mark
            for failed, before, at_mark, _ in search.undos
        )
        assert search.pinned == [] and search.trail == []

    def test_edges_pin_reduced_relations(self):
        # Rows 2 = 1*x1 and 3 = 1*x2 share the witness prefix (0,) of row 1.
        search = _NormalSearch(coxeter_presentation((4, 8)), 64)
        search.nrows = 4
        search.witness = [(), (0,), (0, 1), (0, 2)]
        for a, g, b in [(0, 0, 1), (1, 1, 2), (1, 2, 3)]:
            assert search._set(a, g, b)
        assert search.pending == []  # definition edges pin nothing
        assert search._set(2, 0, 3)
        assert search.pending == [(1, 0, 2)]
        assert search._set(2, 2, 2)  # a self-loop pins its one letter
        assert search.table[2 * 3 + 2] == 2
        assert search.pending == [(1, 0, 2), (2,)]
        assert search._set(0, 2, 0)  # and pins it only once
        assert search.pending == [(1, 0, 2), (2,)]

    def test_pinned_self_loops_fill_their_columns(self):
        search = _CheckedSelfLoops(coxeter_presentation((4, 8)), 64)
        search.run()
        assert search.checked > 0


class TestFuzzAgainstOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(st.integers(2, 4), st.integers(2, 4)),
        st.lists(st.integers(0, 2), min_size=2, max_size=6),
    )
    def test_random_quotients_match_direct_enumeration(self, sym, extra):
        from tightpoly.errors import BudgetExceeded
        from tightpoly.words import Presentation

        base = coxeter_presentation(sym)
        pres = Presentation(3, base.relators + (tuple(extra),))
        try:
            rep = regular_rep(pres, max_cosets=400)
        except BudgetExceeded:
            return
        if rep.degree > 40:
            return
        _, normals = direct_normal_subgroups(pres)
        by_index = {}
        for normal in normals:
            index = rep.degree // len(normal)
            by_index.setdefault(index, set()).add(
                coset_table_of_normal(rep, normal, 3)
            )
        for index, expected in sorted(by_index.items()):
            found = {t.table for t in low_index_normal(pres, index)}
            assert found == expected, (sym, extra, index)


class TestClassify:
    def test_36_unique_and_gamma(self):
        records = classify_tight(3, 6, require_orientable=True)
        assert len(records) == 1
        record = records[0]
        assert record.order == 36
        assert record.isomorphic_to_gamma is True
        assert record.profile.schlafli == (3, 6)
        assert record.orientable
        _, report, _, _, tight = poset_checks(perm_rep(record.table))
        assert report.passed and tight

    def test_34_orientable_empty(self):
        assert classify_tight(3, 4, require_orientable=True) == []

    def test_34_nonorientable_is_lambda1(self):
        records = census_nonorientable(3, 4)
        assert len(records) == 1
        assert records[0].isomorphic_to_lambda is True
        assert records[0].order == 24

    def test_94_nonorientable_contains_lambda3(self):
        records = census_nonorientable(9, 4)
        assert any(r.isomorphic_to_lambda for r in records)

    def test_54_nonorientable_golden(self):
        # Exhaustive search is its own oracle; frozen after the first
        # verified run.
        assert census_nonorientable(5, 4) == []

    def test_48_two_records(self):
        records = classify_tight(4, 8, require_orientable=True)
        assert len(records) >= 2
        tables = {r.table.table for r in records}
        assert len(tables) == len(records)

    @pytest.mark.parametrize(
        "census, bipartite, nrecords",
        [
            (lambda: classify_tight(4, 6, require_orientable=True), True, 1),
            (lambda: classify_tight(4, 6, require_orientable=False), False, 3),
            (lambda: census_nonorientable(4, 6), False, 2),
        ],
        ids=["orientable", "all", "non-orientable"],
    )
    def test_only_the_orientable_census_searches_bipartite_tables(self, census, bipartite, nrecords, monkeypatch):
        # {4, 6} has 4 normal subgroups of index 48, 2 of them bipartite.
        # Every mode passes the type, so the search prunes by it.
        calls = []

        def spy(*args, **kwargs):
            calls.append((kwargs["bipartite"], kwargs["exact_type"]))
            return low_index_normal(*args, **kwargs)

        monkeypatch.setattr(classifier, "low_index_normal", spy)
        assert len(census()) == nrecords
        assert calls == [(bipartite, (4, 6))]

    def test_unfiltered_includes_both_kinds(self):
        records = classify_tight(3, 4, require_orientable=False)
        assert len(records) == 1  # only the non-orientable one exists

    def test_cap(self):
        with pytest.raises(CapExceeded, match="^index 140 is above the index cap of 128$"):
            classify_tight(10, 7, require_orientable=True)

    def test_records_satisfy_source_relators(self):
        for record in classify_tight(4, 4, require_orientable=True):
            perm_rep(record.table)  # raises on any relator violation
            assert record.order == 32

    # Exhaustive search is its own oracle; counts frozen after the first
    # verified run. Types come in dual pairs with equal counts.
    BOTH_EVEN_GOLDEN = {
        (2, 2): 1, (2, 4): 1, (2, 6): 1, (2, 8): 1, (2, 10): 1, (2, 12): 1,
        (2, 14): 1, (2, 16): 1, (2, 18): 1, (2, 20): 1, (2, 22): 1, (2, 24): 1,
        (4, 4): 1, (4, 6): 1, (4, 8): 2, (4, 10): 1, (4, 12): 1,
        (6, 6): 3, (6, 8): 1,
    }

    def test_both_even_census_counts_golden(self):
        for (p, q), expected in self.BOTH_EVEN_GOLDEN.items():
            found = len(classify_tight(p, q, require_orientable=True))
            dual = len(classify_tight(q, p, require_orientable=True))
            assert found == expected, (p, q, found)
            assert dual == expected, (q, p, dual)
