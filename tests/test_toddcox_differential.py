"""The one-pass kernel against the original two-pass enumerator, and the
regular certificate against the full-trace one.

`reference_toddcox` keeps the enumerator with the closing sweep; the table
tests demand byte-identical tables from both (the kernel's columns against
the reference's rows transposed), or BudgetExceeded from both, so the
kernel makes the same definitions in the same order. The kernel enumerates
over the trivial subgroup only, so the drawn subgroups go to the
certificate tests, where the reference enumerator builds coset actions that
are not regular.

`reference_toddcox._certify` traces every relator from every coset;
`toddcox._certify_regular` checks regularity and then the relators at coset
0. On every drawn table, tampered or not, the regular certificate accepts
exactly when the full trace accepts and the action is regular.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from reference_elements import is_regular
from reference_toddcox import _certify, reference_table
from tightpoly import engine
from tightpoly.atlas import admissible_tuples
from tightpoly.errors import BudgetExceeded, RelatorViolation
from tightpoly.toddcox import (
    UNDEF,
    CosetTable,
    PermRep,
    _certify_regular,
    enumerate_cosets,
    perm_rep,
)
from tightpoly.words import (
    Presentation,
    coxeter_presentation,
    gamma_tuple_presentation,
    lambda_k_presentation,
    rotations,
)


def assert_same_tables(pres, budget=3000):
    try:
        expected = reference_table(pres, (), budget)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            enumerate_cosets(pres, budget)
        return
    assert enumerate_cosets(pres, budget).columns == tuple(zip(*expected))


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
    @given(coxeter_symbols.map(coxeter_presentation))
    def test_coxeter_symbols(self, pres):
        assert_same_tables(pres)

    @settings(max_examples=40, deadline=None)
    @given(gamma_tuples.map(gamma_tuple_presentation))
    def test_admissible_gamma_tuples(self, pres):
        assert_same_tables(pres)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from((1, 3, 5, 7, 9)).map(lambda_k_presentation))
    def test_lambda_k(self, pres):
        assert_same_tables(pres)

    @settings(max_examples=150, deadline=None)
    @given(random_presentations())
    def test_random_relators(self, pres):
        assert_same_tables(pres, budget=300)

    @settings(max_examples=150, deadline=None)
    @given(symmetric_presentations())
    def test_relators_that_close_at_a_shift(self, pres):
        assert_same_tables(pres)

    @settings(max_examples=30, deadline=None)
    @given(high_rank_tuples.map(gamma_tuple_presentation))
    def test_high_rank_gamma_tuples(self, pres):
        assert_same_tables(pres)


class TestSameBudgetBehaviour:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            coxeter_symbols.map(coxeter_presentation),
            gamma_tuples.map(gamma_tuple_presentation),
        ),
        st.integers(min_value=1, max_value=400),
    )
    def test_drawn_budgets(self, pres, budget):
        assert_same_tables(pres, budget)

    @pytest.mark.parametrize("budget", [1, 71, 72, 89, 90, 91])
    def test_budget_edge(self, budget):
        # {6,6} closes with 72 live cosets after allocating 90, so budgets
        # between the two raise in both enumerators.
        pres = gamma_tuple_presentation((6, 6))
        assert_same_tables(pres, budget)
        if budget < 90:
            with pytest.raises(BudgetExceeded):
                enumerate_cosets(pres, budget)
        else:
            assert enumerate_cosets(pres, budget).rows == 72

    @pytest.mark.parametrize("budget", [287, 288, 381, 382])
    def test_budget_edge_at_rank_7(self, budget):
        # Γ(3,2,2,2,3,2) closes with 288 live cosets after allocating 382;
        # its commuting relators are where the kernel skips the most scans.
        pres = gamma_tuple_presentation((3, 2, 2, 2, 3, 2))
        assert_same_tables(pres, budget)
        if budget < 382:
            with pytest.raises(BudgetExceeded):
                enumerate_cosets(pres, budget)
        else:
            assert enumerate_cosets(pres, budget).rows == 288


class TestCertificate:
    """The full-trace oracle, `reference_toddcox._certify`, on its own."""

    def _dihedral_columns(self):
        table = enumerate_cosets(coxeter_presentation((3,)))
        return table.rows, table.columns, table.pres

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


def verdict(certify, degree, columns, pres):
    """None if the certificate accepts, else its RelatorViolation message;
    any other exception fails the test."""
    try:
        certify(degree, columns, pres)
    except RelatorViolation as exc:
        return str(exc)
    return None


# [3, 3] (the symmetric group S4) acting on the 12 cosets of <x0>, which is
# not normal: a transitive action that is not regular. Every relator of
# [3, 3] closes everywhere on it, and the extra relator x0 closes at coset 0
# (x0 lies in the subgroup) but not everywhere.
S4 = coxeter_presentation((3, 3))
S4_MOD_X0 = reference_table(S4, (0,))
S4_KILL_X0 = Presentation(3, S4.relators + ((0,),))


def _swap_entries(columns, a, b):
    """The columns with entries a and b of column 0 swapped."""
    col = list(columns[0])
    col[a], col[b] = col[b], col[a]
    return (tuple(col),) + columns[1:]


# One certificate case for each outcome, run as explicit examples with every
# batch of draws: the regular table of S4 (both accept), its action on the
# cosets of <x0> (only the full trace accepts), and the regular table with
# two entries of a column swapped (both reject).
S4_REGULAR = tuple(zip(*reference_table(S4)))
CERTIFICATE_OUTCOMES = (
    (len(S4_REGULAR[0]), S4_REGULAR, S4),
    (len(S4_MOD_X0), tuple(zip(*S4_MOD_X0)), S4),
    (len(S4_REGULAR[0]), _swap_entries(S4_REGULAR, 0, 2), S4),
)

# Coxeter and Γ quotients of rank 3 to 7: [p, q] and [p, q, r] with entries
# up to 6, and every admissible tuple of length 2 to 6 with 2 * prod <= 300.
quotient_bases = st.one_of(
    st.lists(st.integers(min_value=2, max_value=6), min_size=2, max_size=3).map(
        lambda sym: coxeter_presentation(tuple(sym))
    ),
    st.sampled_from(admissible_tuples(300, 7)).map(gamma_tuple_presentation),
)


@st.composite
def certificate_cases(draw):
    """(degree, columns, presentation to certify against), or None when the
    reference enumeration runs out of budget.

    A drawn quotient, with an optional extra relator, is enumerated by the
    reference enumerator over the trivial subgroup (a regular table) or over
    a drawn subgroup (regular only when that subgroup is normal). The table
    is certified against its presentation, or against it with one more word:
    a word in the subgroup's generators when there is one, which closes at
    coset 0, else any word. Then one column may be tampered with: two entries
    swapped, an entry set to UNDEF, or two of its 2-cycles paired the other
    way round, which keeps it an involutive permutation.
    """
    base = draw(quotient_bases)
    letters = st.integers(min_value=0, max_value=base.ngens - 1)
    words = st.lists(letters, min_size=1, max_size=6).map(tuple)
    pres = Presentation(base.ngens, base.relators + tuple(draw(st.lists(words, max_size=1))))
    subgroup = draw(st.one_of(st.just(frozenset()), subgroups(base.ngens)))
    try:
        table = reference_table(pres, subgroup, 600)
    except BudgetExceeded:
        return None
    if draw(st.booleans()):
        inside = st.sampled_from(sorted(subgroup)) if subgroup else letters
        word = tuple(draw(st.lists(inside, min_size=1, max_size=4)))
        pres = Presentation(pres.ngens, pres.relators + (word,))
    degree, columns = len(table), tuple(zip(*table))
    kind = draw(st.sampled_from(("none", "swap", "undef", "re-pair")))
    if kind == "none":
        return degree, columns, pres
    g = draw(st.integers(min_value=0, max_value=pres.ngens - 1))
    col = list(columns[g])
    points = st.integers(min_value=0, max_value=degree - 1)
    if kind == "swap":
        a, b = draw(points), draw(points)
        col[a], col[b] = col[b], col[a]
    elif kind == "undef":
        col[draw(points)] = UNDEF
    else:
        pairs = sorted({(x, y) for x, y in enumerate(col) if x < y})
        if len(pairs) >= 2:
            (a, b), (c, e) = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=2, unique=True))
            col[a], col[c], col[b], col[e] = c, a, e, b
    return degree, columns[:g] + (tuple(col),) + columns[g + 1 :], pres


class TestRegularCertificate:
    """`toddcox._certify_regular` against the full-trace oracle."""

    def test_agrees_with_the_full_trace_on_regular_actions(self):
        seen = set()

        @settings(max_examples=150, deadline=None)
        @example(CERTIFICATE_OUTCOMES[0])
        @example(CERTIFICATE_OUTCOMES[1])
        @example(CERTIFICATE_OUTCOMES[2])
        @given(certificate_cases())
        def check(case):
            if case is None:  # the enumeration ran out of budget
                return
            degree, columns, pres = case
            full = verdict(_certify, degree, columns, pres)
            new = verdict(_certify_regular, degree, columns, pres)
            if full is not None:
                # Both reject, and at the column check with the same message.
                assert new is not None
                if full.startswith("column"):
                    assert new == full
                seen.add("both reject")
                return
            regular = is_regular(PermRep(degree, columns))
            if regular:
                assert new is None
                assert _certify_regular(degree, columns, pres) is None
                seen.add("both accept")
            else:
                # Stricter, and right: only the full trace accepts a valid
                # action that is not regular.
                assert new == f"the action on {degree} cosets is not regular"
                seen.add("only the full trace accepts")

        check()
        assert seen == {"both reject", "both accept", "only the full trace accepts"}

    def _dihedral_columns(self):
        table = reference_table(coxeter_presentation((3,)))
        return len(table), tuple(zip(*table)), coxeter_presentation((3,))

    def test_accepts_closed_table_and_returns_its_left_action(self):
        # The certificate is a pure check: an accepted table returns None.
        degree, cols, pres = self._dihedral_columns()
        assert _certify_regular(degree, cols, pres) is None

    def test_swapped_entry(self):
        degree, cols, pres = self._dihedral_columns()
        col = list(cols[0])
        col[0], col[2] = col[2], col[0]
        with pytest.raises(RelatorViolation, match="column 0 is not an involutive permutation"):
            _certify_regular(degree, (tuple(col),) + cols[1:], pres)

    def test_undefined_entry(self):
        degree, cols, pres = self._dihedral_columns()
        with pytest.raises(RelatorViolation, match="column 0 is not an involutive permutation"):
            _certify_regular(degree, ((UNDEF,) + cols[0][1:],) + cols[1:], pres)

    @pytest.mark.parametrize(
        "column",
        [
            lambda col: col[:-1],
            lambda col: col[:-1] + (len(col),),
            lambda col: (-len(col),) + col[1:],
            lambda col: col[:-1] + (-len(col) - 1,),
        ],
        ids=["short", "entry-equal-to-degree", "minus-degree", "below-minus-degree"],
    )
    def test_column_out_of_range(self, column):
        # Each is rejected as a column, not by an IndexError, and a negative
        # entry is not read from the end of the column (-1 is the undefined
        # entry above).
        degree, cols, pres = self._dihedral_columns()
        with pytest.raises(RelatorViolation, match="column 1 is not an involutive permutation"):
            _certify_regular(degree, cols[:1] + (column(cols[1]),), pres)

    def test_relator_that_does_not_close_at_coset_0(self):
        # A regular action of [3] on which (x0 x1)^2 closes nowhere.
        degree, cols, _ = self._dihedral_columns()
        with pytest.raises(RelatorViolation, match=r"relator \(0, 1, 0, 1\) does not close at coset 0"):
            _certify_regular(degree, cols, coxeter_presentation((2,)))

    def test_relator_that_closes_at_coset_0_only(self):
        # A transitive action on which every relator closes at coset 0, but
        # x0 does not close everywhere: it is not regular, and the regular
        # certificate rejects it at the regularity check.
        degree, cols = len(S4_MOD_X0), tuple(zip(*S4_MOD_X0))
        rep = PermRep(degree, cols)
        assert len(engine.point_orbit(rep, range(3))) == degree == 12
        assert all(engine._image(rep, w) == 0 for w in S4_KILL_X0.relators)
        full = verdict(_certify, degree, cols, S4_KILL_X0)
        assert full is not None and full.startswith("relator (0,) does not close at coset ")
        assert not full.endswith(" coset 0")
        with pytest.raises(RelatorViolation, match="the action on 12 cosets is not regular"):
            _certify_regular(degree, cols, S4_KILL_X0)

    def test_non_normal_subgroup_action(self):
        # The full trace accepts the valid action on the cosets of <x0>; the
        # regular certificate rejects it, as a table over the trivial
        # subgroup must be regular.
        degree, cols = len(S4_MOD_X0), tuple(zip(*S4_MOD_X0))
        assert verdict(_certify, degree, cols, S4) is None
        with pytest.raises(RelatorViolation, match="the action on 12 cosets is not regular"):
            _certify_regular(degree, cols, S4)
        with pytest.raises(RelatorViolation, match="not regular"):
            perm_rep(CosetTable(pres=S4, columns=cols))

    def test_every_rejection_holds_under_python_O(self):
        # The certificate raises RelatorViolation, not an assert, so `-O`
        # keeps every rejection above.
        script = """
import sys
from reference_toddcox import reference_table
from tightpoly.errors import RelatorViolation
from tightpoly.toddcox import UNDEF, CosetTable, perm_rep
from tightpoly.words import Presentation, coxeter_presentation

d3 = coxeter_presentation((3,))
rows = [list(r) for r in reference_table(d3)]
swapped = [r[:] for r in rows]
swapped[0][0], swapped[2][0] = swapped[2][0], swapped[0][0]
undef = [r[:] for r in rows]
undef[0][0] = UNDEF
s4 = coxeter_presentation((3, 3))
mod_x0 = reference_table(s4, (0,))
cases = [
    (d3, swapped),
    (d3, undef),
    (coxeter_presentation((2,)), rows),
    (Presentation(3, s4.relators + ((0,),)), mod_x0),
    (s4, mod_x0),
]
print(__debug__)
for pres, table in cases:
    try:
        perm_rep(CosetTable(pres=pres, columns=tuple(zip(*table))))
        print("accepted")
    except RelatorViolation:
        print("RelatorViolation")
"""
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(tests.parent / "src"), str(tests))))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        assert out == ["False"] + ["RelatorViolation"] * 5
