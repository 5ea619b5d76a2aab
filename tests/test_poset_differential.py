"""The one-pass face-poset checks against the two-recursion originals.

`reference_poset.ReferencePoset` keeps the earlier `verify_polytope`,
chain enumerators, section generators and flag system; every test here
holds a `FacePoset` to it over the same levels: a built poset over
`orbit_levels` of its rep, a poset made by hand over the levels it was made
from. Each test demands equal reports (first failure
text included), equal flag systems and Schlafli symbols, or the same
exception type with the same message from both. `flag_count`, counted rank
by rank or read from the chain walk, must equal the length of both flag
systems on every polytope.
The same holds on the dual, made by the oracle from the levels reversed and
by `dual_poset` from the poset, and on one section drawn by the oracle. The
dual of a built poset must also equal `build_poset` on the rep with its
columns reversed, in counts, rows and roots.

`build_poset` gives a poset whose verdicts start at one root face per rank.
`TestRootWalk` holds it, on the same levels, to a `FacePoset` that starts at
every face and to the oracle, on quotients of rank 3 to 5 that include
non-polytopes.

Random partitions of a few points, one per rank, go through
`build_poset`'s label rows (`reference_poset.partition_poset`); their duals
and sections, and levels whose faces overlap or miss a point, through
pairwise meets (`reference_poset.meet_poset`).

`build_poset` takes the faces as the cosets gΓ_i, the orbits of the rep's
own columns. `TestLeftCosets` holds its verdicts to those of the earlier
build, the cosets Γ_i g from the left action (`reference_poset.left_levels`).
The two number their faces differently, so only verdicts are compared.

`build_poset` writes each face as a label per point. `TestLabelBuild` holds
it to the build from `frozenset` orbits (`reference_poset.reference_build`):
the same comparability rows, roots and face counts. So `orbit_levels` of a
rep gives the point sets of its built poset's faces, in the same numbering.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from reference_poset import (
    BOTTOM,
    ReferencePoset,
    left_levels,
    meet_poset,
    orbit_levels,
    partition_poset,
    reference_build,
)
from test_toddcox_differential import coxeter_symbols, gamma_tuples
from tightpoly.atlas import admissible_tuples
from tightpoly.engine import PermRep
from tightpoly.errors import BudgetExceeded
from tightpoly.poset import FacePoset, FlagSystem, build_poset, dual_poset
from tightpoly.toddcox import regular_rep
from tightpoly.words import (
    Presentation,
    coxeter_presentation,
    gamma_tuple_presentation,
    lambda_k_presentation,
)

BUDGET = 1000


def outcome(call):
    try:
        return call()
    except Exception as exc:  # the oracle must raise the same error
        return type(exc), str(exc)


def assert_same(poset: FacePoset, levels) -> None:
    """The poset against the oracle over the levels it was made from."""
    ref = ReferencePoset(poset.rank, levels)
    report = outcome(poset.verify_polytope)
    assert report == outcome(ref.verify_polytope)
    flags, ref_flags = outcome(poset.flags_and_adjacency), outcome(ref.flags_and_adjacency)
    assert flags == ref_flags
    assert outcome(poset.combinatorial_schlafli) == outcome(ref.combinatorial_schlafli)
    # flag_count counts rank by rank under transitive incidence and walks the
    # chains otherwise; it never reads the flag system. On a polytope both
    # count the flags; elsewhere they agree wherever the flag system builds.
    if report.passed:
        assert poset.flag_count() == len(flags.flags) == len(ref_flags.flags)
    elif isinstance(flags, FlagSystem):
        assert poset.flag_count() == len(flags.flags)


def check_presentation(pres: Presentation, data) -> None:
    try:
        rep = regular_rep(pres, BUDGET)
    except BudgetExceeded:
        return
    built = build_poset(rep)
    check_poset(built, orbit_levels(rep.degree, rep.gens), data)
    # The dual of the built poset is the build on the columns reversed.
    dual_built, reversed_built = dual_poset(built), build_poset(PermRep(rep.degree, rep.gens[::-1]))
    assert dual_built.face_counts() == reversed_built.face_counts()
    assert dual_built._comp == reversed_built._comp
    assert dual_built._roots == reversed_built._roots


def section_levels(levels, lo, hi):
    """The faces strictly between the face references lo and hi, re-ranked;
    the oracle picks them."""
    return ReferencePoset(len(levels), levels).section(lo, hi).levels


def section(levels, lo, hi) -> FacePoset:
    """The poset of `section_levels`, by pairwise meets."""
    s = section_levels(levels, lo, hi)
    return meet_poset(len(s), s)


def dual(levels) -> FacePoset:
    """The poset of the levels reversed, by pairwise meets."""
    return meet_poset(len(levels), levels[::-1])


def check_poset(poset: FacePoset, levels, data) -> None:
    """Compare the poset, made over the levels, their dual and one drawn
    section. An explicit example has no data to draw from; it passes None
    and draws no section."""
    assert_same(poset, levels)
    oracle_dual = dual(levels)
    assert_same(oracle_dual, levels[::-1])
    # `dual_poset` relabels the poset's own rows: those of the levels
    # reversed, with the poset's roots.
    relabelled = dual_poset(poset)
    assert relabelled._comp == oracle_dual._comp
    assert_same(relabelled, levels[::-1])
    if data is None:
        return
    # Ranks first, then faces, so that sections of every rank are drawn.
    ref = ReferencePoset(poset.rank, levels)
    counts = poset.face_counts()
    lo_rank = data.draw(st.integers(min_value=-1, max_value=poset.rank - 1))
    lo = BOTTOM
    if lo_rank >= 0:
        lo = (lo_rank, data.draw(st.integers(0, counts[lo_rank] - 1)))
    his = [(i, k) for i in range(lo_rank + 1, poset.rank) for k in range(counts[i])]
    his = [hi for hi in his + [ref.top] if ref.leq(lo, hi)]
    hi_rank = data.draw(st.sampled_from(sorted({i for i, _ in his})))
    hi = data.draw(st.sampled_from([h for h in his if h[0] == hi_rank]))
    drawn = section_levels(levels, lo, hi)
    assert_same(meet_poset(len(drawn), drawn), drawn)
    assert_same(dual(drawn), drawn[::-1])


@st.composite
def rank3_with_extra_relator(draw):
    # One extra relator on [p, q] collapses the group in many ways: killed or
    # identified generators, degenerate quotients and non-polytopes.
    base = coxeter_presentation(
        (draw(st.integers(min_value=2, max_value=6)), draw(st.integers(min_value=2, max_value=6)))
    )
    extra = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8))
    return Presentation(3, base.relators + (tuple(extra),))


@st.composite
def rank4_with_extra_relator(draw):
    # Rank-4 quotients reach failures rank 3 cannot: maximal chains that miss
    # a rank, and disconnected sections of rank 3.
    base = coxeter_presentation(tuple(draw(st.lists(st.integers(2, 4), min_size=3, max_size=3))))
    extra = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8))
    return Presentation(4, base.relators + (tuple(extra),))


@st.composite
def partition_posets(draw):
    # One random partition of a few points per rank: the input the coset
    # construction gives, minus the group, so that every axiom can fail.
    npoints = draw(st.integers(min_value=1, max_value=10))
    levels = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        labels = draw(st.lists(st.integers(0, npoints - 1), min_size=npoints, max_size=npoints))
        blocks: dict[int, set[int]] = {}
        for point, label in enumerate(labels):
            blocks.setdefault(label, set()).add(point)
        levels.append([frozenset(block) for block in blocks.values()])
    return levels


# Levels whose incidence, by meeting point sets, is not transitive, though
# their chains, sections and diamonds are those of a polytope: vertex {0, 2}
# meets edge {0, 1}, which meets 2-face {1, 3}, and vertex {6, 7} meets edge
# {7, 8}, which meets 2-face {5, 8}. `partition_posets` drew both.
INTRANSITIVE_LEVELS = [
    [[frozenset(face) for face in level] for level in levels]
    for levels in (
        [[{0, 2}, {1, 3}], [{0, 1}, {2, 3}], [{0, 2}, {1, 3}]],
        [
            [{0, 1, 2, 3, 4, 5, 8}, {6, 7}],
            [{0, 1, 2, 3, 4, 5, 6}, {7, 8}],
            [{0, 1, 2, 3, 4, 6, 7}, {5, 8}],
        ],
    )
]

# Levels with transitive incidence but an empty interval: no face lies
# between vertex {0} and the 2-face, so a maximal chain misses rank 1 and
# `verify_polytope` walks the chains to name it.
EMPTY_INTERVAL_LEVELS = [
    [frozenset(face) for face in level] for level in [[{0}, {1}], [{1}], [{0, 1}]]
]


class TestSameVerdicts:
    @settings(max_examples=60, deadline=None)
    @given(coxeter_symbols.map(coxeter_presentation), st.data())
    def test_coxeter_symbols(self, pres, data):
        check_presentation(pres, data)

    @settings(max_examples=25, deadline=None)
    @given(gamma_tuples.map(gamma_tuple_presentation), st.data())
    def test_admissible_gamma_tuples(self, pres, data):
        check_presentation(pres, data)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from((1, 3, 5, 7)).map(lambda_k_presentation), st.data())
    def test_lambda_k(self, pres, data):
        check_presentation(pres, data)

    @settings(max_examples=100, deadline=None)
    @given(rank3_with_extra_relator(), st.data())
    def test_extra_relator_quotients(self, pres, data):
        check_presentation(pres, data)

    @settings(max_examples=60, deadline=None)
    @given(rank4_with_extra_relator(), st.data())
    def test_rank4_extra_relator_quotients(self, pres, data):
        check_presentation(pres, data)

    @settings(max_examples=150, deadline=None)
    @given(partition_posets(), st.data())
    @example(INTRANSITIVE_LEVELS[0], None)
    @example(INTRANSITIVE_LEVELS[1], None)
    def test_point_partitions(self, levels, data):
        check_poset(partition_poset(levels), levels, data)

    def test_empty_interval(self):
        # Rank 1 misses point 0, so these levels are no partition.
        check_poset(meet_poset(3, EMPTY_INTERVAL_LEVELS), EMPTY_INTERVAL_LEVELS, None)


# Rank 3 to 5: Coxeter symbols and admissible tuples of length 2 to 4.
rank3to5_presentations = st.one_of(
    st.lists(st.integers(2, 5), min_size=2, max_size=4).map(coxeter_presentation),
    st.sampled_from([t for t in admissible_tuples(400, 5) if max(t) <= 12]).map(
        gamma_tuple_presentation
    ),
)


@st.composite
def collapsed_quotients(draw):
    # The base group, or a quotient by one extra relator: two generators
    # identified (x0 = x2 among them), one killed (a degenerate generator),
    # or a short word.
    base = draw(rank3to5_presentations)
    letters = st.integers(0, base.ngens - 1)
    extra = draw(
        st.one_of(
            st.just(()),
            st.tuples(letters, letters).filter(lambda ij: ij[0] != ij[1]),
            st.tuples(letters),
            st.lists(letters, min_size=2, max_size=6).map(tuple),
        )
    )
    return Presentation(base.ngens, base.relators + ((extra,) if extra else ()))


def assert_roots_agree(rep) -> None:
    """The built poset, with one root per rank, the poset over the same
    levels with every face a root, and the oracle give the same verdicts,
    first failure text included. The levels must come in increasing order
    of least point, as `build_poset` gives them."""
    levels = orbit_levels(rep.degree, rep.gens)
    for level in levels:
        least = [min(face) for face in level]
        assert least == sorted(set(least))
    rooted = build_poset(rep)
    every = meet_poset(rooted.rank, levels)
    ref = ReferencePoset(rooted.rank, levels)
    for verdict in ("verify_polytope", "flag_count", "combinatorial_schlafli", "is_tight"):
        got = [outcome(getattr(p, verdict)) for p in (rooted, every, ref)]
        assert got[0] == got[1] == got[2], verdict
    # The root walk is the full walk's chains that start at a root, in order.
    starts = [c for c in every._maximal_chains() if rooted._roots >> c[0] & 1]
    assert rooted._maximal_chains() == starts


class TestRootWalk:
    @settings(max_examples=120, deadline=None)
    @given(collapsed_quotients())
    def test_quotients_of_rank_3_to_5(self, pres):
        try:
            rep = regular_rep(pres, BUDGET)
        except BudgetExceeded:
            return
        assert_roots_agree(rep)

    @pytest.mark.parametrize(
        "pres,flags",
        [
            (Presentation(3, coxeter_presentation((2, 2)).relators + ((0, 2),)), 2),
            (coxeter_presentation((4, 3)), 48),
            (coxeter_presentation((3, 3, 3)), 120),
            (Presentation(4, coxeter_presentation((3, 3, 3)).relators + ((1,),)), 1),
            (coxeter_presentation((3, 3, 3, 3)), 720),
            (coxeter_presentation((3, 4, 3)), 1152),
        ],
        ids=["x0=x2", "{4,3}", "{3,3,3}", "{3,3,3} x1=1", "{3,3,3,3}", "{3,4,3}"],
    )
    def test_fixed_quotients(self, pres, flags):
        # x0 = x2 fails the diamond condition with one vertex; the cube, the
        # 4-simplex, the 5-simplex and the 24-cell are polytopes that are not
        # tight, whose flag counts are not 2 * prod(type); killing x1 in
        # [3, 3, 3] kills the group, leaving one face per rank and one flag.
        rep = regular_rep(pres)
        assert build_poset(rep).flag_count() == flags
        assert_roots_agree(rep)


class TestLeftCosets:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            collapsed_quotients(),
            gamma_tuples.map(gamma_tuple_presentation),
            coxeter_symbols.map(coxeter_presentation),
        )
    )
    def test_same_verdicts_as_the_left_action_build(self, pres):
        # The report with its first-failure text, the flag count, the symbol
        # and tightness, or the same exception from both.
        try:
            rep = regular_rep(pres, BUDGET)
        except BudgetExceeded:
            return
        built = build_poset(rep)
        left = partition_poset(left_levels(rep), transitive=True)
        for verdict in ("verify_polytope", "flag_count", "combinatorial_schlafli", "is_tight"):
            assert outcome(getattr(built, verdict)) == outcome(getattr(left, verdict)), verdict


def assert_same_build(rep) -> None:
    """The label build against the point-set oracle."""
    built, oracle = build_poset(rep), reference_build(rep)
    assert built._comp == oracle._comp
    assert built._roots == oracle._roots
    assert built.face_counts() == oracle.face_counts()


class TestLabelBuild:
    @pytest.mark.parametrize(
        "tuples",
        [
            admissible_tuples(500, 4)[::8],
            [t for t in admissible_tuples(600, 7) if len(t) == 6][::5],
        ],
        ids=["every 8th of atlas 500/4", "every 5th rank-7 tuple"],
    )
    def test_atlas_tuples(self, tuples):
        for t in tuples:
            assert_same_build(regular_rep(gamma_tuple_presentation(t)))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(collapsed_quotients(), coxeter_symbols.map(coxeter_presentation)))
    def test_coxeter_quotients(self, pres):
        try:
            rep = regular_rep(pres, BUDGET)
        except BudgetExceeded:
            return
        assert_same_build(rep)
