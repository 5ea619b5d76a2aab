"""A product tuple's profile and poset checks from its blocks, against the
whole rep.

`families._gamma_rep` reads the profile and the poset checks of a direct
product of regular reps off its blocks (`sggi.product_profile`,
`families._product_checks`), and `families.verify_gamma_pair` reads its
mirror's off those: `product_profile` on the reversed rep with the forward
profile as its one block, and the forward checks with the symbol reversed
(`families._mirror_checks`). The oracle is the whole rep's own
`sggi.profile` and `poset.poset_checks` of its `build_poset`: every test
here demands the same `SggiProfile` and the same (report, flags, symbol,
tight), for a tuple and for its mirror (the rep with its columns
reversed), and that the drawn inputs reach the fallback, where some block
is not a polytope, so equality is not vacuous. The drawn products also hold
the posets the checks are read from, `product_poset` (the ordinal sum of
the blocks' proper parts) and its `dual_poset`, both in
`tests/reference_poset.py`, to the whole rep's built posets.

The certificate of every product table reads its regularity one commuting
class of columns at a time (`engine.acts_regularly`). `TestRegularByClasses`
holds it to `engine.left_action` on the whole table and to the
element-closure oracle `is_regular`, on drawn products, regular or
tampered, and on one fixed table per exit.
"""

import dataclasses
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from reference_elements import is_regular
from reference_poset import dual_poset, product_poset
from test_atlas_cli import blocks_of
from test_engine import repaired, transitive_reps
from tightpoly import engine, families, poset, sggi
from tightpoly.atlas import admissible_tuples
from tightpoly.engine import PermRep
from tightpoly.errors import BudgetExceeded
from tightpoly.families import _product, verify_gamma_family
from tightpoly.poset import PosetReport, build_poset, poset_checks
from tightpoly.toddcox import DEFAULT_MAX_COSETS, regular_rep
from tightpoly.words import Presentation, coxeter_presentation, lambda_k_presentation

C2 = PermRep(2, ((1, 0),))
TRIVIAL = PermRep(1, ((0,),))  # a lone generator equal to the identity
# x0 = x2 in [2, 2]: a non-degenerate sggi whose <x0> and <x2> meet in <x0>.
X0_IS_X2 = regular_rep(Presentation(3, coxeter_presentation((2, 2)).relators + ((0, 2),)))
# x0 = 1 in [2, 2]: a degenerate generator.
X0_KILLED = regular_rep(Presentation(3, coxeter_presentation((2, 2)).relators + ((0,),)))
LAMBDA1 = regular_rep(lambda_k_presentation(1))  # not orientable
D3 = regular_rep(coxeter_presentation((3,)))  # order 6
TETRAHEDRON = regular_rep(coxeter_presentation((3, 3)))  # a polytope that is not tight
BLOCK_BUDGET = 200
MAX_DEGREE = 1500
ORACLE_DEGREE = 300  # `is_regular` closes the group, up to degree + 1 elements


def _reversed(rep: PermRep) -> PermRep:
    """The rep with its columns in reverse order, as the mirror takes it."""
    return PermRep(rep.degree, rep.gens[::-1])


def whole_checks(rep: PermRep) -> list[tuple]:
    """The oracle: `poset_checks` of the rep's own poset, then of its
    mirror's, the rep with its columns reversed."""
    return [poset_checks(build_poset(whole)) for whole in (rep, _reversed(rep))]


def same_both_ways(rep: PermRep, blocks: list[PermRep]) -> tuple[sggi.SggiProfile, tuple]:
    """The block route equals the whole rep's, for the rep and its mirror,
    and so do the oracle posets the checks are read from; returns the rep's
    profile and poset checks."""
    prof = sggi.product_profile(rep, [sggi.profile(b) for b in blocks])
    checks = families._product_checks(rep, [poset_checks(build_poset(b)) for b in blocks])
    check_both_ways(rep, prof, checks)
    faces = product_poset([build_poset(b) for b in blocks])
    for got, whole in [(faces, rep), (dual_poset(faces), _reversed(rep))]:
        oracle = build_poset(whole)
        assert (got._counts, got._comp, got._roots) == (oracle._counts, oracle._comp, oracle._roots)
    return prof, checks


def check_both_ways(rep: PermRep, prof: sggi.SggiProfile, checks: tuple) -> None:
    """The forward profile and poset checks, and the mirror's from them, as
    `verify_gamma_pair` takes them, each equal to the whole rep's."""
    mirror_rep = _reversed(rep)
    mirror = (sggi.product_profile(mirror_rep, [prof]), families._mirror_checks(mirror_rep, checks))
    assert [prof, mirror[0]] == [sggi.profile(rep), sggi.profile(mirror_rep)]
    assert [checks, mirror[1]] == whole_checks(rep)


def pair_checks(t: tuple[int, ...], blocks: dict, monkeypatch, passed: bool = True) -> tuple[PermRep, list[tuple]]:
    """The rep that `verify_gamma_pair` certifies for `t` under the batch's
    `blocks`, and the poset checks that each of its verdicts reads; each
    verdict passes, or each fails, as `passed` says."""
    got = []
    real_gamma, real_verdict = families._gamma_rep, families._verdict

    def gamma(*args):
        out = real_gamma(*args)
        got.append(out[2])
        return out

    def verdict(family, entries, pres, prof, checks, *rest):
        got.append(checks)
        return real_verdict(family, entries, pres, prof, checks, *rest)

    with monkeypatch.context() as m:
        m.setattr(families, "_gamma_rep", gamma)
        m.setattr(families, "_verdict", verdict)
        assert {v.passed for v in families.verify_gamma_pair(t, blocks=blocks)} == {passed}
    return got[0], got[1:]


def products(max_flags: int, max_rank: int, length: int | None = None) -> list[tuple[int, ...]]:
    return [t for t in admissible_tuples(max_flags, max_rank) if 2 in t and length in (None, len(t))]


@pytest.mark.parametrize(
    "tuples, count, step",
    [(products(500, 4), 805, 4), (products(600, 7, 6), 154, 2)],
    ids=["atlas-500-4-every-4th", "rank-7-every-2nd"],
)
def test_atlas_products_both_ways(tuples, count, step):
    assert len(tuples) == count
    blocks = {}  # one batch's, so a later tuple reads its blocks' stored data
    for t in tuples[::step]:
        _, _, rep, prof, checks = families._gamma_rep(t, None, blocks)
        assert set(blocks_of(t)) <= set(blocks)
        check_both_ways(rep, prof, checks)
        assert prof.is_string_c_group and prof.orientable and prof.intersection_witness is None
        assert checks[0].passed and checks[3]


def test_every_verdict_of_atlas_100_4_reads_the_whole_posets_checks(monkeypatch):
    # The batch's tasks, one per mirror pair or palindrome, through
    # `verify_gamma_pair` with one block dict: each verdict's poset checks,
    # read off its blocks or its tuple's, are its whole rep's own.
    blocks = {}
    verdicts = 0
    for t in admissible_tuples(100, 4):
        if t <= t[::-1]:
            rep, checks = pair_checks(t, blocks, monkeypatch)
            assert checks == whole_checks(rep)[: len(checks)]
            verdicts += len(checks)
    assert verdicts == 121


def planted(checks: tuple, kind: str) -> tuple:
    """A block's poset checks made to fail: a failed report, or a polytope
    with no combinatorial Schlafli symbol (not equivelar)."""
    report, flags, _, _ = checks
    if kind == "failed-report":
        return PosetReport(False, True, True, True, "planted"), 0, None, False
    return report, flags, None, False


def counted_builds(monkeypatch) -> list[PermRep]:
    """The reps that `poset.build_poset` is called on from here on."""
    builds = []
    real_build = poset.build_poset
    monkeypatch.setattr(poset, "build_poset", lambda rep: builds.append(rep) or real_build(rep))
    return builds


class TestFallback:
    @pytest.mark.parametrize("kind", ["failed-report", "no-symbol"])
    @pytest.mark.parametrize("t, key", [((2, 4), (4,)), ((3, 6, 2, 2), (3, 6)), ((2, 2, 3), ())])
    def test_planted_block(self, t, key, kind, monkeypatch):
        # A block of the batch dict whose checks fail sends its tuple to the
        # whole rep's own poset, built once, and the mirror reads the
        # tuple's checks.
        blocks = {}
        for k in blocks_of(t):
            families._block(blocks, k, DEFAULT_MAX_COSETS)
        blocks[key] = dataclasses.replace(blocks[key], checks=planted(blocks[key].checks, kind))
        builds = counted_builds(monkeypatch)
        rep, checks = pair_checks(t, blocks, monkeypatch)
        assert builds == [rep]
        assert checks == whole_checks(rep)
        assert checks[0][0].passed and checks[0][3]

    def test_whole_poset_not_a_polytope(self, monkeypatch):
        # {3,6} and {6,3} each get x0 = x2, mirrored: the one block is the
        # whole tuple, its poset is not a polytope, and the mirror's checks
        # run on the reversed rep's own poset.
        real = families.gamma_tuple_presentation

        def tampered(sym):
            pres = real(sym)
            if tuple(sym) in {(3, 6), (6, 3)}:
                return Presentation(pres.ngens, pres.relators + ((0, 2),))
            return pres

        monkeypatch.setattr(families, "gamma_tuple_presentation", tampered)
        blocks = {}
        families._block(blocks, (3, 6), DEFAULT_MAX_COSETS)
        builds = counted_builds(monkeypatch)
        rep, checks = pair_checks((3, 6), blocks, monkeypatch, passed=False)
        assert builds == [_reversed(rep)]
        assert checks == whole_checks(rep)
        assert not checks[0][0].passed


@st.composite
def block_reps(draw):
    """A regular rep of a string Coxeter group of rank 2 or 3, perhaps with
    one extra relator, or a lone generator: C2, or the identity."""
    rank = draw(st.integers(1, 3))
    if rank == 1:
        return draw(st.sampled_from([C2, TRIVIAL]))
    base = coxeter_presentation(tuple(draw(st.integers(2, 5)) for _ in range(rank - 1)))
    extra = draw(st.lists(st.lists(st.integers(0, rank - 1), min_size=1, max_size=6).map(tuple), max_size=1))
    try:
        return regular_rep(Presentation(rank, base.relators + tuple(extra)), BLOCK_BUDGET)
    except BudgetExceeded:
        return C2


def test_drawn_products_both_ways():
    seen = set()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(block_reps(), min_size=1, max_size=3).filter(lambda bs: prod(b.degree for b in bs) <= MAX_DEGREE))
    # A block that fails the intersection condition, with a C-group first;
    # a degenerate generator; an orientable block before one that is not; a
    # tight block before one that is not.
    @example([C2, X0_IS_X2])
    @example([X0_KILLED, C2])
    @example([C2, LAMBDA1])
    @example([X0_IS_X2])
    @example([C2, TETRAHEDRON])
    def check(blocks):
        prof, checks = same_both_ways(_product(blocks), blocks)
        seen.update(
            {
                ("polytope", checks[0].passed),
                ("tight", checks[3]),
                ("c_group", prof.is_string_c_group),
                ("witness", prof.intersection_witness is not None),
                ("degenerate", bool(prof.degenerate)),
                ("orientable", prof.orientable),
                ("blocks", len(blocks)),
            }
        )

    check()
    assert seen == {
        ("polytope", True),
        ("polytope", False),
        ("tight", True),
        ("tight", False),
        ("c_group", True),
        ("c_group", False),
        ("witness", True),
        ("witness", False),
        ("degenerate", True),
        ("degenerate", False),
        ("orientable", True),
        ("orientable", False),
        ("blocks", 1),
        ("blocks", 2),
        ("blocks", 3),
    }


def test_fallback_gives_the_whole_reps_witness():
    # The block {x0 = x2} fails at I = {0}, J = {2}; shifted past C2 the
    # product fails at {1}, {3}, found by the exhaustive check on the product.
    prof, checks = same_both_ways(_product([C2, X0_IS_X2]), [C2, X0_IS_X2])
    assert not checks[0].passed
    assert not prof.is_string_c_group
    assert prof.intersection_witness == ((1,), (3,))


# Fixed tables, one for each way out of `acts_regularly`. C2 x D3 with its
# C2 column re-paired at (4 10)(5 11) -> (4 11)(5 10): the commutators with
# the D3 columns still fix point 0, and not point 4.
REPAIRED = repaired(_product([C2, D3]), 0, cross=True)
# D3 acting on itself from both sides: right multiplications and left ones
# commute, each side is regular on all 6 points, and the whole is not.
TWO_SIDED = PermRep(6, D3.gens + engine.left_action(D3))
S3_ON_3 = PermRep(3, ((0, 2, 1), (1, 0, 2)))  # transitive, not regular


@st.composite
def tampered_products(draw):
    """A product of 1-3 blocks, each a block rep or a drawn coset action
    that may not be regular, and perhaps with one column `repaired` at the
    points numbered last: tables of one or more commuting classes, regular
    or not. Returns the blocks and the table."""
    blocks = draw(
        st.lists(st.one_of(block_reps(), transitive_reps().filter(lambda r: r is not None)), min_size=1, max_size=3).filter(
            lambda bs: prod(b.degree for b in bs) <= ORACLE_DEGREE
        )
    )
    rep = _product(blocks)
    if draw(st.booleans()):
        rep = repaired(rep, draw(st.integers(0, len(rep.gens) - 1)), draw(st.booleans())) or rep
    return blocks, rep


class TestRegularByClasses:
    """`engine.acts_regularly`, the certificate's regularity check, against
    `engine.left_action` on the whole table and the oracle `is_regular`."""

    def verdict(self, rep: PermRep, monkeypatch) -> tuple[bool, list[int]]:
        """The check's verdict, equal to the other two, and the degrees of
        the `left_action` calls it made, which tell its exit."""
        degrees = []
        real = engine.left_action

        def counted(r):
            degrees.append(r.degree)
            return real(r)

        with monkeypatch.context() as m:
            m.setattr(engine, "left_action", counted)
            got = engine.acts_regularly(rep)
        assert got == (engine.left_action(rep) is not None) == is_regular(rep)
        return got, degrees

    @pytest.mark.parametrize(
        "rep, regular, degrees",
        [
            (D3, True, [6]),
            (_product([C2, D3]), True, [2, 6]),
            (PermRep(4, ((1, 0, 3, 2), (1, 0, 3, 2))), False, [2, 2]),
            (_product([C2, S3_ON_3]), False, [2, 3]),
            (REPAIRED, False, []),
            (X0_IS_X2, True, [2, 2, 2, 4]),
            (TWO_SIDED, False, [6, 6, 6]),
        ],
        ids=[
            "one-class-whole",
            "classes-accept",
            "intransitive",
            "class-not-regular",
            "cross-pair-repaired-off-0",
            "classes-meet-fallback-accepts",
            "two-sided-fallback-rejects",
        ],
    )
    def test_each_exit(self, rep, regular, degrees, monkeypatch):
        assert self.verdict(rep, monkeypatch) == (regular, degrees)

    def test_drawn_products(self, monkeypatch):
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(tampered_products())
        @example(([X0_IS_X2], X0_IS_X2))
        @example(([C2, X0_IS_X2], _product([C2, X0_IS_X2])))
        @example(([C2, D3], REPAIRED))
        def check(drawn):
            blocks, rep = drawn
            got, degrees = self.verdict(rep, monkeypatch)
            seen.update({("regular", got), ("blocks", len(blocks)), ("calls", min(len(degrees), 2))})

        check()
        assert seen == {
            ("regular", True),
            ("regular", False),
            ("blocks", 1),
            ("blocks", 2),
            ("blocks", 3),
            ("calls", 0),
            ("calls", 1),
            ("calls", 2),
        }


@pytest.mark.parametrize(
    "tuples, labelled, orbits, certified",
    [
        (admissible_tuples(500, 4)[::8], 48_256, 459, 26_510),
        ([t for t in admissible_tuples(600, 7) if len(t) == 6][::5], 1_030, 96, 1_162),
    ],
    ids=["atlas-workload", "highrank-workload"],
)
def test_work_on_the_verdict_path(tuples, labelled, orbits, certified, monkeypatch):
    # The benchmark's atlas and highrank items, through the verdict: points
    # labelled (degree x rank over every `build_poset`), `point_orbit`
    # calls, and points handed to `left_action` (its degrees summed). Built
    # on the whole rep, the first two were 121,708 and 901 (atlas) and
    # 97,328 and 837 (highrank); with every block built afresh, 48,314 and
    # 461 and 1,278 and 110. With every table's regularity checked whole,
    # the certified points were 43,154 (atlas) and 14,352 (highrank).
    work = {"labelled": 0, "orbits": 0, "certified": 0}
    real_build, real_orbit, real_left_action = poset.build_poset, engine.point_orbit, engine.left_action

    def build(rep):
        work["labelled"] += rep.degree * len(rep.gens)
        return real_build(rep)

    def orbit(*args):
        work["orbits"] += 1
        return real_orbit(*args)

    def left_action(rep):
        work["certified"] += rep.degree
        return real_left_action(rep)

    monkeypatch.setattr(poset, "build_poset", build)
    monkeypatch.setattr(engine, "point_orbit", orbit)
    monkeypatch.setattr(engine, "left_action", left_action)
    for t in tuples:
        verify_gamma_family(t)
    assert work == {"labelled": labelled, "orbits": orbits, "certified": certified}
