"""A product tuple's profile and poset from its blocks, against the whole rep.

`families._gamma_rep` reads the profile and face poset of a direct
product of regular reps off its blocks (`sggi.product_profile`,
`poset.product_poset`), and `families.verify_gamma_pair` reads its mirror's
off those: `product_profile` on the reversed rep with the forward profile
as its one block, and `poset.dual_poset` of the forward poset. The oracle
is the whole product rep's own `sggi.profile` and `build_poset`, which stay
the route of nothing else: every test here demands the same `SggiProfile`
and the same face counts, comparability rows and roots, for a tuple and for
its mirror (the rep with its columns reversed), and that the drawn inputs
reach the exhaustive fallback, so equality is not vacuous.

The certificate of every product table reads its regularity one commuting
class of columns at a time (`engine.acts_regularly`). `TestRegularByClasses`
holds it to `engine.left_action` on the whole table and to the
element-closure oracle `is_regular`, on drawn products, regular or
tampered, and on one fixed table per exit.
"""

from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from reference_elements import is_regular
from test_atlas_cli import blocks_of
from test_engine import repaired, transitive_reps
from tightpoly import engine, families, poset, sggi
from tightpoly.atlas import admissible_tuples
from tightpoly.engine import PermRep
from tightpoly.errors import BudgetExceeded
from tightpoly.families import _product, verify_gamma_family
from tightpoly.poset import build_poset, dual_poset
from tightpoly.toddcox import regular_rep
from tightpoly.words import Presentation, coxeter_presentation, lambda_k_presentation

C2 = PermRep(2, ((1, 0),))
TRIVIAL = PermRep(1, ((0,),))  # a lone generator equal to the identity
# x0 = x2 in [2, 2]: a non-degenerate sggi whose <x0> and <x2> meet in <x0>.
X0_IS_X2 = regular_rep(Presentation(3, coxeter_presentation((2, 2)).relators + ((0, 2),)))
# x0 = 1 in [2, 2]: a degenerate generator.
X0_KILLED = regular_rep(Presentation(3, coxeter_presentation((2, 2)).relators + ((0,),)))
LAMBDA1 = regular_rep(lambda_k_presentation(1))  # not orientable
D3 = regular_rep(coxeter_presentation((3,)))  # order 6
BLOCK_BUDGET = 200
MAX_DEGREE = 1500
ORACLE_DEGREE = 300  # `is_regular` closes the group, up to degree + 1 elements


def _reversed(rep: PermRep) -> PermRep:
    """The rep with its columns in reverse order, as the mirror takes it."""
    return PermRep(rep.degree, rep.gens[::-1])


def same_both_ways(rep: PermRep, blocks: list[PermRep]) -> sggi.SggiProfile:
    """The block route equals the whole rep's, for the rep and its mirror;
    returns the rep's profile."""
    prof = sggi.product_profile(rep, [sggi.profile(b) for b in blocks])
    check_both_ways(rep, prof, poset.product_poset([build_poset(b) for b in blocks]))
    return prof


def check_both_ways(rep: PermRep, prof: sggi.SggiProfile, faces: poset.FacePoset) -> None:
    """The forward profile and poset, and the mirror's from them, as
    `verify_gamma_pair` takes them, each equal to the whole rep's."""
    mirror = (sggi.product_profile(_reversed(rep), [prof]), dual_poset(faces))
    for whole, (got_prof, got_faces) in [(rep, (prof, faces)), (_reversed(rep), mirror)]:
        oracle = build_poset(whole)
        assert got_prof == sggi.profile(whole)
        assert got_faces._counts == oracle._counts
        assert got_faces._comp == oracle._comp
        assert got_faces._roots == oracle._roots


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
        _, _, rep, prof, faces = families._gamma_rep(t, None, blocks)
        assert set(blocks_of(t)) <= set(blocks)
        check_both_ways(rep, prof, faces)
        assert prof.is_string_c_group and prof.orientable and prof.intersection_witness is None


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
    # a degenerate generator; an orientable block before one that is not.
    @example([C2, X0_IS_X2])
    @example([X0_KILLED, C2])
    @example([C2, LAMBDA1])
    @example([X0_IS_X2])
    def check(blocks):
        prof = same_both_ways(_product(blocks), blocks)
        seen.update(
            {
                ("c_group", prof.is_string_c_group),
                ("witness", prof.intersection_witness is not None),
                ("degenerate", bool(prof.degenerate)),
                ("orientable", prof.orientable),
                ("blocks", len(blocks)),
            }
        )

    check()
    assert seen == {
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
    prof = same_both_ways(_product([C2, X0_IS_X2]), [C2, X0_IS_X2])
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
