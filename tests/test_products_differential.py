"""A product tuple's profile and poset from its blocks, against the whole rep.

`families._profile_and_poset` reads the profile and face poset of a direct
product of regular reps off its blocks (`sggi.product_profile`,
`poset.product_poset`), and `families.verify_gamma_pair` reads its mirror's
off those: `product_profile` on the reversed rep with the forward profile
as its one block, and `poset.dual_poset` of the forward poset. The oracle
is the whole product rep's own `sggi.profile` and `build_poset`, which stay
the route of nothing else: every test here demands the same `SggiProfile`
and the same face counts, comparability rows and roots, for a tuple and for
its mirror (the rep with its columns reversed), and that the drawn inputs
reach the exhaustive fallback, so equality is not vacuous.
"""

from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from tightpoly import engine, families, poset, sggi
from tightpoly.atlas import admissible_tuples
from tightpoly.engine import PermRep
from tightpoly.errors import BudgetExceeded
from tightpoly.families import (
    _Block,
    _product,
    _profile_and_poset,
    verify_gamma_family,
)
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
BLOCK_BUDGET = 200
MAX_DEGREE = 1500


def _reversed(rep: PermRep) -> PermRep:
    """The rep with its columns in reverse order, as the mirror takes it."""
    return PermRep(rep.degree, rep.gens[::-1])


def same_both_ways(rep: PermRep, blocks: list[PermRep]) -> sggi.SggiProfile:
    """The block route equals the whole rep's, for the rep and its mirror;
    returns the rep's profile."""
    return check_both_ways(rep, [_Block(b, sggi.profile(b), build_poset(b)) for b in blocks])


def check_both_ways(rep: PermRep, parts: list[_Block]) -> sggi.SggiProfile:
    """The forward route from the blocks, and the mirror's from the forward
    route's profile and poset, as `verify_gamma_pair` takes them, each equal
    to the whole rep's; returns the rep's profile."""
    prof, faces = _profile_and_poset(rep, parts)
    mirror = (sggi.product_profile(_reversed(rep), [prof]), dual_poset(faces))
    for whole, (got_prof, got_faces) in [(rep, (prof, faces)), (_reversed(rep), mirror)]:
        oracle = build_poset(whole)
        assert got_prof == sggi.profile(whole)
        assert got_faces._counts == oracle._counts
        assert got_faces._comp == oracle._comp
        assert got_faces._roots == oracle._roots
    return prof


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
        _, _, rep, parts = families._gamma_rep(t, None, blocks)
        assert len(parts) == t.count(2) + 1
        prof = check_both_ways(rep, parts)
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


@pytest.mark.parametrize(
    "tuples, labelled, orbits",
    [
        (admissible_tuples(500, 4)[::8], 48_256, 459),
        ([t for t in admissible_tuples(600, 7) if len(t) == 6][::5], 1_030, 96),
    ],
    ids=["atlas-workload", "highrank-workload"],
)
def test_work_on_the_verdict_path(tuples, labelled, orbits, monkeypatch):
    # The benchmark's atlas and highrank items, through the verdict: points
    # labelled (degree x rank over every `build_poset`) and `point_orbit`
    # calls. Built on the whole rep, they were 121,708 and 901 (atlas) and
    # 97,328 and 837 (highrank); with every block built afresh, 48,314 and
    # 461 and 1,278 and 110.
    work = {"labelled": 0, "orbits": 0}
    real_build, real_orbit = poset.build_poset, engine.point_orbit

    def build(rep):
        work["labelled"] += rep.degree * len(rep.gens)
        return real_build(rep)

    def orbit(*args):
        work["orbits"] += 1
        return real_orbit(*args)

    monkeypatch.setattr(poset, "build_poset", build)
    monkeypatch.setattr(engine, "point_orbit", orbit)
    for t in tuples:
        verify_gamma_family(t)
    assert work == {"labelled": labelled, "orbits": orbits}
