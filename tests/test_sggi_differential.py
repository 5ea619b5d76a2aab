"""The point-0 element readings against the full-permutation originals.

`reference_sggi` keeps `check_sggi`, `degenerate_generators`,
`element_order`, the pair-product `_rotation_index` and
`check_generator_map` as they were on full permutations; every test here
demands the same answers from `tightpoly.sggi` and `tightpoly.engine` on
the same regular representation, and that the inputs reach each outcome,
so equality is not vacuous.
"""

from itertools import product

from hypothesis import example, given, settings, strategies as st

import reference_sggi as ref
from test_families_differential import family_presentations
from test_poset_differential import BUDGET, rank3_with_extra_relator, rank4_with_extra_relator
from test_toddcox_differential import gamma_tuples
from tightpoly import engine, sggi
from tightpoly.atlas import admissible_tuples
from tightpoly.families import _gamma_rep
from tightpoly.errors import BudgetExceeded
from tightpoly.toddcox import perm_rep, regular_rep
from tightpoly.words import (
    Presentation,
    coxeter_presentation,
    gamma_pq_presentation,
    gamma_tuple_presentation,
    lambda_k_presentation,
)


@st.composite
def rank3_triangle_with_extra_relator(draw):
    # (x0 x2)^r with r drawn, so x0 and x2 need not commute: the quotients
    # that are not sggis, which no string Coxeter quotient reaches.
    p, q, r = (draw(st.integers(2, 5)) for _ in range(3))
    rels = ((0, 0), (1, 1), (2, 2), (0, 1) * p, (1, 2) * q, (0, 2) * r)
    extra = draw(st.lists(st.integers(0, 2), min_size=1, max_size=6))
    return Presentation(3, rels + (tuple(extra),))


def words_up_to(ngens: int, length: int):
    return [w for m in range(1, length + 1) for w in product(range(ngens), repeat=m)]


def test_element_readings_match_permutation_route():
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            rank3_with_extra_relator(),
            rank4_with_extra_relator(),
            gamma_tuples.map(gamma_tuple_presentation),
            rank3_triangle_with_extra_relator(),
        )
    )
    # One draw for each verdict: not an sggi ((x0 x2)^3), a degenerate
    # generator, and both rotation indices.
    @example(Presentation(3, ((0, 0), (1, 1), (2, 2), (0, 1) * 2, (1, 2) * 3, (0, 2) * 3)))
    @example(Presentation(3, coxeter_presentation((2, 2)).relators + ((0,),)))
    @example(coxeter_presentation((3, 3)))
    @example(lambda_k_presentation(1))
    def check(pres):
        try:
            rep = regular_rep(pres, BUDGET)
        except BudgetExceeded:
            return
        is_sggi = sggi.check_sggi(rep)
        degenerate = sggi.degenerate_generators(rep)
        index = sggi._rotation_index(rep)
        assert is_sggi == ref.check_sggi(rep)
        assert degenerate == ref.degenerate_generators(rep)
        assert sggi.schlafli_of_group(rep) == ref.schlafli_of_group(rep)
        assert index == ref._rotation_index(rep)
        for w in words_up_to(len(rep.gens), 3):
            assert engine.element_order(rep, w) == ref.element_order(rep, w)
        seen.update({("sggi", is_sggi), ("degenerate", bool(degenerate)), ("index", index)})

    check()
    assert seen == {
        ("sggi", True),
        ("sggi", False),
        ("degenerate", True),
        ("degenerate", False),
        ("index", 1),
        ("index", 2),
    }


def test_generator_map_matches_on_census_grid(census_grid):
    # The family certificates `classifier` makes on each record: the
    # identity generator map from Γ(p, q) and from Λ(p / 3).
    seen = set()
    for records in census_grid["records"].values():
        for record in records:
            rep = perm_rep(record.table)
            for pres in family_presentations(*record.schlafli):
                if pres is None:
                    continue
                images = [(g,) for g in range(3)]
                got = engine.check_generator_map(pres, rep, images)
                assert got == ref.check_generator_map(pres, rep, images)
                seen.add(got)
    assert seen == {True, False}


def test_generator_map_matches_on_drawn_images():
    # Image words of any length, including the empty word, from three
    # source groups onto every kind of rank-3 quotient.
    seen = set()

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([coxeter_presentation((3, 3)), coxeter_presentation((2, 4)), gamma_pq_presentation(3, 6)]),
        rank3_with_extra_relator(),
        st.lists(st.lists(st.integers(0, 2), max_size=4).map(tuple), min_size=3, max_size=3),
    )
    @example(coxeter_presentation((3, 3)), coxeter_presentation((3, 3)), [(0,), (1,), (2,)])
    @example(coxeter_presentation((2, 4)), coxeter_presentation((3, 3)), [(0,), (1,), (2,)])
    def check(src, pres, images):
        try:
            rep = regular_rep(pres, BUDGET)
        except BudgetExceeded:
            return
        got = engine.check_generator_map(src, rep, images)
        assert got == ref.check_generator_map(src, rep, images)
        seen.add(got)

    check()
    assert seen == {True, False}


def test_rotation_index_on_rank7_reps():
    # Every 5th of the 154 rank-7 tuples with 2 * prod <= 600, as the
    # verdict builds their reps (block products included): the parity check
    # made during the walk against the pair-product closure. Every Γ group
    # is orientable; index 1 is reached by the drawn presentations above.
    for t in [t for t in admissible_tuples(600, 7) if len(t) == 6][::5]:
        rep = _gamma_rep(t, None, {})[2]
        assert sggi._rotation_index(rep) == ref._rotation_index(rep) == 2
