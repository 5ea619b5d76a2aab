import pytest
from hypothesis import given, strategies as st

from paper_checks import kill_generators
from tightpoly.atlas import admissible_tuples
from tightpoly.errors import AdjacentOddPair, InvariantViolation, PresentationParseError
from tightpoly.toddcox import group_order
from tightpoly.words import (
    LAMBDA_LONG_RELATOR,
    Presentation,
    admissibility_message,
    check_mirrored,
    coxeter_presentation,
    gamma_pq_presentation,
    gamma_tuple_presentation,
    involution_letter,
    is_admissible,
    lambda_k_presentation,
    parse_presentation,
    rotations,
    validate_symbol,
    write_presentation,
)


def cycle_key(w):
    """Canonical form of a relator up to rotation and reversal."""
    candidates = []
    for u in (tuple(w), tuple(reversed(w))):
        candidates += [u[t:] + u[:t] for t in range(len(u))]
    return min(candidates)


class TestInvolutionLetter:
    @pytest.mark.parametrize(
        "w, letter",
        [((0, 0), 0), ((2, 2), 2), ((0, 1), None), ((1,), None), ((1, 1, 1, 1), None), ((), None)],
    )
    def test_only_a_squared_letter(self, w, letter):
        assert involution_letter(w) == letter


class TestRotations:
    def shifts(self, w):
        # The t > 0 at which w closes again on its own cycle, as `_hlt` marks.
        return [t for t, r in enumerate(rotations(w)) if t and r in (w, w[::-1])]

    def test_rotation_by_t_comes_t_th(self):
        assert list(rotations((0, 1, 2))) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        assert list(rotations(())) == []

    @pytest.mark.parametrize("i, j, p", [(0, 1, 2), (0, 1, 3), (1, 2, 5), (0, 3, 2)])
    def test_dihedral_relator_closes_at_every_shift(self, i, j, p):
        assert self.shifts((i, j) * p) == list(range(1, 2 * p))

    def test_rotation_onto_the_reversal_only(self):
        assert self.shifts((0, 0, 1, 1)) == [2]

    @pytest.mark.parametrize("w", [(0, 1, 2, 1, 0), (0, 1, 0, 2, 0, 1, 0), (0,)])
    def test_palindrome_that_is_not_a_power_has_none(self, w):
        assert w == w[::-1]
        assert self.shifts(w) == []


class TestCoxeter:
    def test_triangle(self):
        pres = coxeter_presentation((3,))
        assert pres.ngens == 2
        assert pres.relators == ((0, 0), (1, 1), (0, 1, 0, 1, 0, 1))

    def test_three_two_adds_commuting_pair(self):
        pres = coxeter_presentation((3, 2))
        assert (0, 2, 0, 2) in pres.relators
        assert (1, 2) * 2 in pres.relators
        assert group_order(pres) == 12

    def test_cube_group_order(self):
        assert group_order(coxeter_presentation((4, 3))) == 48

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            coxeter_presentation((1,))
        with pytest.raises(ValueError):
            coxeter_presentation(())
        with pytest.raises(ValueError):
            validate_symbol((3, True))


class TestGammaPq:
    def test_extra_relator(self):
        pres = gamma_pq_presentation(3, 6)
        cox = coxeter_presentation((3, 6))
        assert pres.relators == cox.relators + ((0, 1, 2, 1, 2, 0, 1, 2, 1, 2),)

    @pytest.mark.parametrize(
        "p,q,order", [(3, 6, 36), (5, 2, 20), (7, 14, 196)]
    )
    def test_orders(self, p, q, order):
        assert group_order(gamma_pq_presentation(p, q)) == 2 * p * q == order

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            gamma_pq_presentation(1, 6)
        with pytest.raises(ValueError):
            gamma_pq_presentation(3, 1)


class TestGammaTuple:
    @pytest.mark.parametrize("sym", [(3, 6), (5, 10), (9, 2)])
    def test_rank3_odd_even_matches_pq_builder(self, sym):
        assert gamma_tuple_presentation(sym) == gamma_pq_presentation(*sym)

    def test_case_rule_364(self):
        pres = gamma_tuple_presentation((3, 6, 4))
        extra = pres.relators[len(coxeter_presentation((3, 6, 4)).relators) :]
        assert extra == ((0, 1, 2, 1, 2) * 2, (1, 2, 3, 2) * 2)

    def test_case_rule_even_odd(self):
        pres = gamma_tuple_presentation((4, 3))
        assert pres.relators[-1] == (2, 1, 0, 1, 0) * 2

    def test_adjacent_odd_pair(self):
        with pytest.raises(AdjacentOddPair):
            gamma_tuple_presentation((3, 3))
        with pytest.raises(AdjacentOddPair):
            gamma_tuple_presentation((4, 5, 3))

    def test_coxeter_relators_shared_exactly(self):
        for sym in [(3, 6), (4, 4, 4), (3, 6, 3, 6)]:
            cox = coxeter_presentation(sym)
            pres = gamma_tuple_presentation(sym)
            assert pres.relators[: len(cox.relators)] == cox.relators

    def test_duality_relator_multisets(self):
        # Reversing the generators maps relators onto the reversed tuple's,
        # up to rotation and inversion.
        for sym in [(3, 6, 4), (4, 4, 6), (3, 6, 3, 6)]:
            fwd = gamma_tuple_presentation(sym)
            n = fwd.ngens
            rev = gamma_tuple_presentation(tuple(reversed(sym)))
            mapped = sorted(
                cycle_key(tuple(n - 1 - x for x in w)) for w in fwd.relators
            )
            assert mapped == sorted(cycle_key(w) for w in rev.relators)


class TestCheckMirrored:
    def test_every_reversed_tuple_of_atlas_100_4(self):
        # The check agrees with the independent cycle keys on every tuple.
        for sym in admissible_tuples(100, 4):
            fwd = gamma_tuple_presentation(sym)
            rev = gamma_tuple_presentation(sym[::-1])
            n = fwd.ngens
            mapped = {cycle_key(tuple(n - 1 - x for x in w)) for w in fwd.relators}
            assert mapped == {cycle_key(w) for w in rev.relators}
            check_mirrored(fwd, rev)

    def test_rotated_inverted_and_reordered_relators(self):
        rev = gamma_tuple_presentation((4, 6, 3))
        moved = tuple(w[::-1] if i % 2 else w[1:] + w[:1] for i, w in enumerate(rev.relators))
        check_mirrored(gamma_tuple_presentation((3, 6, 4)), Presentation(rev.ngens, moved[::-1]))

    @pytest.mark.parametrize(
        "sym, tamper",
        [
            ((3, 6, 4), lambda rels: rels[:-1]),
            ((3, 6, 4), lambda rels: rels + ((0, 1) * 3,)),
            ((3, 6, 4), lambda rels: rels[:-1] + ((rels[-1] + rels[-1][:2]),)),
            ((3, 6, 4), lambda rels: gamma_tuple_presentation((3, 6, 4)).relators),
            ((4, 6), lambda rels: rels[:-1] + ((0, 1, 2, 1, 2) * 2,)),
        ],
        ids=["dropped", "added", "longer", "unreversed", "other-case-rule"],
    )
    def test_rejects_a_tampered_reverse(self, sym, tamper):
        rev = gamma_tuple_presentation(sym[::-1])
        with pytest.raises(InvariantViolation):
            check_mirrored(gamma_tuple_presentation(sym), Presentation(rev.ngens, tamper(rev.relators)))

    def test_rejects_another_generator_count(self):
        with pytest.raises(InvariantViolation):
            check_mirrored(coxeter_presentation((2, 2)), coxeter_presentation((2,)))


class TestLambda:
    def test_relators(self):
        pres = lambda_k_presentation(1)
        cox = coxeter_presentation((3, 4))
        assert pres.relators == cox.relators + (LAMBDA_LONG_RELATOR,)

    @pytest.mark.parametrize("k,order", [(1, 24), (3, 72), (5, 120)])
    def test_orders(self, k, order):
        assert group_order(lambda_k_presentation(k)) == 24 * k == order

    @pytest.mark.parametrize("k", [0, -1, 2, 6])
    def test_rejects_even_or_nonpositive(self, k):
        with pytest.raises(ValueError):
            lambda_k_presentation(k)


class TestRelatorParity:
    def test_every_builder_relator_even_except_lambda_tail(self):
        presentations = [
            coxeter_presentation((3, 2)),
            coxeter_presentation((4, 3, 5)),
            gamma_pq_presentation(3, 6),
            gamma_tuple_presentation((4, 4, 4, 4)),
            gamma_tuple_presentation((3, 6, 3)),
        ]
        for pres in presentations:
            assert all(len(w) % 2 == 0 for w in pres.relators)
        lam = lambda_k_presentation(3)
        odd = [w for w in lam.relators if len(w) % 2 == 1]
        assert odd == [LAMBDA_LONG_RELATOR]
        assert len(LAMBDA_LONG_RELATOR) == 9


class TestAdmissibility:
    def test_all_even_is_admissible(self):
        assert is_admissible((4, 4, 4))

    def test_violation_at_neighbor(self):
        adm = is_admissible((3, 4))
        assert not adm
        assert adm.odd_index == 0
        assert adm.violating_index == 1
        assert admissibility_message((3, 4), adm) == (
            "p2=4 is not an even divisor of 2p1=6"
        )

    def test_message_needs_a_violation(self):
        # A raised check, not an assert, so `python -O` keeps it too.
        with pytest.raises(ValueError, match="no violation to describe"):
            admissibility_message((3, 6), is_admissible((3, 6)))

    def test_last_odd_entry_violation(self):
        adm = is_admissible((3, 6, 3, 6, 3, 4))
        assert not adm
        assert adm.odd_index == 4
        assert adm.violating_index == 5

    def test_odd_neighbor_rejected(self):
        assert not is_admissible((3, 3))

    @pytest.mark.parametrize("sym", [(3, 6), (5, 10, 5), (2, 3), (6, 3, 6)])
    def test_admissible_examples(self, sym):
        assert is_admissible(sym)


class TestKillGenerators:
    def test_keep_all_is_identity(self):
        pres = gamma_tuple_presentation((3, 6, 4))
        assert kill_generators(pres, range(4)) == pres

    def test_polygon_quotient_of_3_2(self):
        # Independent oracle: enumerate both groups.
        killed = kill_generators(coxeter_presentation((3, 2)), (0, 1))
        assert killed.ngens == 2
        assert group_order(killed) == group_order(coxeter_presentation((3,))) == 6

    def test_two_face_quotient_has_dihedral_order(self):
        for sym in [(3, 6, 4), (5, 10, 4, 4)]:
            killed = kill_generators(gamma_tuple_presentation(sym), (0, 1))
            assert group_order(killed) == 2 * sym[0]

    def test_suffix_renumbers(self):
        pres = coxeter_presentation((3, 4))
        killed = kill_generators(pres, (1, 2))
        assert killed.ngens == 2
        assert max(x for w in killed.relators for x in w) == 1
        # The braid relator of slot 1 collapses to x1^3, killing x1 as well;
        # only x2 survives. Oracle: enumeration.
        assert group_order(killed) == 2

    def test_rejects_non_contiguous(self):
        pres = coxeter_presentation((3, 4, 5))
        with pytest.raises(ValueError):
            kill_generators(pres, (0, 2))
        with pytest.raises(ValueError):
            kill_generators(pres, (1, 2))
        with pytest.raises(ValueError):
            kill_generators(pres, ())


words = st.lists(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8).map(tuple),
    min_size=0,
    max_size=8,
).map(tuple)


# Numerals as write_presentation writes them, three times in four, and the
# near misses int() takes.
numerals = st.sampled_from(
    ["0", "1", "2", "3"] * 6 + ["00", "01", "+1", "-0", "1_0", "\u0661", "\u00b9", " 1"]
)
near_presentations = st.builds(
    lambda head, rels: f"gens {head}\n" + "".join(f"rel {' '.join(w)}\n" for w in rels),
    numerals,
    st.lists(st.lists(numerals, min_size=1, max_size=4), max_size=4),
) | st.text(alphabet="gensrl 0123+-_\u0660\n", max_size=24)


class TestTextFormat:
    @given(words)
    def test_round_trip(self, relators):
        pres = Presentation(4, relators)
        text = write_presentation(pres)
        assert parse_presentation(text) == pres
        assert write_presentation(parse_presentation(text)) == text

    def test_golden_format(self):
        pres = coxeter_presentation((3,))
        assert write_presentation(pres) == "gens 2\nrel 0 0\nrel 1 1\nrel 0 1 0 1 0 1\n"

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", 1),
            ("gens\n", 1),
            ("gens 2\nrel\n", 2),
            ("gens 2\nrel 0 2\n", 2),
            ("gens 2\nrel 0  1\n", 2),
            ("gens 2\nrelate 0\n", 2),
            ("gens 2\nrel 0 1", 2),
            # Numerals that int() takes but write_presentation never writes.
            ("gens +3\n", 1),
            ("gens 03\n", 1),
            ("gens \u00b2\n", 1),
            ("gens 2\nrel 0_0 1\n", 2),
            ("gens 2\nrel \u0660 \u0660\n", 2),
            ("gens 2\nrel 00 1\n", 2),
            ("gens 2\nrel -0 1\n", 2),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(PresentationParseError) as err:
            parse_presentation(text)
        assert err.value.line_no == line

    @given(near_presentations)
    def test_accepted_text_writes_back_byte_equal(self, text):
        try:
            pres = parse_presentation(text)
        except PresentationParseError:
            return
        assert write_presentation(pres) == text
