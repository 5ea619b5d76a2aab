import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings

from reference_poset import dual_poset, meet_poset, orbit_levels, partition_poset
from test_poset_differential import (
    EMPTY_INTERVAL_LEVELS,
    INTRANSITIVE_LEVELS,
    dual,
    partition_posets,
    section,
)
from tightpoly import poset as poset_module, sggi
from tightpoly.atlas import admissible_tuples
from tightpoly.classifier import classify_tight
from tightpoly.cli import main
from tightpoly.engine import PermRep
from tightpoly.errors import DiamondViolation, InvariantViolation
from tightpoly.families import verify_gamma_family
from tightpoly.poset import FacePoset, NotEquivelar, build_poset, label_rows, poset_checks
from tightpoly.toddcox import regular_rep
from tightpoly.words import coxeter_presentation, gamma_pq_presentation, write_presentation


@pytest.fixture(scope="module")
def poset_gamma36(rep_gamma36):
    return build_poset(rep_gamma36)


@pytest.fixture(scope="module")
def poset_cube(rep_cube):
    return build_poset(rep_cube)


@pytest.fixture(scope="module")
def poset_simplex(rep_simplex):
    return build_poset(rep_simplex)


@pytest.fixture(scope="module")
def poset_digon():
    return build_poset(regular_rep(coxeter_presentation((2,))))


@pytest.fixture(scope="module")
def poset_gamma364(rep_gamma364):
    return build_poset(rep_gamma364)


def levels_of(rep):
    """The faces of `build_poset(rep)` as point sets, in its numbering, which
    `TestLabelBuild` pins."""
    return orbit_levels(rep.degree, rep.gens)


def no_sections(self, lo, hi):
    raise AssertionError("section read")


def triangular_prism() -> FacePoset:
    """A polyhedron with triangles and squares for faces, so not equivelar.
    A face's points are the flags through it, so faces meet exactly when
    they are incident."""
    verts = [(i, s) for s in range(2) for i in range(3)]
    edges = [{(i, s), ((i + 1) % 3, s)} for s in range(2) for i in range(3)]
    edges += [{(i, 0), (i, 1)} for i in range(3)]
    faces = [{(i, s) for i in range(3)} for s in range(2)]
    faces += [{(i, 0), ((i + 1) % 3, 0), (i, 1), ((i + 1) % 3, 1)} for i in range(3)]
    flags = [
        (v, e, f)
        for v in verts
        for e in range(len(edges))
        for f in range(len(faces))
        if v in edges[e] and edges[e] <= faces[f]
    ]
    ids = [verts, range(len(edges)), range(len(faces))]
    return partition_poset(
        [
            [frozenset(k for k, flag in enumerate(flags) if flag[r] == x) for x in ids[r]]
            for r in range(3)
        ]
    )


class TestBuild:
    def test_gamma36_counts(self, poset_gamma36, rep_gamma36):
        assert poset_gamma36.face_counts() == (3, 9, 6)
        # |faces of rank i| * |Gamma_i| = |Gamma| is asserted inside the
        # build; spot-check one value independently.
        from reference_elements import closure

        assert len(closure(rep_gamma36, (1, 2))) * 3 == 36

    def test_simplex_lattice(self, poset_simplex):
        assert poset_simplex.face_counts() == (4, 6, 4)
        assert poset_simplex.flag_count() == 24

    def test_digon(self, poset_digon):
        assert poset_digon.face_counts() == (2, 2)
        # Ids 0 and 1 are the vertices, 2 and 3 the edges.
        for v in range(2):
            for e in range(2, 4):
                assert poset_digon._comp[v] >> e & 1

    def test_orbits_of_two_sizes_raise(self):
        # x0 swaps points 1 and 2 and x1 fixes all three, so the rank-1
        # faces, the orbits under x0, are {0} and {1, 2}. The check is a
        # raise, so it holds under python -O too.
        with pytest.raises(InvariantViolation, match="^coset partition size mismatch at rank 1$"):
            build_poset(PermRep(3, ((0, 2, 1), (0, 1, 2))))
        script = (
            "from tightpoly.engine import PermRep\n"
            "from tightpoly.errors import InvariantViolation\n"
            "from tightpoly.poset import build_poset\n"
            "print(__debug__)\n"
            "try:\n"
            "    build_poset(PermRep(3, ((0, 2, 1), (0, 1, 2))))\n"
            "except InvariantViolation as exc:\n"
            "    print(exc)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "False\ncoset partition size mismatch at rank 1\n"

    def test_no_point_sets_on_the_verdict_path(self, monkeypatch):
        # build_poset writes labels and builds no point set: the claims hold
        # with frozenset patched to raise.
        def broken(*args):
            raise AssertionError("point set built")

        monkeypatch.setattr(poset_module, "frozenset", broken, raising=False)
        for t in admissible_tuples(100, 4) + [(2, 2, 4, 2, 3), (3, 2, 2, 2, 2, 2)]:
            verdict = verify_gamma_family(t)
            assert verdict.passed and verdict.tight and verdict.flag_count == 2 * prod(t), t
        report, count, _, tight = poset_checks(build_poset(regular_rep(coxeter_presentation((3, 4, 3)))))
        assert report.passed and count == 1152 and not tight


class TestAxioms:
    @pytest.mark.parametrize(
        "fixture",
        ["poset_gamma36", "poset_cube", "poset_simplex", "poset_digon"],
    )
    def test_polytopes_pass(self, fixture, request):
        report = request.getfixturevalue(fixture).verify_polytope()
        assert report.passed, report.first_failure

    def test_pentagon_passes(self):
        poset = build_poset(regular_rep(coxeter_presentation((5,))))
        assert poset.verify_polytope().passed
        assert poset.flag_count() == 10

    def test_no_proper_faces_fails(self):
        # The chain F_-1 < F_2 is maximal and has 2 faces, not 4.
        report = meet_poset(2, [[], []]).verify_polytope()
        assert not report.chain_lengths
        assert report.first_failure == "maximal chain [] has 2 faces, expected 4"

    def test_failure_names_a_face_by_its_given_position(self):
        # The edge {2} holds no vertex. It is given first, so it is face
        # (1, 0), though sorting the edges by point set would put it second.
        levels = [[frozenset({0}), frozenset({1})], [frozenset({2}), frozenset({0, 1})]]
        report = meet_poset(2, levels).verify_polytope()
        assert report.first_failure == "maximal chain [(1, 0)] has 3 faces, expected 4"

    @pytest.mark.parametrize(
        "levels, failure",
        [
            (
                INTRANSITIVE_LEVELS[0],
                "incidence is not transitive: (0, 0) < (1, 0) < (2, 1), but (0, 0) is not below (2, 1)",
            ),
            (
                INTRANSITIVE_LEVELS[1],
                "incidence is not transitive: (0, 1) < (1, 0) < (2, 1), but (0, 1) is not below (2, 1)",
            ),
        ],
        ids=["4 points", "9 points"],
    )
    def test_intransitive_incidence_fails(self, levels, failure):
        # Every other axiom holds, and the flag system does not build: the
        # vertex swapped at rank 0 is not below the chain's 2-face.
        poset = partition_poset(levels)
        report = poset.verify_polytope()
        assert report.chain_lengths and report.connected and report.diamond
        assert not report.transitive_incidence and not report.passed
        assert report.first_failure == failure
        with pytest.raises(DiamondViolation):
            poset.flags_and_adjacency()

    def test_empty_interval_walks_the_chains(self, monkeypatch):
        # Incidence is transitive, but no face lies between vertex (0, 0) and
        # the 2-face, so the section pass finds an empty interval and the
        # chains are walked to name the short one.
        walks = []
        chains_from = FacePoset._chains_from

        def walk(self, starts):
            walks.append(starts)
            return chains_from(self, starts)

        monkeypatch.setattr(FacePoset, "_chains_from", walk)
        poset = meet_poset(3, EMPTY_INTERVAL_LEVELS)
        report = poset.verify_polytope()
        assert walks
        assert report.transitive_incidence and not report.chain_lengths
        assert report.first_failure == "maximal chain [(0, 0), (2, 0)] has 4 faces, expected 5"
        assert poset.flag_count() == 1

    def test_degenerate_quotient_fails(self, rep_degenerate_x0x2):
        report = build_poset(rep_degenerate_x0x2).verify_polytope()
        assert not report.passed
        assert report.first_failure is not None


class TestComparability:
    @settings(max_examples=100, deadline=None)
    @given(partition_posets())
    def test_matches_pairwise_intersection(self, levels):
        # build_poset's rows from labels, over random partitions of the points
        # 0 .. npoints - 1, one per rank. Oracle: distinct proper faces are
        # comparable when their ranks differ and their point sets meet. The
        # greatest face (id `total`) and the least (the last entry) are
        # comparable with every id.
        faces = [(i, face) for i, level in enumerate(levels) for face in level]
        total = len(faces)
        labels = [[-1] * len(set().union(*levels[0])) for _ in levels]
        for f, (i, face) in enumerate(faces):
            for x in face:
                labels[i][x] = f
        poset = FacePoset(list(map(len, levels)), label_rows(labels, total))
        for f, (i, face) in enumerate(faces):
            expected = 1 << total
            for g, (j, other) in enumerate(faces):
                if f == g or i != j and face & other:
                    expected |= 1 << g
            assert poset._comp[f] == expected
        assert poset._comp[total:] == [(1 << (total + 1)) - 1] * 2

    def test_overlapping_faces(self):
        # Faces made by hand need not be partitions: two vertices sharing a
        # point stay incomparable, and each lies below the edge (id 2) and
        # the greatest face (id 3).
        poset = meet_poset(2, [[frozenset({0, 1}), frozenset({1, 2})], [frozenset({0, 1, 2})]])
        assert poset._comp[:3] == [0b1101, 0b1110, 0b1111]


class TestFlags:
    def test_flag_counts(self, poset_gamma36, poset_cube):
        assert poset_gamma36.flag_count() == 36
        assert poset_cube.flag_count() == 48

    def test_flag_count_of_a_non_polytope(self, rep_degenerate_x0x2):
        # [2,2] with x0 = x2 fails the diamond condition. flag_count counts
        # its two chains with one face per rank and raises nothing; the
        # flag-level diamond check in flags_and_adjacency still raises.
        poset = build_poset(rep_degenerate_x0x2)
        assert not poset.verify_polytope().passed
        assert poset.flag_count() == 2
        with pytest.raises(DiamondViolation):
            poset.flags_and_adjacency()
        # A maximal chain that misses a rank is not counted: the edge {2}
        # holds no vertex.
        short = meet_poset(2, [[frozenset({0}), frozenset({1})], [frozenset({0, 1}), frozenset({2})]])
        assert not short.verify_polytope().chain_lengths
        assert short.flag_count() == 2

    def test_no_flag_system_on_the_verdict_path(self, monkeypatch, tmp_path, capsys):
        # The family claims, a census and `check` all reach a tightness verdict
        # with flags_and_adjacency patched to raise.
        class FlagSystemBuilt(Exception):
            pass

        def broken(self):
            raise FlagSystemBuilt

        monkeypatch.setattr(FacePoset, "flags_and_adjacency", broken)
        verdict = verify_gamma_family((3, 6))
        assert verdict.passed and verdict.flag_count == 36
        records = classify_tight(4, 8, require_orientable=True)
        assert len(records) == 2
        assert sum(r.isomorphic_to_gamma for r in records) == 1
        path = tmp_path / "gamma36.pres"
        path.write_text(write_presentation(gamma_pq_presentation(3, 6)))
        assert main(["check", "--presentation", str(path)]) == 0
        assert capsys.readouterr().out.endswith("polytope axioms pass\ntight (36 flags)\n")

    def test_no_chain_walk_on_the_verdict_path(self, monkeypatch):
        # A coset poset has no empty interval, so under transitive incidence
        # axiom (b) comes from the section pass and the flags are counted
        # rank by rank: the verdicts hold with the chain walk patched to raise.
        def broken(self, starts):
            raise AssertionError("maximal chains walked")

        monkeypatch.setattr(FacePoset, "_chains_from", broken)
        tuples = [t for t in admissible_tuples(600, 7) if len(t) == 6][::5]
        for t in tuples + admissible_tuples(500, 4)[::8]:
            verdict = verify_gamma_family(t)
            assert verdict.passed and verdict.tight and verdict.flag_count == 2 * prod(t), t
        for sym, flags in [((4, 3), 48), ((3, 3, 3, 3), 720), ((3, 4, 3), 1152)]:
            report, count, combinatorial, tight = poset_checks(
                build_poset(regular_rep(coxeter_presentation(sym)))
            )
            assert report.passed and count == flags and combinatorial == sym and not tight

    def test_adjacency_is_involutive_and_distinct(self, poset_gamma36):
        system = poset_gamma36.flags_and_adjacency()
        for f, row in enumerate(system.adjacency):
            for j, g in enumerate(row):
                assert g != f
                assert system.adjacency[g][j] == f
                # flags differ exactly at rank j
                diff = [
                    r
                    for r, (a, b) in enumerate(zip(system.flags[f], system.flags[g]))
                    if a != b
                ]
                assert diff == [j]


class TestSections:
    def test_facet_section_type(self, rep_gamma364):
        facet = section(levels_of(rep_gamma364), (-1, 0), (3, 0))
        assert facet.rank == 3
        assert facet.combinatorial_schlafli() == (3, 6)

    def test_vertex_figure_type(self, rep_gamma364):
        figure = section(levels_of(rep_gamma364), (0, 0), (4, 0))
        assert figure.rank == 3
        assert figure.combinatorial_schlafli() == (6, 4)

    def test_rank_difference_one_gives_point(self, poset_gamma36, rep_gamma36):
        system = poset_gamma36.flags_and_adjacency()
        v, e = system.flags[0][0], system.flags[0][1]
        lo, hi = poset_gamma36._ref_of(v), poset_gamma36._ref_of(e)
        point = section(levels_of(rep_gamma36), lo, hi)
        assert point.rank == 0
        assert point.face_counts() == ()


class TestSchlafli:
    def test_matches_group_symbol(self, poset_gamma36, rep_gamma36):
        assert poset_gamma36.combinatorial_schlafli() == sggi.schlafli_of_group(
            rep_gamma36
        )

    def test_simplex(self, poset_simplex):
        assert poset_simplex.combinatorial_schlafli() == (3, 3)

    def test_lambda3(self, rep_lambda3):
        assert build_poset(rep_lambda3).combinatorial_schlafli() == (9, 4)

    @pytest.mark.parametrize(
        "fixture,sym", [("rep_gamma36", (3, 6)), ("rep_cube", (4, 3)), ("rep_gamma364", (3, 6, 4))]
    )
    def test_computed_once_per_poset(self, fixture, sym, request, monkeypatch):
        # poset_checks computes the symbol; is_tight and a second call read
        # the cached answer and look at no section again.
        poset = build_poset(request.getfixturevalue(fixture))
        report, _, symbol, tight = poset_checks(poset)
        assert report.passed and symbol == sym
        monkeypatch.setattr(FacePoset, "_between_mask", no_sections)
        assert poset.combinatorial_schlafli() == symbol
        assert poset.is_tight() == tight

    def test_witness_cached_and_exceptions_not(self, monkeypatch):
        prism = triangular_prism()
        assert prism.verify_polytope().passed
        with monkeypatch.context() as patch:
            patch.setattr(FacePoset, "_between_mask", no_sections)
            with pytest.raises(AssertionError):
                prism.combinatorial_schlafli()
        witness = prism.combinatorial_schlafli()
        assert witness == NotEquivelar(position=1, sizes=(3, 4))
        monkeypatch.setattr(FacePoset, "_between_mask", no_sections)
        assert prism.combinatorial_schlafli() == witness


class TestFlatness:
    def test_tight_polyhedron_is_02_flat(self, poset_gamma36):
        assert poset_gamma36.is_flat(0, 2)

    def test_cube_is_not(self, poset_cube):
        assert not poset_cube.is_flat(0, 2)

    def test_digon_is_01_flat(self, poset_digon):
        assert poset_digon.is_flat(0, 1)

    def test_bad_ranks_rejected(self, poset_cube):
        with pytest.raises(ValueError):
            poset_cube.is_flat(2, 1)

    def test_flat_faces_propagate(self, rep_gamma364, rep_cube, rep_gamma36):
        # If every i-face is (k, m)-flat then so is the polytope.
        for rep in (rep_gamma364, rep_cube, rep_gamma36):
            poset, levels = build_poset(rep), levels_of(rep)
            n = poset.rank
            for k in range(n - 1):
                for m in range(k + 1, n):
                    for i in range(m + 1, n):
                        faces_flat = all(
                            section(levels, (-1, 0), (i, a)).is_flat(k, m)
                            for a in range(poset.face_counts()[i])
                        )
                        if faces_flat:
                            assert poset.is_flat(k, m)


class TestTightness:
    def test_polygon_always_tight(self):
        poset = build_poset(regular_rep(coxeter_presentation((7,))))
        assert poset.is_tight()

    def test_gamma36_tight(self, poset_gamma36):
        assert poset_gamma36.is_tight()

    def test_cube_and_simplex_are_not(self, poset_cube, poset_simplex):
        assert not poset_cube.is_tight()
        assert poset_cube.flag_count() == 48
        assert not poset_simplex.is_tight()
        assert poset_simplex.flag_count() == 24

    def test_rank4_recursion(self, poset_gamma364, rep_gamma364):
        # Tight facets and tight vertex-figures with enough rank spread
        # force tightness.
        n = poset_gamma364.rank
        levels = levels_of(rep_gamma364)
        facets_tight = all(
            section(levels, (-1, 0), (n - 1, a)).is_tight()
            for a in range(poset_gamma364.face_counts()[n - 1])
        )
        vertex_figures_tight = all(
            section(levels, (0, a), (n, 0)).is_tight()
            for a in range(poset_gamma364.face_counts()[0])
        )
        assert facets_tight and vertex_figures_tight
        assert poset_gamma364.is_tight()


class TestDual:
    def test_type_reverses(self, poset_gamma36, rep_gamma36):
        assert dual_poset(poset_gamma36).combinatorial_schlafli() == (6, 3)
        assert dual(levels_of(rep_gamma36)).combinatorial_schlafli() == (6, 3)

    def test_involution(self, poset_cube, rep_cube):
        # The dual of the dual is the built poset again, rows and roots
        # included, by relabelling and from the dual levels.
        for double in (dual_poset(dual_poset(poset_cube)), dual(levels_of(rep_cube)[::-1])):
            assert double.face_counts() == poset_cube.face_counts()
            assert double.flag_count() == poset_cube.flag_count()
            assert double._comp == poset_cube._comp
        assert dual_poset(dual_poset(poset_cube))._roots == poset_cube._roots

    def test_dual_of_tight_is_tight(self, poset_gamma36, poset_gamma364, rep_gamma36, rep_gamma364):
        assert dual_poset(poset_gamma36).is_tight()
        assert dual_poset(poset_gamma364).is_tight()
        assert dual(levels_of(rep_gamma36)).is_tight()
        assert dual(levels_of(rep_gamma364)).is_tight()

    def test_dual_polytope_axioms(self, poset_gamma364, rep_gamma364):
        assert dual_poset(poset_gamma364).verify_polytope().passed
        assert dual(levels_of(rep_gamma364)).verify_polytope().passed

