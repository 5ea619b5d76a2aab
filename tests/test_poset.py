import pytest
from hypothesis import example, given, settings, strategies as st

from test_poset_differential import dual, section
from tightpoly import sggi
from tightpoly.classifier import classify_tight
from tightpoly.cli import main
from tightpoly.errors import DiamondViolation
from tightpoly.families import verify_gamma_family
from tightpoly.poset import FacePoset, NotEquivelar, build_poset, poset_checks
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
    return FacePoset(
        3,
        [
            [frozenset(k for k, flag in enumerate(flags) if flag[r] == x) for x in ids[r]]
            for r in range(3)
        ],
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
        report = FacePoset(2, [[], []]).verify_polytope()
        assert not report.chain_lengths
        assert report.first_failure == "maximal chain [] has 2 faces, expected 4"

    def test_failure_names_a_face_by_its_given_position(self):
        # The edge {2} holds no vertex. It is given first, so it is face
        # (1, 0), though sorting the edges by point set would put it second.
        levels = [[frozenset({0}), frozenset({1})], [frozenset({2}), frozenset({0, 1})]]
        poset = FacePoset(2, levels)
        assert poset.levels == tuple(map(tuple, levels))
        report = poset.verify_polytope()
        assert report.first_failure == "maximal chain [(1, 0)] has 3 faces, expected 4"

    def test_degenerate_quotient_fails(self, rep_degenerate_x0x2):
        report = build_poset(rep_degenerate_x0x2).verify_polytope()
        assert not report.passed
        assert report.first_failure is not None


class TestComparability:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.frozensets(st.integers(0, 7), max_size=5), max_size=4),
            min_size=1,
            max_size=4,
        )
    )
    # Hand-built levels need not be partitions: two vertices sharing a point
    # stay incomparable, and each lies below the edge.
    @example([[frozenset({0, 1}), frozenset({1, 2})], [frozenset({0, 1, 2})]])
    def test_matches_pairwise_intersection(self, levels):
        # Oracle: distinct proper faces are comparable when their ranks differ
        # and their point sets meet. The greatest face (id `total`) and the
        # least (the last entry) are comparable with every id.
        poset = FacePoset(len(levels), levels)
        faces = [(i, face) for i, level in enumerate(poset.levels) for face in level]
        total = len(faces)
        for f, (i, face) in enumerate(faces):
            expected = 1 << total
            for g, (j, other) in enumerate(faces):
                if f == g or i != j and face & other:
                    expected |= 1 << g
            assert poset._comp[f] == expected
        assert poset._comp[total:] == [(1 << (total + 1)) - 1] * 2


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
        short = FacePoset(2, [[frozenset({0}), frozenset({1})], [frozenset({0, 1}), frozenset({2})]])
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
    def test_facet_section_type(self, poset_gamma364):
        facet = section(poset_gamma364, (-1, 0), (3, 0))
        assert facet.rank == 3
        assert facet.combinatorial_schlafli() == (3, 6)

    def test_vertex_figure_type(self, poset_gamma364):
        figure = section(poset_gamma364, (0, 0), (4, 0))
        assert figure.rank == 3
        assert figure.combinatorial_schlafli() == (6, 4)

    def test_rank_difference_one_gives_point(self, poset_gamma36):
        system = poset_gamma36.flags_and_adjacency()
        v, e = system.flags[0][0], system.flags[0][1]
        point = section(poset_gamma36, poset_gamma36._ref_of(v), poset_gamma36._ref_of(e))
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
        poset, report, _, symbol, tight = poset_checks(request.getfixturevalue(fixture))
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

    def test_flat_faces_propagate(self, poset_gamma364, poset_cube, poset_gamma36):
        # If every i-face is (k, m)-flat then so is the polytope.
        for poset in (poset_gamma364, poset_cube, poset_gamma36):
            n = poset.rank
            for k in range(n - 1):
                for m in range(k + 1, n):
                    for i in range(m + 1, n):
                        faces_flat = all(
                            section(poset, (-1, 0), (i, a)).is_flat(k, m)
                            for a in range(len(poset.levels[i]))
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

    def test_rank4_recursion(self, poset_gamma364):
        # Tight facets and tight vertex-figures with enough rank spread
        # force tightness.
        n = poset_gamma364.rank
        facets_tight = all(
            section(poset_gamma364, (-1, 0), (n - 1, a)).is_tight()
            for a in range(len(poset_gamma364.levels[n - 1]))
        )
        vertex_figures_tight = all(
            section(poset_gamma364, (0, a), (n, 0)).is_tight()
            for a in range(len(poset_gamma364.levels[0]))
        )
        assert facets_tight and vertex_figures_tight
        assert poset_gamma364.is_tight()


class TestDual:
    def test_type_reverses(self, poset_gamma36):
        assert dual(poset_gamma36).combinatorial_schlafli() == (6, 3)

    def test_involution(self, poset_cube):
        double = dual(dual(poset_cube))
        assert double.face_counts() == poset_cube.face_counts()
        assert double.flag_count() == poset_cube.flag_count()
        assert double.levels == poset_cube.levels

    def test_dual_of_tight_is_tight(self, poset_gamma36, poset_gamma364):
        assert dual(poset_gamma36).is_tight()
        assert dual(poset_gamma364).is_tight()

    def test_dual_polytope_axioms(self, poset_gamma364):
        assert dual(poset_gamma364).verify_polytope().passed

