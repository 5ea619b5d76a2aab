"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated runtime bound."""

import hashlib
import time
from math import prod

import pytest

from paper_checks import check_fap, oeo_permutation_rep, verify_lambda_family
from reference_elements import Conjugation, conjugation_class, is_central_in, rotation_subgroup
from tightpoly import sggi
from tightpoly.classifier import classify_tight
from tightpoly.cli import main
from tightpoly.families import verify_gamma_family
from tightpoly.poset import build_poset
from tightpoly.toddcox import group_order, perm_rep, regular_rep
from tightpoly.words import (
    coxeter_presentation,
    gamma_pq_presentation,
    gamma_tuple_presentation,
    is_admissible,
    lambda_k_presentation,
)

ORDER_GRID = [
    (p, q)
    for p in (3, 5, 7, 9)
    for q in range(2, 2 * p + 1, 2)
    if (2 * p) % q == 0
]

RANK_GRID = [
    (3, 6, 4),
    (6, 3, 6),
    (3, 6, 3),
    (5, 10, 5),
    (3, 6, 6, 3),
    (3, 6, 3, 6),
    (4, 4, 4, 4),
]

LAMBDA_KS = (1, 3, 5, 7)

# The 23 rank-4 types with entries >= 3 whose index 2pqr fits under the
# default index cap of 128.
RANK4_CENSUS_TYPES = [
    (p, q, r)
    for p in range(3, 15)
    for q in range(3, 15)
    for r in range(3, 15)
    if 2 * p * q * r <= 128
]

def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def tight_type_trichotomy(p: int, q: int) -> bool:
    if p % 2 == 0 and q % 2 == 0:
        return True
    if p % 2 == 1 and q % 2 == 0:
        return (2 * p) % q == 0
    if q % 2 == 1 and p % 2 == 0:
        return (2 * q) % p == 0
    return False


@pytest.fixture(scope="module")
def order_grid_runs():
    runs = {}
    for p, q in ORDER_GRID:
        start = time.monotonic()
        order = group_order(gamma_pq_presentation(p, q))
        runs[(p, q)] = (order, time.monotonic() - start)
    return runs


@pytest.fixture(scope="module")
def lambda_runs():
    runs = {}
    for k in LAMBDA_KS:
        start = time.monotonic()
        runs[k] = (verify_lambda_family(k), time.monotonic() - start)
    return runs


@pytest.fixture(scope="module")
def rank_grid_runs():
    runs = {}
    for sym in RANK_GRID:
        start = time.monotonic()
        runs[sym] = (verify_gamma_family(sym), time.monotonic() - start)
    return runs


@pytest.fixture(scope="module")
def instance_posets(order_grid_runs, lambda_runs, rank_grid_runs, census_grid):
    """Every polytope instance the suite builds, with its expected tightness."""
    instances = []
    for p, q in ORDER_GRID:
        rep = regular_rep(gamma_pq_presentation(p, q))
        instances.append((f"gamma({p},{q})", rep, build_poset(rep), True))
    for k in LAMBDA_KS:
        rep = regular_rep(lambda_k_presentation(k))
        instances.append((f"lambda({k})", rep, build_poset(rep), True))
    for sym in RANK_GRID:
        rep = regular_rep(gamma_tuple_presentation(sym))
        instances.append((f"gamma{sym}", rep, build_poset(rep), True))
    for (p, q), records in census_grid["records"].items():
        for i, record in enumerate(records):
            rep = perm_rep(record.table)
            instances.append((f"census({p},{q})#{i}", rep, build_poset(rep), True))
    for name, sym in (("cube", (4, 3)), ("simplex", (3, 3))):
        rep = regular_rep(coxeter_presentation(sym))
        instances.append((name, rep, build_poset(rep), False))
    return instances


def test_criterion_01_order_grid(order_grid_runs):
    bad = []
    worst = 0.0
    for (p, q), (order, elapsed) in order_grid_runs.items():
        worst = max(worst, elapsed)
        if order != 2 * p * q or elapsed >= 1.0:
            bad.append((p, q, order, elapsed))
    report(
        1,
        not bad,
        f"|Gamma(p,q)| = 2pq on {len(order_grid_runs)} pairs, slowest {worst:.2f}s"
        + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_02_classification_grid(census_grid):
    bad = []
    for (p, q), records in census_grid["records"].items():
        expected = tight_type_trichotomy(p, q)
        if bool(records) != expected:
            bad.append((p, q, "existence", len(records), expected))
        if expected and p % 2 == 1:
            if len(records) != 1 or records[0].isomorphic_to_gamma is not True:
                bad.append((p, q, "uniqueness"))
    elapsed = census_grid["elapsed"]
    report(
        2,
        not bad and elapsed < 600.0,
        f"trichotomy exact on {len(census_grid['records'])} types in {elapsed:.1f}s"
        + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_03_type_48_non_uniqueness():
    start = time.monotonic()
    records = classify_tight(4, 8, require_orientable=True)
    elapsed = time.monotonic() - start
    tables = {r.table.columns for r in records}
    ok = len(records) >= 2 and len(tables) == len(records) and elapsed < 300.0
    report(
        3,
        ok,
        f"type {{4,8}} has {len(records)} pairwise distinct tight "
        f"orientably-regular records in {elapsed:.1f}s",
    )


def test_criterion_04_lambda_family(lambda_runs):
    bad = []
    worst = 0.0
    for k, (verdict, elapsed) in lambda_runs.items():
        worst = max(worst, elapsed)
        wanted = {
            "order": verdict.group_order == 24 * k,
            "type": verdict.profile.schlafli == (3 * k, 4),
            "passed": verdict.passed,
            "time": elapsed < 2.0,
        }
        if not all(wanted.values()):
            bad.append((k, wanted, verdict.claims))
    report(
        4,
        not bad,
        f"lambda(k) verified for k in {LAMBDA_KS}, slowest {worst:.2f}s"
        + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_05_higher_ranks(rank_grid_runs):
    bad = []
    worst = 0.0
    for sym, (verdict, elapsed) in rank_grid_runs.items():
        worst = max(worst, elapsed)
        if not verdict.passed or verdict.group_order != 2 * prod(sym) or elapsed >= 30.0:
            bad.append((sym, verdict.claims, elapsed))
    report(
        5,
        not bad,
        f"{len(rank_grid_runs)} higher-rank tuples verified, slowest {worst:.1f}s"
        + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_06_tight_iff_flat(instance_posets):
    # is_tight computes both routes and raises RouteDisagreement if they
    # ever differ; the negative controls pin the expected flag counts.
    bad = []
    for name, rep, poset, expect_tight in instance_posets:
        if poset.is_tight() != expect_tight:
            bad.append(name)
    cube = next(p for name, _, p, _ in instance_posets if name == "cube")
    simplex = next(p for name, _, p, _ in instance_posets if name == "simplex")
    ok = (
        not bad
        and cube.flag_count() == 48
        and 2 * prod(cube.combinatorial_schlafli()) == 24
        and simplex.flag_count() == 24
        and 2 * prod(simplex.combinatorial_schlafli()) == 18
    )
    report(
        6,
        ok,
        f"tightness routes agree on {len(instance_posets)} instances "
        "(cube 48 flags vs bound 24, simplex 24 vs 18)"
        + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_07_conjugation_never_neither():
    violations = []
    for sym in [(3, 6, 4), (4, 4, 4)]:
        rep = regular_rep(gamma_tuple_presentation(sym))
        for slot, p in enumerate(sym, start=1):
            if p % 2 != 0:
                continue
            omega = (slot - 1, slot, slot - 1, slot)
            for g in range(len(sym) + 1):
                outcome = conjugation_class(rep, (g,), omega)
                if outcome is Conjugation.NEITHER:
                    violations.append((sym, slot, g))
    report(
        7,
        not violations,
        "conjugation of (x_{i-1} x_i)^2 is fixes-or-inverts on "
        f"Gamma(3,6,4) and Gamma(4,4,4): {len(violations)} violations",
    )


def test_criterion_08_fap():
    two = check_fap((3, 6, 4), "two_faces")
    co = check_fap((4, 6, 3), "co_faces")
    report(8, two and co, f"FAP holds: (3,6,4) two_faces={two}, (4,6,3) co_faces={co}")


def test_criterion_09_rotation_permutation_rep():
    bad = []
    for p1, p2, p3 in [(3, 6, 3), (5, 10, 5)]:
        _, rpt = oeo_permutation_rep(p1, p2, p3)
        ok = (
            all(rpt.relators_ok.values())
            and rpt.orders[1] == p2
            and (p2 // 2) % rpt.orders[2] == 0
        )
        if not ok:
            bad.append(((p1, p2, p3), rpt))
    report(
        9,
        not bad,
        "all eight rotation-group relators hold on (3,6,3) and (5,10,5); "
        "order(pi2) = p2 and order(pi3) divides p2/2"
        + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_10_central_square(census_grid):
    violations = []
    checked = 0
    for (p, q), records in census_grid["records"].items():
        if p % 2 == 0:
            continue
        for record in records:
            checked += 1
            rep = perm_rep(record.table)
            rotation = rotation_subgroup(rep)
            if not is_central_in(rep, (1, 2, 1, 2), rotation):
                violations.append((p, q, "central"))
            if (2 * p) % q != 0:
                violations.append((p, q, "divisor"))
    report(
        10,
        not violations and checked > 0,
        f"sigma2^2 central and q | 2p on {checked} odd-p orientable census "
        f"records: {len(violations)} violations",
    )


def test_criterion_11_polytope_axioms(instance_posets):
    bad = []
    for name, rep, poset, _ in instance_posets:
        if not poset.verify_polytope().passed:
            bad.append((name, "axioms"))
        if poset.flag_count() != rep.degree:
            bad.append((name, "flags"))
        if poset.combinatorial_schlafli() != sggi.schlafli_of_group(rep):
            bad.append((name, "schlafli"))
    report(
        11,
        not bad,
        f"axioms, flag counts, and symbols agree on {len(instance_posets)} "
        "built instances" + (f"; failures {bad}" if bad else ""),
    )


# sha256 of the atlas --max-flags 500 --max-rank 4 bytes, computed in
# another process: it also catches a drift that both runs below share.
ATLAS_500_4_SHA256 = "bc30185a862bfea8cce881b6607be000ad02a50daa0a8f6ef151805bcf0baf08"


def test_criterion_12_atlas_determinism(tmp_path):
    paths = [tmp_path / name for name in ("one.jsonl", "jobs.jsonl")]
    start = time.monotonic()
    assert main(["atlas", "--max-flags", "500", "--max-rank", "4", "--out", str(paths[0])]) == 0
    assert main(
        ["atlas", "--max-flags", "500", "--max-rank", "4", "--out", str(paths[1]), "--jobs", "4"]
    ) == 0
    elapsed = time.monotonic() - start
    blobs = [p.read_bytes() for p in paths]
    digests = {hashlib.sha256(blob).hexdigest() for blob in blobs}
    ok = blobs[0] == blobs[1] and digests == {ATLAS_500_4_SHA256}
    lines = blobs[0].count(b"\n")
    report(
        12,
        ok,
        f"atlas --max-flags 500 --max-rank 4 byte-identical at 1 and 4 workers and equal "
        f"to the pinned sha256 ({lines} entries, {elapsed:.0f}s for two runs)",
    )


def test_criterion_13_rank4_classification():
    # The theorem in both directions at rank 4: a tight orientably-regular
    # polytope of the type exists exactly when the type is admissible, and
    # each one found is the family's Γ.
    start = time.monotonic()
    records = {sym: classify_tight(*sym, require_orientable=True) for sym in RANK4_CENSUS_TYPES}
    elapsed = time.monotonic() - start
    bad = [sym for sym, recs in records.items() if bool(recs) != bool(is_admissible(sym))]
    found = {sym: found for sym, found in records.items() if found}
    for sym, recs in found.items():
        if any(r.order != 2 * prod(sym) or r.isomorphic_to_gamma is not True for r in recs):
            bad.append((sym, "gamma"))
    ok = (
        len(RANK4_CENSUS_TYPES) == 23
        and sorted(found) == [(3, 6, 3), (4, 4, 4)]
        and not bad
        and elapsed < 30.0
    )
    report(
        13,
        ok,
        f"rank-4 existence exact on {len(RANK4_CENSUS_TYPES)} types with 2pqr <= 128 "
        f"in {elapsed:.1f}s, records for {sorted(found)}" + (f"; failures {bad}" if bad else ""),
    )
