"""Command-line front end.

Exit codes: 0 all claims pass, 1 claim failure, 2 bad input (including
non-admissible tuples, tuples with two adjacent odd entries, parse errors
and files that cannot be read or written), 3 resource budget exhausted, 4 internal error (a failed
certificate or invariant: a bug, not a verdict).
The TIGHTPOLY_MAX_COSETS environment variable raises the default
enumeration budget; flags override it per run.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from math import prod

from . import sggi
from .atlas import (
    AtlasEntry,
    admissible_tuples,
    entry_from_census_record,
    entry_from_verdict,
    run_batch,
    write_jsonl_atomic,
)
from .classifier import census_nonorientable, classify_tight
from .errors import (
    AdjacentOddPair,
    BudgetExceeded,
    CapExceeded,
    DiamondViolation,
    InvariantViolation,
    NotAdmissible,
    PresentationParseError,
    RelatorViolation,
    RouteDisagreement,
    TightpolyError,
)
from .families import verify_gamma_family
from .poset import poset_checks
from .toddcox import regular_rep
from .words import (
    coxeter_presentation,
    gamma_tuple_presentation,
    lambda_k_presentation,
    parse_presentation,
    write_presentation,
)

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class InputError(Exception):
    pass


def _parse_tuple(text: str) -> tuple[int, ...]:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"cannot parse tuple {text!r}") from None
    if not entries or any(p < 2 for p in entries):
        raise InputError(f"tuple entries must be integers >= 2, got {text!r}")
    return entries


def _format_symbol(entries) -> str:
    return "{" + ",".join(str(p) for p in entries) + "}"


def cmd_verify(args) -> int:
    entries = _parse_tuple(args.tuple)
    start = time.monotonic()
    verdict = verify_gamma_family(entries, max_cosets=args.budget)
    ms = int((time.monotonic() - start) * 1000)
    product = "·".join(str(p) for p in verdict.schlafli)
    print(f"tuple {_format_symbol(verdict.schlafli)}: order {verdict.group_order} = 2·{product}")
    for claim, ok in verdict.claims.items():
        print(f"  {claim:<20} {'PASS' if ok else 'FAIL'}")
    passed = sum(verdict.claims.values())
    print(f"{passed}/{len(verdict.claims)} claims pass in {ms} ms")
    return EXIT_OK if verdict.passed else EXIT_CLAIM


def _check_out(path: str) -> None:
    """Reject an --out path that cannot be written, naming it, before any work
    is done for it."""
    if os.path.isdir(path):
        raise InputError(f"--out {path}: Is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise InputError(f"--out {path}: its directory does not exist")


def atlas_worker(entries: tuple[int, ...], *, budget: int | None, timings: bool) -> AtlasEntry:
    """Verify one atlas tuple. Module level, so that `run_batch` can send it
    to worker processes."""
    start = time.monotonic()
    verdict = verify_gamma_family(entries, max_cosets=budget)
    ms = int((time.monotonic() - start) * 1000) if timings else 0
    return entry_from_verdict(verdict, ms=ms)


def cmd_atlas(args) -> int:
    if args.max_flags < 4:
        raise InputError(f"--max-flags must be >= 4, got {args.max_flags}")
    if args.max_rank < 3:
        raise InputError(f"--max-rank must be >= 3, got {args.max_rank}")
    if args.jobs < 1:
        raise InputError(f"--jobs must be >= 1, got {args.jobs}")
    _check_out(args.out)
    tuples = list(admissible_tuples(args.max_flags, args.max_rank))
    worker = functools.partial(atlas_worker, budget=args.budget, timings=args.timings)
    results = run_batch(tuples, worker, jobs=args.jobs)
    write_jsonl_atomic(args.out, [entry.to_json_line() for entry in results])
    failing = [e for e in results if not all(e.claims.values())]
    print(f"wrote {len(results)} entries to {args.out}" + (f", {len(failing)} with failing claims" if failing else ""))
    return EXIT_CLAIM if failing else EXIT_OK


def cmd_classify(args) -> int:
    p, q = _parse_pq(args.type)
    if args.out:
        _check_out(args.out)
    if args.non_orientable:
        records = census_nonorientable(p, q, index_cap=args.index_cap, max_cosets=args.budget)
        kind = "non-orientable"
    else:
        records = classify_tight(
            p, q, require_orientable=args.orientable, index_cap=args.index_cap, max_cosets=args.budget
        )
        kind = "orientable" if args.orientable else "all"
    print(f"type {_format_symbol((p, q))} ({kind}): {len(records)} tight record(s)")
    for i, record in enumerate(records, start=1):
        notes = ["orientable" if record.orientable else "non-orientable"]
        if record.isomorphic_to_gamma:
            notes.append(f"≅ Γ{(p, q)}")
        if record.isomorphic_to_lambda:
            notes.append(f"≅ Λ({p // 3})")
        print(f"  record {i}: order {record.order}, {', '.join(notes)}")
    if args.out:
        write_jsonl_atomic(
            args.out, [entry_from_census_record(r).to_json_line() for r in records]
        )
        print(f"wrote {len(records)} entries to {args.out}")
    return EXIT_OK


def _parse_pq(text: str) -> tuple[int, int]:
    entries = _parse_tuple(text)
    if len(entries) != 2:
        raise InputError(f"--type needs exactly two entries, got {text!r}")
    return entries[0], entries[1]


def cmd_check(args) -> int:
    with open(args.presentation, "r", encoding="utf-8") as fh:
        pres = parse_presentation(fh.read())
    rep = regular_rep(pres, args.budget)
    prof = sggi.profile(rep)
    print(f"group order {prof.group_order}, rank {prof.rank}")
    print("sggi" if prof.is_sggi else "NOT an sggi")
    if prof.degenerate:
        print(f"degenerate generators: {list(prof.degenerate)}")
    if prof.is_string_c_group:
        print("string C-group")
    elif prof.intersection_witness is not None:
        I, J = map(_format_symbol, prof.intersection_witness)
        print(f"intersection condition FAILS at I={I}, J={J}")
    print("orientable" if prof.orientable else "non-orientable")
    print(f"type {_format_symbol(prof.schlafli)}")
    poset, report, flags, sym, tight = poset_checks(rep)
    if not report.passed:
        print(f"NOT a polytope: {report.first_failure}")
        return EXIT_OK
    print("polytope axioms pass")
    if sym is None:
        witness = poset.combinatorial_schlafli()
        print(f"not equivelar at slot {witness.position}: sizes {witness.sizes}")
    elif tight:
        print(f"tight ({flags} flags)")
    else:
        print(f"NOT tight ({flags} flags vs {2 * prod(sym)})")
    return EXIT_OK


def cmd_family(args) -> int:
    if args.gamma:
        pres = gamma_tuple_presentation(_parse_tuple(args.gamma))
    elif args.coxeter:
        pres = coxeter_presentation(_parse_tuple(args.coxeter))
    else:
        if args.lambda_k < 1 or args.lambda_k % 2 == 0:
            raise InputError(f"--lambda-k must be odd and positive, got {args.lambda_k}")
        pres = lambda_k_presentation(args.lambda_k)
    text = write_presentation(pres)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tightpoly",
        description="Construct and verify tight regular polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify the family claims for one tuple")
    p_verify.add_argument("--tuple", required=True, help="comma-separated entries, e.g. 3,6")
    p_verify.add_argument("--budget", type=int, default=None, help="coset budget")
    p_verify.set_defaults(func=cmd_verify)

    p_atlas = sub.add_parser("atlas", help="verify every admissible tuple up to a flag bound")
    p_atlas.add_argument("--max-flags", type=int, required=True)
    p_atlas.add_argument("--max-rank", type=int, required=True)
    p_atlas.add_argument("--out", required=True)
    p_atlas.add_argument("--jobs", type=int, default=1, help="worker processes, capped at the usable cores")
    p_atlas.add_argument("--timings", action="store_true", help="record real wall time (breaks byte reproducibility)")
    p_atlas.add_argument("--budget", type=int, default=None)
    p_atlas.set_defaults(func=cmd_atlas)

    p_classify = sub.add_parser("classify", help="census of tight polyhedra of one type")
    p_classify.add_argument("--type", required=True, help="p,q")
    group = p_classify.add_mutually_exclusive_group()
    group.add_argument("--orientable", action="store_true")
    group.add_argument("--non-orientable", action="store_true")
    p_classify.add_argument("--out", default=None)
    p_classify.add_argument("--index-cap", type=int, default=None)
    p_classify.add_argument("--budget", type=int, default=None)
    p_classify.set_defaults(func=cmd_classify)

    p_check = sub.add_parser("check", help="full report for a presentation file")
    p_check.add_argument("--presentation", required=True)
    p_check.add_argument("--budget", type=int, default=None)
    p_check.set_defaults(func=cmd_check)

    p_family = sub.add_parser("family", help="emit a builder's presentation file")
    src = p_family.add_mutually_exclusive_group(required=True)
    src.add_argument("--gamma", help="tuple for the tight family quotient")
    src.add_argument("--coxeter", help="tuple for the string Coxeter group")
    src.add_argument("--lambda-k", type=int, help="odd k for the non-orientable family")
    p_family.add_argument("--out", default=None)
    p_family.set_defaults(func=cmd_family)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotAdmissible as exc:
        print(f"not admissible: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InputError, PresentationParseError, AdjacentOddPair, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceeded, CapExceeded) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (RelatorViolation, DiamondViolation, InvariantViolation, RouteDisagreement) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except TightpolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLAIM


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
