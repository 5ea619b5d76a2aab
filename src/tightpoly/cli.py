"""Command-line front end.

Exit codes: 0 all claims pass, 1 claim failure, 2 bad input, checked before
any work (non-admissible tuples, two adjacent odd entries, a `classify --type`
of one entry, parse errors, integer options that are not ASCII digits after
an optional `-`, presentation files that are not UTF-8 or lack an involution
relator, and files that cannot be read or written), 3 resource
budget or index cap exhausted, 4 internal error (a failed certificate or
invariant, or any ValueError from inside a run: a bug, not a verdict; or an
`atlas --jobs` worker process that died, killed or out of memory, which
loses the batch and writes no file).
The coset budget of every enumeration in a run comes from `--budget N`
(default `toddcox.DEFAULT_MAX_COSETS`); N below 1 exits 2 before any work,
and so does a `classify --index-cap` below 1.
`atlas` runs one task per mirror pair, a tuple and its reverse, and
enumerates only the lesser (`families.verify_gamma_pair` gives why), so
`--budget` bounds the enumerations an atlas makes. A tuple is enumerated
block by block, and the budget bounds each block and their product
(`families._gamma_rep` gives why).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from math import prod

from . import poset, sggi
from .atlas import (
    AtlasEntry,
    admissible_tuples,
    entry_from_census_record,
    entry_from_verdict,
    run_batch,
    write_jsonl_atomic,
)
from .classifier import DEFAULT_INDEX_CAP, census_nonorientable, classify_tight
from .errors import (
    AdjacentOddPair,
    BudgetExceeded,
    CapExceeded,
    NotAdmissible,
    PresentationParseError,
    TightpolyError,
)
from .families import verify_gamma_family, verify_gamma_pair
from .toddcox import DEFAULT_MAX_COSETS, regular_rep
from .words import (
    _require_involutions,
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


def _parse_tuple(option: str, text: str) -> tuple[int, ...]:
    """The comma-separated entries that `option` was given, each of ASCII
    digits only (no sign, no `_`); a bad value is bad input, named by its
    option."""
    parts = text.split(",")
    bad = InputError(f"{option} must be comma-separated integers, got {text!r}")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise bad
    try:
        entries = tuple(map(int, parts))
    except ValueError:  # a numeral too long for int()
        raise bad from None
    if any(p < 2 for p in entries):
        raise InputError(f"{option} entries must be integers >= 2, got {text!r}")
    return entries


def _integer(text: str) -> int:
    """The value of an integer option: ASCII digits after an optional `-`.
    `int()` would also take `_`, `+`, spaces and non-ASCII digits; argparse
    reports the rest as bad input."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"must be ASCII digits after an optional '-', got {text!r}")
    return int(text)


def _format_symbol(entries) -> str:
    return "{" + ",".join(str(p) for p in entries) + "}"


def cmd_verify(args) -> int:
    entries = _parse_tuple("--tuple", args.tuple)
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
    is done for it: a directory, a path that names no file (empty, or ending
    in a separator), or a file in a directory that does not exist."""
    if os.path.isdir(path):
        raise InputError(f"--out {path}: Is a directory")
    if not os.path.basename(path):
        raise InputError(f"--out {path!r} names no file")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise InputError(f"--out {path}: its directory does not exist")


def atlas_worker(entries: tuple[int, ...], *, budget: int | None, blocks: dict) -> list[AtlasEntry]:
    """The atlas entries of one tuple and, unless it is a palindrome, of its
    reverse (`families.verify_gamma_pair`), with the blocks' data from the
    batch's `blocks` (`families._gamma_rep`). A budget or cap that runs out
    names the enumerated tuple in its message, which survives the pickle
    back from a worker process."""
    try:
        return [entry_from_verdict(v) for v in verify_gamma_pair(entries, max_cosets=budget, blocks=blocks)]
    except (BudgetExceeded, CapExceeded) as exc:
        exc.args = (f"tuple {_format_symbol(entries)}: {exc}",)
        raise


def cmd_atlas(args) -> int:
    """Verify every admissible tuple up to the bounds, one task per mirror
    pair (`families.verify_gamma_pair`), the lesser tuple of the two, so the
    first budget error in task order names a tuple that was enumerated. The
    batch holds each tuple's reverse, of the same product and length. The
    entries are written in `admissible_tuples` order. One dict of block data
    per batch (`families._gamma_rep`) is bound into the worker before
    `run_batch` forks, so each worker fills its own copy."""
    if args.max_flags < 4:
        raise InputError(f"--max-flags must be >= 4, got {args.max_flags}")
    if args.max_rank < 3:
        raise InputError(f"--max-rank must be >= 3, got {args.max_rank}")
    if args.jobs < 1:
        raise InputError(f"--jobs must be >= 1, got {args.jobs}")
    _check_out(args.out)
    tuples = admissible_tuples(args.max_flags, args.max_rank)
    tasks = [t for t in tuples if t <= t[::-1]]
    worker = functools.partial(atlas_worker, budget=args.budget, blocks={})
    found = {e.schlafli: e for pair in run_batch(tasks, worker, jobs=args.jobs) for e in pair}
    results = [found[t] for t in tuples]
    write_jsonl_atomic(args.out, [entry.to_json_line() for entry in results])
    failing = [e for e in results if not all(e.claims.values())]
    print(f"wrote {len(results)} entries to {args.out}" + (f", {len(failing)} with failing claims" if failing else ""))
    return EXIT_CLAIM if failing else EXIT_OK


def cmd_classify(args) -> int:
    sym = _parse_tuple("--type", args.type)
    if len(sym) < 2:
        raise InputError(f"--type needs at least two entries, got {args.type!r}")
    if args.out is not None:
        _check_out(args.out)
    if args.non_orientable:
        records = census_nonorientable(*sym, index_cap=args.index_cap, max_cosets=args.budget)
        kind = "non-orientable"
    else:
        records = classify_tight(
            *sym, require_orientable=args.orientable, index_cap=args.index_cap, max_cosets=args.budget
        )
        kind = "orientable" if args.orientable else "all"
    print(f"type {_format_symbol(sym)} ({kind}): {len(records)} tight record(s)")
    for i, record in enumerate(records, start=1):
        notes = ["orientable" if record.orientable else "non-orientable"]
        if record.isomorphic_to_gamma:
            notes.append(f"≅ Γ{sym}")
        if record.isomorphic_to_lambda:
            notes.append(f"≅ Λ({sym[0] // 3})")
        print(f"  record {i}: order {record.order}, {', '.join(notes)}")
    if args.out is not None:
        write_jsonl_atomic(
            args.out, [entry_from_census_record(r).to_json_line() for r in records]
        )
        print(f"wrote {len(records)} entries to {args.out}")
    return EXIT_OK


def cmd_check(args) -> int:
    try:  # the two ways a readable file is bad input and raises ValueError
        with open(args.presentation, "r", encoding="utf-8") as fh:
            pres = parse_presentation(fh.read())
        _require_involutions(pres)
    except ValueError as exc:  # UnicodeDecodeError is one
        raise InputError(f"{args.presentation}: {exc}") from None
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
    faces = poset.build_poset(rep)
    report, flags, sym, tight = poset.poset_checks(faces)
    if not report.passed:
        print(f"NOT a polytope: {report.first_failure}")
        return EXIT_OK
    print("polytope axioms pass")
    if sym is None:
        witness = faces.combinatorial_schlafli()
        print(f"not equivelar at slot {witness.position}: sizes {witness.sizes}")
    elif tight:
        print(f"tight ({flags} flags)")
    else:
        print(f"NOT tight ({flags} flags vs {2 * prod(sym)})")
    return EXIT_OK


def cmd_family(args) -> int:
    if args.gamma:
        pres = gamma_tuple_presentation(_parse_tuple("--gamma", args.gamma))
    elif args.coxeter:
        pres = coxeter_presentation(_parse_tuple("--coxeter", args.coxeter))
    else:
        if args.lambda_k < 1 or args.lambda_k % 2 == 0:
            raise InputError(f"--lambda-k must be odd and positive, got {args.lambda_k}")
        pres = lambda_k_presentation(args.lambda_k)
    text = write_presentation(pres)
    if args.out is not None:
        _check_out(args.out)
        write_jsonl_atomic(args.out, text.splitlines())
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
    p_verify.set_defaults(func=cmd_verify)

    p_atlas = sub.add_parser("atlas", help="verify every admissible tuple up to a flag bound")
    p_atlas.add_argument("--max-flags", type=_integer, required=True)
    p_atlas.add_argument("--max-rank", type=_integer, required=True)
    p_atlas.add_argument("--out", required=True)
    p_atlas.add_argument("--jobs", type=_integer, default=1, help="worker processes, capped at the usable cores")
    p_atlas.set_defaults(func=cmd_atlas)

    p_classify = sub.add_parser("classify", help="census of tight polytopes of one type")
    p_classify.add_argument("--type", required=True, help="p,q[,r,...]: two or more entries")
    group = p_classify.add_mutually_exclusive_group()
    group.add_argument("--orientable", action="store_true")
    group.add_argument("--non-orientable", action="store_true")
    p_classify.add_argument("--out", default=None)
    p_classify.add_argument(
        "--index-cap", type=_integer, default=None, help=f"largest index searched, >= 1 (default {DEFAULT_INDEX_CAP})"
    )
    p_classify.set_defaults(func=cmd_classify)

    p_check = sub.add_parser("check", help="full report for a presentation file")
    p_check.add_argument("--presentation", required=True)
    p_check.set_defaults(func=cmd_check)

    for p in (p_verify, p_atlas, p_classify, p_check):
        p.add_argument(
            "--budget",
            type=_integer,
            help=f"coset budget of each enumeration the run makes, >= 1 (default {DEFAULT_MAX_COSETS});"
            " atlas derives a reversed tuple's verdict and makes no enumeration for it, and a tuple"
            " with an entry 2 is enumerated block by block, so the budget bounds each block and"
            " the product of their orders",
        )

    p_family = sub.add_parser("family", help="emit a builder's presentation file")
    src = p_family.add_mutually_exclusive_group(required=True)
    src.add_argument("--gamma", help="tuple for the tight family quotient")
    src.add_argument("--coxeter", help="tuple for the string Coxeter group")
    src.add_argument("--lambda-k", type=_integer, help="odd k for the non-orientable family")
    p_family.add_argument("--out", default=None)
    p_family.set_defaults(func=cmd_family)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every subcommand that enumerates takes --budget; `family` does not.
        # Only `classify` takes --index-cap.
        for option in ("budget", "index_cap"):
            value = getattr(args, option, None)
            if value is not None and value < 1:
                raise InputError(f"--{option.replace('_', '-')} must be >= 1, got {value}")
        return args.func(args)
    except NotAdmissible as exc:
        print(f"not admissible: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InputError, PresentationParseError, AdjacentOddPair, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceeded, CapExceeded) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (TightpolyError, ValueError) as exc:
        # Every other error is an internal one: a verdict reports a failed
        # claim, never raises one, and bad input is rejected at the edge.
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
