"""CI's gates: the pins on the CLI, the benchmark and whole batches that
the Tier-1 suite does not run. pytest does not collect this file, and
`tests/test_gates.py` holds the workflow to it.

    PYTHONPATH=src python tests/gates.py         # every gate, in workflow order
    PYTHONPATH=src python tests/gates.py NAME    # one gate

Each gate runs in a process of its own, in a fresh temporary directory, and a failed check raises there.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tightpoly
from reference_families import direct_line
from tightpoly import cli, engine, poset, sggi, toddcox
from tightpoly.atlas import entry_from_census_record, entry_from_verdict, load_atlas
from tightpoly.classifier import _NormalSearch, census_nonorientable, classify_tight
from tightpoly.families import verify_gamma_family

BENCH = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
SRC = str(Path(tightpoly.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
ATLAS_100_4 = "798a2dd41d0d44ee2947e023be8726deb6f6607ab974feeabed6cb4392c25a97"
ATLAS_300_7 = "25dff22b10a8d7965166817dbde9aa5d1a6a2416dcd1627fd54e78acd25487fd"
ATLAS_500_4 = "bc30185a862bfea8cce881b6607be000ad02a50daa0a8f6ef151805bcf0baf08"


def expect(ok, what):
    if not ok:
        raise AssertionError(what)


def equal(what, got, want):
    expect(got == want, f"{what}: got {got!r}, want {want!r}")


def has(text, part, line=False):
    """`part` is in `text`, or with `line` is one of its lines."""
    expect(part in (text.splitlines() if line else text), f"no {'line' if line else 'text'} {part!r} in {text!r}")


def python(*argv, status=0, one_line=False, env=None):
    """Runs `python *argv`, echoes and returns its (stdout, stderr), and checks
    its exit status: a non-zero one leaves stdout empty and stderr without a
    traceback, and with `one_line` of exactly one line."""
    proc = subprocess.run([sys.executable, *argv], capture_output=True, env={**ENV, **(env or {})})
    out, err = proc.stdout.decode(), proc.stderr.decode()
    print(out, end="", flush=True)
    print(err, end="", file=sys.stderr, flush=True)
    equal(f"exit status of python {' '.join(argv)}", proc.returncode, status)
    if status:
        equal("stdout", out, "")
        expect("Traceback" not in err, "a traceback on stderr")
        expect(not one_line or err.count("\n") == 1, "stderr is not one line")
    return out, err


def run(cmd, *extra, py="", **kwargs):
    """`python py -m tightpoly.cli cmd extra`, `py` and `cmd` split at spaces, checked as `python` checks it."""
    return python(*py.split(), "-m", "tightpoly.cli", *cmd.split(), *extra, **kwargs)


def pin(target, digest, entries=None):
    """The sha256 of `target`, a file name or an output's bytes, is `digest`;
    with `entries`, the file has that many lines, read back as entries."""
    data = target if isinstance(target, bytes) else Path(target).read_bytes()
    equal(f"sha256 of {target!r:.60}", hashlib.sha256(data).hexdigest(), digest)
    if entries is not None:
        equal(f"lines of {target}", data.count(b"\n"), entries)
        equal(f"entries of {target} read back", len(load_atlas(target)), entries)


def oracle_lines(path, chosen, line_of, count):
    """The `count` lines of the atlas at `path` with a `chosen` tuple t are `line_of(t)`."""
    seen = 0
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        t = tuple(json.loads(line)["tuple"])
        if chosen(t):
            seen += 1
            equal(f"{t}: the oracle's line", line_of(t), line)
    equal(f"lines of {path} the oracle reads", seen, count)


def both_jobs(flags, rank, stem, digest, entries):
    """`atlas flags/rank` writes the pinned `{stem}-jobs1.jsonl`, and the same bytes at two workers."""
    for jobs in ("1", "2"):
        run(f"atlas --max-flags {flags} --max-rank {rank} --out {stem}-jobs{jobs}.jsonl --jobs {jobs}")
    expect(Path(f"{stem}-jobs1.jsonl").read_bytes() == Path(f"{stem}-jobs2.jsonl").read_bytes(), "--jobs 2 differs")
    pin(f"{stem}-jobs1.jsonl", digest, entries)


def presentation(name, family, extra=""):
    """Writes `family family` to `name`, then the lines `extra`; returns `name`."""
    run(f"family {family} --out {name}")
    with open(name, "a", encoding="utf-8") as fh:
        fh.write(extra)
    return name


def census(args, out, entries, digest):
    run(f"classify {args} --out {out}")
    pin(out, digest, entries)


def counted(owner, name, keep=lambda args, result: None):
    """Wraps `owner.name` for the gate's process: each call appends `keep(args, result)` to the list returned."""
    real, calls = getattr(owner, name), []

    def counting(*args):
        result = real(*args)
        calls.append(keep(args, result))
        return result

    setattr(owner, name, counting)
    return calls


DYING_WORKER = """import os, sys
from tightpoly import cli
real = cli.atlas_worker
cli.atlas_worker = lambda entries, **kwargs: os._exit(1) if entries == (3, 6) else real(entries, **kwargs)
sys.exit(cli.main(["atlas", "--max-flags", "100", "--max-rank", "4", "--out", sys.argv[1], "--jobs", "2"]))
"""


class Gates:
    """The gates, one method per workflow step, in workflow order."""

    def bench(self):
        for w in ("atlas", "census", "highrank", "atlas-par"):
            out, _ = python(str(BENCH), *f"--workload {w} --seed 1 --seconds 0 --trace 0".split())
            equal(f"{w}: correct", json.loads(out.splitlines()[-1])["correct"], True)

    def atlas(self):
        both_jobs("100", "4", "atlas", ATLAS_100_4, 121)
        oracle_lines("atlas-jobs1.jsonl", lambda t: t > t[::-1], lambda t: entry_from_verdict(verify_gamma_family(t)).to_json_line(), 52)
        oracle_lines("atlas-jobs1.jsonl", lambda t: 2 in t, direct_line, 105)

    def atlas_O(self):
        run("atlas --max-flags 100 --max-rank 4 --out atlas-jobs1-O.jsonl", py="-O")
        pin("atlas-jobs1-O.jsonl", ATLAS_100_4)

    def atlas7(self):
        both_jobs("300", "7", "atlas7", ATLAS_300_7, 874)
        oracle_lines("atlas7-jobs1.jsonl", lambda t: 2 in t, direct_line, 773)

    def atlas7_O(self):
        run("atlas --max-flags 300 --max-rank 7 --out atlas7-jobs1-O.jsonl", py="-O")
        pin("atlas7-jobs1-O.jsonl", ATLAS_300_7)

    def block_work(self):
        work = counted(toddcox, "_hlt", lambda args, result: (args[0], len(result[1])))
        certified = counted(engine, "left_action", lambda args, result: args[0].degree)
        builds, checks = counted(poset, "build_poset"), counted(poset, "poset_checks")
        profiles, polytopes = counted(sggi, "product_profile"), counted(poset.FacePoset, "verify_polytope")
        for flags, rank, want, route, digest in [
            ("500", "4", (271, 271, 75938, 272, 95732), (907, 272, 272), ATLAS_500_4),
            ("300", "7", (143, 143, 22357, 144, 36620), (818, 144, 144), ATLAS_300_7),
        ]:
            for calls in (work, certified, builds, checks, profiles, polytopes):
                calls.clear()
            out = f"work-{flags}-{rank}.jsonl"
            equal(f"{out}: exit status", cli.main(f"atlas --max-flags {flags} --max-rank {rank} --out {out} --jobs 1".split()), 0)
            got = (len(work), len({pres for pres, _ in work}), sum(n for _, n in work), len(builds), sum(certified))
            got_route = (len(profiles), len(checks), len(polytopes))
            print(flags, rank, *got, got_route)
            equal(f"{out}: enumerations, distinct presentations, cosets allocated, poset builds, left_action points", got, want)
            equal(f"{out}: product_profile, poset_checks and verify_polytope calls", got_route, route)
            pin(out, digest)

    def dead_worker(self):
        has(python("-c", DYING_WORKER, "dead.jsonl", status=4, one_line=True)[1], "internal error: ")
        expect(not Path("dead.jsonl").exists(), "dead.jsonl written")

    def atlas_budget(self):
        errs = []
        for jobs in ("1", "2"):
            cmd = f"atlas --max-flags 100 --max-rank 4 --budget 60 --out budget{jobs}.jsonl --jobs {jobs}"
            errs.append(run(cmd, status=3, one_line=True)[1])
            expect(not Path(f"budget{jobs}.jsonl").exists(), f"budget{jobs}.jsonl written")
            has(errs[-1], "resource limit: tuple {2,2,8}: ")
        equal("stderr at --jobs 2", errs[1], errs[0])
        _, err = run("atlas --max-flags 100 --max-rank 4 --out importtime.jsonl --jobs 2", py="-X importtime")
        expect(re.search(r"\| +pickle$", err, re.M), "pickle not imported")
        expect(not re.search("concurrent|multiprocessing", err), "an executor module imported")

    def product_budget(self):
        _, err = run("verify --tuple 10000,2,10000", status=3, one_line=True)
        has(err, "resource limit: coset enumeration exceeded budget of 100000 cosets (the group has order 400000000)", line=True)

    def lambda3(self):
        out = run("check --presentation", presentation("lambda3.txt", "--lambda-k 3"))[0]
        has(out, "non-orientable", line=True)
        has(out, "tight (72 flags)")

    def census48(self):
        run("classify --type 4,8 --orientable --out c48.jsonl")
        lines = Path("c48.jsonl").read_text(encoding="utf-8").splitlines()
        equal("records", len(lines), 2)
        equal("records isomorphic to a Γ", sum('"isomorphic_to_gamma":true' in line for line in lines), 1)

    def census_pins(self):
        census("--type 4,8 --orientable", "census-48-orientable.jsonl", 2, "d6a3b608252efe5a28ce2ae8317bb17b4190f229b6008067d30e91c5e5e061aa")
        census("--type 6,6", "census-66.jsonl", 3, "b5ca9ece9b84692cdbc0e2047c71697a8b89abd704ed0b1c896e9de076451bc5")

    def census46(self):
        census("--type 4,6 --orientable", "census-46-orientable.jsonl", 1, "7e99196dcf6cd0e132bfaf5cf282b904289385cf6f5c0a224f441d60eed54740")
        census("--type 4,6 --non-orientable", "census-46-non-orientable.jsonl", 2, "9e3c5603718e76a59f1e8c41d768dbc0eaa0d629964cb06f93ba1a1120b88116")

    def census_grid(self):
        nodes, scans = counted(_NormalSearch, "run"), counted(_NormalSearch, "_scan")
        grid = [(p, q) for p in range(2, 26) for q in range(2, 26) if 2 * p * q <= 100]
        lines = []
        for mode, records_of, work in [
            ("orientable", lambda pq: classify_tight(*pq, require_orientable=True), (50945, 458675)),
            ("all", lambda pq: classify_tight(*pq, require_orientable=False), (101969, 753274)),
            ("non-orientable", lambda pq: census_nonorientable(*pq), (101969, 753274)),
        ]:
            nodes.clear()
            scans.clear()
            lines += [entry_from_census_record(r).to_json_line() + "\n" for pq in grid for r in records_of(pq)]
            print(mode, len(nodes), len(scans), file=sys.stderr)
            equal(f"{mode}: search nodes and scans", (len(nodes), len(scans)), work)
        got = f"{len(grid)} {len(lines)} {hashlib.sha256(''.join(lines).encode()).hexdigest()}"
        print(got)
        equal("types, records and digest", got, "108 158 c229353deb3f1a4bd8e213c72bccdebae264c9148283c26f3df29d0cc555c2cc")

    def census_rank4(self):
        census("--type 3,6,3 --orientable", "census-363-orientable.jsonl", 1, "f3f5359993aff8a5a792f842d0985325a3f6605b06eb67d0cdd75c05b5fd6e19")
        has(Path("census-363-orientable.jsonl").read_text(encoding="utf-8"), '"isomorphic_to_gamma":true')
        has(run("classify --type 3,4,3 --orientable")[0], "0 tight record(s)")
        run("classify --type 4", status=2)

    def bad_cap(self):
        has(run("classify --type 3,4 --index-cap 0", status=2)[1], "error: --index-cap must be >= 1, got 0", line=True)
        run("family --gamma 3,3", status=2)

    def numerals(self):
        run("verify --tuple 3_0,6", status=2)
        run("check --presentation", presentation("c33-bad.txt", "--coxeter 3,3", "rel 0_0 1\n"), status=2)

    def routes(self):
        has(run("check --presentation", presentation("g226322.txt", "--gamma 2,2,6,3,2,2"))[0], "string C-group", line=True)
        out = run("check --presentation", presentation("x0x2.txt", "--coxeter 2,2", "rel 0 2\n"))[0]
        has(out, "intersection condition FAILS at I={0}, J={2}")
        has(out, "NOT a polytope: section (1, 0)/(-1, 0) has 1 middle faces, expected 2", line=True)

    def flag_counts(self):
        for sym, flags in [("4,3", "48 flags vs 24"), ("3,3,3", "120 flags vs 54"), ("3,3,3,3", "720 flags vs 162"), ("3,4,3", "1152 flags vs 72")]:
            name = presentation(f"c{sym.replace(',', '')}.txt", f"--coxeter {sym}")
            has(run("check --presentation", name)[0], f"NOT tight ({flags})", line=True)

    def check_pin(self):
        names = [
            presentation("pin-lambda3.txt", "--lambda-k 3"),
            presentation("pin-g226322.txt", "--gamma 2,2,6,3,2,2"),
            presentation("pin-x0x2.txt", "--coxeter 2,2", "rel 0 2\n"),
            presentation("pin-g364.txt", "--gamma 3,6,4"),
            presentation("pin-c43.txt", "--coxeter 4,3"),
            presentation("pin-c333.txt", "--coxeter 3,3,3"),
        ]
        for py in ("", "-O"):
            out = "".join(run("check --presentation", name, py=py)[0] for name in names)
            pin(out.encode(), "594f00b59a20c637869d2b64104cf8b59fbe7abbf69489d20510662199ad3978")

    def triangle(self):
        Path("tri233.txt").write_text("gens 3\nrel 0 0\nrel 1 1\nrel 2 2\nrel 0 1 0 1\nrel 1 2 1 2 1 2\nrel 0 2 0 2 0 2\n", encoding="utf-8")
        for py in ("", "-O"):
            out = run("check --presentation tri233.txt", py=py)[0]
            has(out, "NOT a polytope: section (1, 0)/(-1, 0) has 3 middle faces, expected 2", line=True)
            pin(out.encode(), "86bdebad1e1732761ff8a2b2e7516fa10c535ff898cd983874b38dea5069633f")

    def int_options(self):
        run("verify --tuple 3,6 --budget 1_000", status=2)
        run("family --lambda-k ٣", status=2)

    def directories(self):
        run("check --presentation", os.getcwd(), status=2)
        run("family --gamma 3,6 --out", os.getcwd(), status=2)

    def classify_out(self):
        run("classify --type 3,6 --orientable --out", os.getcwd(), status=2)

    def atlas_out(self):
        for out in ("", os.path.join(os.getcwd(), "none", "")):
            has(run("atlas --max-flags 12 --max-rank 3 --out", out, status=2, one_line=True)[1], "error: --out")

    def budget_option(self):
        run("verify --tuple 3,6", env={"TIGHTPOLY_MAX_COSETS": "3"})
        run("classify --type 3,3 --budget 0", status=2)


GATES = [name for name in vars(Gates) if not name.startswith("_")]


def main(names):
    unknown = [name for name in names if name not in GATES]
    if unknown:
        print(f"unknown gate {' '.join(unknown)}; the gates are: {' '.join(GATES)}", file=sys.stderr)
        return 2
    if len(names) == 1:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            getattr(Gates(), names[0])()
        return 0
    failed = []
    for name in names or GATES:
        start = time.monotonic()
        ok = subprocess.run([sys.executable, __file__, name], env=ENV).returncode == 0
        if not ok:
            failed.append(name)
        print(f"gate {name}: {'ok' if ok else 'FAILED'} in {time.monotonic() - start:.2f} s", flush=True)
    if failed:
        print(f"failed gates: {' '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
