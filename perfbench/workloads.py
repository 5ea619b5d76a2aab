"""The benchmark workloads: their inputs, one item's work, and the
correctness gate against goldens recorded from the reference program.

Each workload is a fixed, seed-independent list of items in canonical order.
An item's output is text (JSONL lines); the gate compares every item's
sha256 with its golden and the whole canonical output with the golden
digest of the JSONL bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
OUT_DIR = ROOT / ".perfbench_out"

if not (ROOT / "src" / "tightpoly" / "__init__.py").is_file():
    raise SystemExit("perfbench: src/tightpoly not found next to perfbench/")
sys.path.insert(0, str(ROOT / "src"))

# Calls go through module attributes so that the tracer's wrappers see them.
from tightpoly import atlas, classifier, cli, families, words  # noqa: E402

# Every k-th item of each full input set: the same mix of small and large
# groups as the full set, at a size a run can repeat several times.
ATLAS_STRIDE = 8        # 129 of the 1026 tuples of `atlas --max-flags 500 --max-rank 4`
HIGHRANK_STRIDE = 5     # 31 of the 154 rank-7 tuples with 2*prod <= 600
CENSUS_SLICE = slice(3, None, 6)   # 18 of the 108 types with 2pq <= 100, {4,8} among them
PAR_MAX_FLAGS = 100     # `atlas --max-flags 100 --max-rank 4`: 121 tuples


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def census_types() -> list[tuple[int, int]]:
    return [(p, q) for p in range(2, 26) for q in range(2, 26) if 2 * p * q <= 100]


def tight_type_exists(p: int, q: int) -> bool:
    """The trichotomy for tight orientably-regular polyhedra of type {p, q}."""
    if p % 2 == 0 and q % 2 == 0:
        return True
    if p % 2 == 1 and q % 2 == 0:
        return (2 * p) % q == 0
    if q % 2 == 1 and p % 2 == 0:
        return (2 * q) % p == 0
    return False


def atlas_line(entries: tuple[int, ...]) -> str:
    """One atlas entry, as `tightpoly atlas` writes it."""
    return atlas.entry_from_verdict(families.verify_gamma_family(entries)).to_json_line() + "\n"


def census_lines(pq: tuple[int, int]) -> str:
    """The orientable census of one type, as `classify --out` writes it."""
    records = classifier.classify_tight(*pq, require_orientable=True)
    return "".join(atlas.entry_from_census_record(r).to_json_line() + "\n" for r in records)


def cli_atlas(jobs: int) -> str:
    """One `tightpoly atlas` run; returns the bytes it wrote."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"atlas-par-jobs{jobs}.jsonl"
    argv = ["atlas", "--max-flags", str(PAR_MAX_FLAGS), "--max-rank", "4",
            "--out", str(out), "--jobs", str(jobs)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tightpoly {' '.join(argv)} exited {code}")
    return out.read_text(encoding="utf-8")


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple          # canonical order
    run_item: Callable[[object], str]
    timed: Callable[[object], bool] = lambda item: True   # items that count as latency samples


def build(name: str) -> Workload:
    """The workload's inputs: tuple or type enumeration, and for tuples and
    types their presentations, built once here so that bad input fails in
    set-up."""
    if name == "atlas":
        items = tuple(atlas.admissible_tuples(500, 4)[::ATLAS_STRIDE])
        for entries in items:
            words.gamma_tuple_presentation(entries)
        return Workload(name, items, atlas_line)
    if name == "highrank":
        rank7 = [t for t in atlas.admissible_tuples(600, 7) if len(t) == 6]
        items = tuple(rank7[::HIGHRANK_STRIDE])
        for entries in items:
            words.gamma_tuple_presentation(entries)
        return Workload(name, items, atlas_line)
    if name == "census":
        items = tuple(census_types()[CENSUS_SLICE])
        for pq in items:
            words.coxeter_presentation(pq)
        return Workload(name, items, census_lines)
    if name == "atlas-par":
        n = nproc()
        return Workload(name, (1, n), cli_atlas, timed=lambda jobs: jobs == n)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("atlas", "census", "highrank", "atlas-par")


def item_key(item) -> str:
    return ",".join(map(str, item)) if isinstance(item, tuple) else f"jobs{item}"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def check_pass(wl: Workload, outputs: list[str | None], golden: dict) -> tuple[list[int], bool]:
    """Gate one pass. `outputs[i]` is item i's output in canonical order, or
    None if it raised. Returns the indices of failed items and whether the
    whole output matches the golden digest."""
    failed = []
    for i, (item, text) in enumerate(zip(wl.items, outputs)):
        if text is None or not _item_ok(wl.name, item, text, golden):
            failed.append(i)
    if wl.name == "atlas-par":
        whole_ok = not failed
    else:
        whole_ok = all(t is not None for t in outputs) and sha256("".join(outputs)) == golden["digest"]
    return failed, whole_ok


def _item_ok(name: str, item, text: str, golden: dict) -> bool:
    if name == "atlas-par":
        return sha256(text) == golden["digest"]
    if sha256(text) != golden["items"].get(item_key(item)):
        return False
    lines = text.splitlines()
    if name == "census":
        return bool(lines) == tight_type_exists(*item)
    return all(all(json.loads(line)["claims"].values()) for line in lines)
