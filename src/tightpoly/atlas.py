"""Atlas entries, JSONL persistence, and batch tuple enumeration.

One JSON object per line, compact, keys sorted, no timestamps: files are
byte-identical across runs and worker counts. The schema carries an `ms`
field, which is always written as 0: wall time would make files differ
between runs. Census lines, and only they, carry `"source": "census"`.
Family `"lambda"` lines come only from the tests' Λ(k) verdict
(`tests/paper_checks.py`); no command writes them, but `FAMILIES` still
reads them. The reader accepts only what a writer writes, except that `ms`
may be any count of milliseconds, as older versions wrote real timings.
`run_batch` spreads a batch over worker processes, capped at the usable
cores, and returns results in task order. It sends the tasks in chunks, by
one fixed rule: about four chunks per worker, at most 16 tasks each. One
task per message made `--jobs 2` no faster than `--jobs 1` on a batch of
121 tuples, as each millisecond-long task paid for its own round trip.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import prod
from typing import Callable, Sequence

from .classifier import CensusRecord
from .errors import WorkerDied
from .families import FamilyVerdict
from .words import is_admissible

ATLAS_SCHEMA_VERSION = 1

FAMILIES = ("gamma", "lambda", "census")

@dataclass(frozen=True)
class AtlasEntry:
    schlafli: tuple[int, ...]
    family: str
    group_order: int
    flag_count: int
    tight: bool
    orientable: bool
    string_c_group: bool
    claims: dict[str, bool]

    def to_json_line(self) -> str:
        obj = {
            "schema_version": ATLAS_SCHEMA_VERSION,
            "tuple": list(self.schlafli),
            "family": self.family,
            "group_order": self.group_order,
            "flag_count": self.flag_count,
            "tight": self.tight,
            "orientable": self.orientable,
            "string_c_group": self.string_c_group,
            "claims": self.claims,
            "ms": 0,
        }
        if self.family == "census":
            obj["source"] = "census"
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class AtlasFormatError(ValueError):
    pass


def entry_from_json_line(line: str) -> AtlasEntry:
    """Parse and re-validate one serialized entry."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise AtlasFormatError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise AtlasFormatError("entry is not an object")
    if obj.get("schema_version") != ATLAS_SCHEMA_VERSION:
        raise AtlasFormatError(f"unsupported schema_version {obj.get('schema_version')}")
    required = {
        "tuple": list,
        "family": str,
        "group_order": int,
        "flag_count": int,
        "tight": bool,
        "orientable": bool,
        "string_c_group": bool,
        "claims": dict,
        "ms": int,
    }
    unknown = sorted(obj.keys() - required.keys() - {"schema_version", "source"})
    if unknown:
        raise AtlasFormatError(f"unknown keys {unknown}")
    for key, kind in required.items():
        if key not in obj:
            raise AtlasFormatError(f"missing key {key!r}")
        if not isinstance(obj[key], kind) or isinstance(obj[key], bool) != (kind is bool):
            raise AtlasFormatError(f"key {key!r} is not a {kind.__name__}")
    if obj["family"] not in FAMILIES:
        raise AtlasFormatError(f"unknown family {obj['family']!r}")
    census = obj["family"] == "census"
    if ("source" in obj) != census or obj.get("source", "census") != "census":
        raise AtlasFormatError(f"source {obj.get('source')!r} on a {obj['family']} line")
    entries = obj["tuple"]
    if not entries or not all(isinstance(p, int) and p >= 2 for p in entries):
        raise AtlasFormatError(f"bad tuple {entries}")
    # A group has at least one element; a poset that fails the axioms is
    # written with 0 flags.
    if obj["group_order"] < 1 or obj["flag_count"] < 0 or obj["ms"] < 0:
        raise AtlasFormatError(
            f"bad counts: group_order {obj['group_order']}, "
            f"flag_count {obj['flag_count']}, ms {obj['ms']}"
        )
    claims = obj["claims"]
    if not claims or not all(isinstance(v, bool) for v in claims.values()):
        raise AtlasFormatError("claims must be a non-empty map to booleans")
    # Every writer takes a flag and the claim of the same name from one verdict.
    flags = {
        "tight": obj["tight"],
        "string_c_group": obj["string_c_group"],
        "orientable": obj["orientable"],
        "non_orientable": not obj["orientable"],
    }
    for key, flag in flags.items():
        if claims.get(key, flag) != flag:
            raise AtlasFormatError(f"claim {key!r} is {claims[key]}, but the flags give {flag}")
    # A verified entry is tight: as many flags as group elements, 2 * prod(tuple).
    if all(claims.values()) and not obj["flag_count"] == obj["group_order"] == 2 * prod(entries):
        raise AtlasFormatError(
            f"verified entry with group_order {obj['group_order']}, "
            f"flag_count {obj['flag_count']}, tuple {entries}"
        )
    # Every writer writes compact JSON with sorted keys, each key once.
    if line != json.dumps(obj, sort_keys=True, separators=(",", ":")):
        raise AtlasFormatError("not in the writer's form: compact JSON, keys sorted, each once")
    return AtlasEntry(
        schlafli=tuple(entries),
        family=obj["family"],
        group_order=obj["group_order"],
        flag_count=obj["flag_count"],
        tight=obj["tight"],
        orientable=obj["orientable"],
        string_c_group=obj["string_c_group"],
        claims=dict(claims),
    )


def load_atlas(path: str) -> list[AtlasEntry]:
    entries = []
    # Lines end at "\n" only, so a "\r" before it stays in the line.
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        for no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            try:
                entries.append(entry_from_json_line(line))
            except AtlasFormatError as exc:
                raise AtlasFormatError(f"{path}:{no}: {exc}") from None
    return entries


def entry_from_verdict(verdict: FamilyVerdict) -> AtlasEntry:
    return AtlasEntry(
        schlafli=verdict.schlafli,
        family=verdict.family,
        group_order=verdict.group_order,
        flag_count=verdict.flag_count,
        tight=verdict.tight,
        orientable=verdict.profile.orientable,
        string_c_group=verdict.profile.is_string_c_group,
        claims=dict(verdict.claims),
    )


def entry_from_census_record(record: CensusRecord) -> AtlasEntry:
    # The census keeps only quotients whose poset is a verified tight polytope.
    claims = {
        "order": record.order == 2 * prod(record.schlafli),
        "type": record.profile.schlafli == record.schlafli,
        "string_c_group": record.profile.is_string_c_group,
        "tight": True,
        "polytope": True,
        "flags_equal_order": True,
    }
    if record.isomorphic_to_gamma is not None:
        claims["isomorphic_to_gamma"] = record.isomorphic_to_gamma
    if record.isomorphic_to_lambda is not None:
        claims["isomorphic_to_lambda"] = record.isomorphic_to_lambda
    return AtlasEntry(
        schlafli=record.schlafli,
        family="census",
        group_order=record.order,
        flag_count=record.order,
        tight=True,
        orientable=record.orientable,
        string_c_group=record.profile.is_string_c_group,
        claims=claims,
    )


def admissible_tuples(max_flags: int, max_rank: int) -> list[tuple[int, ...]]:
    """Admissible tuples with 2*product <= max_flags and rank <= max_rank.

    Tuple lengths run from 2 to max_rank - 1 (polytope rank = length + 1),
    entries are >= 2, and the result is in ascending lexicographic order.
    """
    bound = max_flags // 2
    found: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], product: int, length: int) -> None:
        if len(prefix) == length:
            if is_admissible(prefix):
                found.append(prefix)
            return
        p = 2
        while product * p <= bound:
            extend(prefix + (p,), product * p, length)
            p += 1

    for length in range(2, max_rank):
        extend((), 1, length)
    found.sort()
    return found


def write_jsonl_atomic(path: str, lines: Sequence[str]) -> None:
    """Write via a temp file and rename; partial output never survives.

    The temp file has a random name in the target directory and is created
    exclusively, so concurrent writers never share one and no file but
    `path` is ever replaced. It is made by a plain open(), so it gets the
    permissions the umask in force gives.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f"{name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def run_batch(tasks: Sequence, worker: Callable, jobs: int = 1) -> list:
    """Run `worker` on each task; results come back in task order, so output
    is identical for any worker count.

    The tasks are CPU-bound, so they run in worker processes, as many as the
    least of `jobs`, the number of tasks and the usable cores; more could not
    run at once. With one worker the loop runs in this process. `worker`, the
    tasks and the results cross a process boundary, so they must pickle: a
    module-level function, bound with `functools.partial` if it needs
    settings.

    The pool gets the tasks in chunks, about four per worker and at most 16
    tasks each. An atlas tuple takes about a millisecond, and with one task
    per message each one costs two pickled messages and wakes this process's
    queue threads, which then compete with the workers for the cores. Four
    chunks per worker keep the workers even on a small batch; the cap keeps
    the last chunk of a large batch short, so no worker is left with a long
    tail.

    A task that raises aborts the batch with its exception; a chunk stops at
    its first failure and chunks are read in order, so the exception is the
    first in task order, as in the serial loop. A worker process that dies
    (killed, out of memory) raises `WorkerDied`.
    """
    workers = min(jobs, len(tasks), _usable_cores())
    if workers <= 1:
        return [worker(t) for t in tasks]
    # Imported here: at module level it would load multiprocessing on `import tightpoly`.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, min(16, len(tasks) // (4 * workers)))
            return list(pool.map(worker, tasks, chunksize=chunksize))
    except BrokenProcessPool as exc:
        raise WorkerDied(f"one of {workers} worker processes ended abruptly, so the batch has no results") from exc
