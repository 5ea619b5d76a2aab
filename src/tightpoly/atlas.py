"""Atlas entries, JSONL persistence, and batch tuple enumeration.

One JSON object per line, compact, keys sorted, no timestamps: files are
byte-identical across runs and worker counts. The schema carries an `ms`
field, which is always written as 0: wall time would make files differ
between runs. Census lines, and only they, carry `"source": "census"`.
Family `"lambda"` lines come only from the tests' Λ(k) verdict
(`tests/paper_checks.py`); no command writes them, but `FAMILIES` still
reads them. The reader accepts only what a writer writes, except that `ms`
may be any count of milliseconds, as older versions wrote real timings.
`run_batch` spreads a batch over forked worker processes, capped at the
usable cores, and returns results in task order. The workers pull chunks of
tasks from a pipe of one-byte tokens, one token per chunk; only the results
cross back, pickled once per worker. A process pool cost about as much to
start, import and feed as the work it saved on a batch of 121 tuples.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import prod
from typing import BinaryIO, Callable, NoReturn, Sequence

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
    run at once. With one worker, or where `os.fork` is missing, the loop
    runs in this process. The workers are forked, so `worker` and the tasks
    need not pickle; the results and the exceptions they raise must. A fork
    copies only the calling thread, so `worker` must take no lock that
    another thread of this process may hold; the atlas worker takes none.

    The tasks go in at most 256 chunks of ceil(n / 256) tasks each, and each
    chunk has a one-byte token, written into a pipe in one write before the
    first fork: 256 bytes are below `PIPE_BUF`, so the write is atomic and
    never blocks, and no worker holds the pipe's write end. Each worker reads
    tokens one byte at a time until the pipe is empty, so each chunk goes to
    exactly one worker, chunks are taken in increasing order, and a worker
    slowed by a long task takes fewer of them. A worker runs a chunk's tasks
    in order and stops at its first exception; it then empties the token
    pipe, so the other workers start no later chunk. At the end it pickles
    its outcomes into a pipe of its own, and exits 0 only if that succeeded.

    A task that raises aborts the batch with its exception. Every chunk
    before the one that failed was taken, and so has run, so the exception
    raised is the first in task order, as in the serial loop. A worker that
    dies (killed, out of memory, `os._exit`) or leaves an unreadable result
    raises `WorkerDied`. No worker outlives the call, on any path.
    """
    workers = min(jobs, len(tasks), _usable_cores())
    if workers <= 1 or not hasattr(os, "fork"):
        return [worker(t) for t in tasks]
    # Imported here, so that `import tightpoly` does not load them.
    import pickle
    import signal

    size = -(-len(tasks) // 256)
    tokens, feed = os.pipe()
    os.write(feed, bytes(range(-(-len(tasks) // size))))
    os.close(feed)
    readers = []  # the read end of each worker's result pipe
    children = {}  # pid -> reader, for each worker not yet reaped
    try:
        for _ in range(workers):
            r, w = os.pipe()
            readers.append(open(r, "rb"))
            with open(w, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    _work(tokens, out, tasks, size, worker)
                children[pid] = readers[-1]
        outcomes = {}
        for pid, reader in list(children.items()):
            try:
                outcomes.update(pickle.load(reader))
                intact = True
            except Exception:  # cut short by the worker's death, or not a pickle
                intact = False
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status or not intact:
                raise WorkerDied(f"one of {workers} worker processes ended abruptly, so the batch has no results")
        # Chunks are taken in increasing order, so the ones that ran are
        # 0, 1, ...; a chunk that never ran comes after one that failed.
        results = []
        for chunk in range(len(outcomes)):
            for ok, value in outcomes[chunk]:
                if not ok:
                    raise value
                results.append(value)
        return results
    finally:
        os.close(tokens)
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


def _work(tokens: int, out: BinaryIO, tasks: Sequence, size: int, worker: Callable) -> NoReturn:
    """The body of a forked worker of `run_batch`: run the chunk of each
    token read from `tokens`, write `{chunk: [(ok, result or exception),
    ...]}` to `out`, and exit, with status 0 only if all of that succeeded."""
    import pickle

    status = 1
    try:
        done = {}
        failed = False
        while not failed and (token := os.read(tokens, 1)):
            chunk = done[token[0]] = []
            for task in tasks[token[0] * size : (token[0] + 1) * size]:
                try:
                    chunk.append((True, worker(task)))
                except Exception as exc:
                    chunk.append((False, exc))
                    failed = True
                    break
        # The batch fails, and every chunk before this one was taken.
        while failed and os.read(tokens, 256):
            pass
        pickle.dump(done, out, pickle.HIGHEST_PROTOCOL)
        out.flush()
        status = 0
    finally:
        os._exit(status)
