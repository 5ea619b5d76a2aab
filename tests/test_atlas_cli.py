import dataclasses
import functools
import hashlib
import json
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from paper_checks import verify_lambda_family
from tightpoly import cli, families, poset, sggi, toddcox
from tightpoly.atlas import (
    AtlasFormatError,
    admissible_tuples,
    entry_from_json_line,
    entry_from_verdict,
    load_atlas,
    run_batch,
    write_jsonl_atomic,
)
from tightpoly.cli import EXIT_INTERNAL, atlas_worker, main
from tightpoly.errors import (
    BudgetExceeded,
    CapExceeded,
    DiamondViolation,
    InvariantViolation,
    PreconditionViolated,
    RelatorViolation,
    RouteDisagreement,
    TightpolyError,
    WorkerDied,
)
from tightpoly.families import verify_gamma_family
from tightpoly.poset import FacePoset, NotEquivelar, build_poset, poset_checks
from tightpoly.toddcox import regular_rep
from tightpoly.words import Presentation, gamma_tuple_presentation, parse_presentation, write_presentation


# A key deleted from a line, in parametrized cases.
MISSING = object()


def writer_form(obj) -> str:
    """The one form every atlas writer has written: compact, keys sorted."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestAdmissibleTuples:
    def test_f100_r3(self):
        tuples = list(admissible_tuples(100, 3))
        assert (3, 6) in tuples
        assert (4, 4) in tuples
        assert (5, 10) in tuples
        assert (3, 4) not in tuples
        assert all(len(t) == 2 for t in tuples)
        assert all(2 * t[0] * t[1] <= 100 for t in tuples)
        assert tuples == sorted(tuples)

    def test_f4_is_empty(self):
        assert list(admissible_tuples(4, 5)) == []

    def test_f2000_r5_contains_rank5(self):
        tuples = list(admissible_tuples(2000, 5))
        assert (3, 6, 3, 6) in tuples
        assert max(len(t) for t in tuples) == 4

    def test_rank_bound(self):
        assert all(len(t) == 2 for t in admissible_tuples(400, 3))


class TestEntryFormat:
    def test_round_trip(self):
        entry = entry_from_verdict(verify_gamma_family((3, 6)))
        line = entry.to_json_line()
        assert entry_from_json_line(line) == entry
        obj = json.loads(line)
        assert obj["schema_version"] == 1
        assert obj["tuple"] == [3, 6]
        assert obj["ms"] == 0

    def test_rejects_bad_schema_version(self):
        entry = entry_from_verdict(verify_gamma_family((3, 6)))
        obj = json.loads(entry.to_json_line())
        obj["schema_version"] = 99
        with pytest.raises(AtlasFormatError):
            entry_from_json_line(json.dumps(obj))

    def test_rejects_missing_key(self):
        entry = entry_from_verdict(verify_gamma_family((3, 6)))
        obj = json.loads(entry.to_json_line())
        del obj["flag_count"]
        with pytest.raises(AtlasFormatError):
            entry_from_json_line(json.dumps(obj))

    def test_rejects_verified_flag_mismatch(self):
        entry = entry_from_verdict(verify_gamma_family((3, 6)))
        obj = json.loads(entry.to_json_line())
        obj["flag_count"] = 35
        with pytest.raises(AtlasFormatError):
            entry_from_json_line(json.dumps(obj))

    @pytest.mark.parametrize(
        "key,value",
        [("tuple", []), ("group_order", 0), ("group_order", -5), ("flag_count", -1), ("ms", -3)],
    )
    def test_rejects_empty_tuple_and_bad_counts(self, key, value, tmp_path):
        obj = json.loads(entry_from_verdict(verify_gamma_family((3, 6))).to_json_line())
        obj[key] = value
        with pytest.raises(AtlasFormatError, match="bad tuple|bad counts"):
            entry_from_json_line(json.dumps(obj))
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(AtlasFormatError, match=":1:"):
            load_atlas(str(path))

    @pytest.mark.parametrize(
        "family,key,value,match",
        [
            ("gamma", "source", "census", "source"),
            ("gamma", "source", 5, "source"),
            ("census", "source", "gamma", "source"),
            ("census", "source", None, "source"),
            ("census", "source", MISSING, "source"),
            ("gamma", "timings", {}, "unknown keys"),
            ("gamma", "claims", {}, "claims"),
            ("gamma", "tuple", [7], "verified entry"),
            ("census", "tuple", [3, 4], "verified entry"),
        ],
    )
    def test_rejects_what_no_writer_writes(self, family, key, value, match, tmp_path):
        entry = dataclasses.replace(entry_from_verdict(verify_gamma_family((3, 6))), family=family)
        obj = json.loads(entry.to_json_line())
        assert entry_from_json_line(writer_form(obj)) == entry
        if value is MISSING:
            del obj[key]
        else:
            obj[key] = value
        with pytest.raises(AtlasFormatError, match=match):
            entry_from_json_line(json.dumps(obj))
        path = tmp_path / "bad.jsonl"
        path.write_text(entry.to_json_line() + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(AtlasFormatError, match=":2: .*" + match):
            load_atlas(str(path))

    @pytest.mark.parametrize(
        "verdict,key,value,claim",
        [
            ("gamma", "tight", False, "tight"),
            ("gamma", "string_c_group", False, "string_c_group"),
            ("gamma", "orientable", False, "orientable"),
            ("lambda", "orientable", True, "non_orientable"),
        ],
    )
    def test_rejects_flags_that_contradict_their_claims(self, verdict, key, value, claim, tmp_path):
        # Every claim still passes, so only the flag check catches the edit.
        made = verify_gamma_family((3, 6)) if verdict == "gamma" else verify_lambda_family(3)
        obj = json.loads(entry_from_verdict(made).to_json_line())
        assert all(obj["claims"].values()) and obj[key] != value
        obj[key] = value
        with pytest.raises(AtlasFormatError, match=f"claim '{claim}'"):
            entry_from_json_line(json.dumps(obj))
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(AtlasFormatError, match=":1: claim"):
            load_atlas(str(path))

    def test_accepts_timings_of_older_versions(self):
        # Older versions wrote real timings; the README promises they load.
        entry = entry_from_verdict(verify_gamma_family((3, 6)))
        obj = json.loads(entry.to_json_line())
        obj["ms"] = 17
        assert entry_from_json_line(writer_form(obj)) == entry

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line: json.dumps(json.loads(line)),
            lambda line: json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":")),
            lambda line: line.replace('"tight":true,"tuple"', '"tight":false,"tuple"')[:-1]
            + ',"tight":true}',
            lambda line: line + "\r",
            lambda line: "",
        ],
        ids=["spaces", "unsorted-keys", "repeated-key", "trailing-cr", "blank-line"],
    )
    def test_rejects_lines_in_another_form(self, edit, tmp_path):
        # Each edited line but the blank one decodes to the writer's own
        # object (json keeps the last of a repeated key), yet no writer
        # writes it, so neither the line nor a file holding it loads.
        line = entry_from_verdict(verify_gamma_family((3, 6))).to_json_line()
        bad = edit(line)
        assert bad != line and (not bad or json.loads(bad) == json.loads(line))
        with pytest.raises(AtlasFormatError, match="writer's form|bad JSON"):
            entry_from_json_line(bad)
        path = tmp_path / "bad.jsonl"
        path.write_bytes(f"{line}\n{bad}\n{line}\n".encode())
        with pytest.raises(AtlasFormatError, match=":2: "):
            load_atlas(str(path))

    def test_failed_polytope_with_no_flags_round_trips(self):
        # The families write 0 flags for a poset that fails the axioms.
        entry = entry_from_verdict(verify_gamma_family((3, 6)))
        failed = dataclasses.replace(entry, flag_count=0, claims={**entry.claims, "polytope": False})
        assert entry_from_json_line(failed.to_json_line()) == failed

    def test_load_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        entry = entry_from_verdict(verify_gamma_family((3, 6)))
        path.write_text(entry.to_json_line() + "\n{\n")
        with pytest.raises(AtlasFormatError) as err:
            load_atlas(str(path))
        assert ":2:" in str(err.value)


class TestAtomicWrite:
    def test_failure_leaves_nothing(self, tmp_path):
        path = tmp_path / "out.jsonl"

        def lines():
            yield "first"
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            write_jsonl_atomic(str(path), lines())
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_existing_tmp_name_untouched(self, tmp_path):
        path = tmp_path / "out.jsonl"
        other = tmp_path / "out.jsonl.tmp"
        other.write_text("not ours\n")
        write_jsonl_atomic(str(path), ["a", "b"])
        assert path.read_text() == "a\nb\n"
        assert other.read_text() == "not ours\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl", "out.jsonl.tmp"]

    def test_two_threads_leave_one_complete_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        barrier = threading.Barrier(2)
        errors = []

        def lines(tag):
            for i in range(400):
                if i % 40 == 0:
                    time.sleep(0.001)  # let the other writer run mid-file
                yield f"{tag}{i}"

        def write(tag):
            barrier.wait()
            try:
                write_jsonl_atomic(str(path), lines(tag))
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(tag,)) for tag in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        complete = {"".join(f"{tag}{i}\n" for i in range(400)) for tag in "ab"}
        assert path.read_text() in complete
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_mode_matches_plain_open(self, tmp_path):
        # The umask in force when the file is written counts, not the one at
        # import: first the process umask, then 0o077 set after the import.
        old = os.umask(0)
        os.umask(old)
        for umask in (old, 0o077):
            path = tmp_path / f"out-{umask:o}.jsonl"
            plain = tmp_path / f"plain-{umask:o}.jsonl"
            os.umask(umask)
            try:
                write_jsonl_atomic(str(path), ["a"])
                plain.write_text("a\n")
            finally:
                os.umask(old)
            assert os.stat(path).st_mode == os.stat(plain).st_mode


def _square(x):
    return x * x


def _fail_from_three(x):
    if x >= 3:
        raise BudgetExceeded(x)
    return x


def _fail_at_40_and_112(x):
    # 40 fails last, 0.3 s after 112 has failed in another worker: a batch
    # that raised the first failure in time would raise 112's.
    if x == 40:
        time.sleep(0.3)
        raise BudgetExceeded(x)
    if x == 112:
        raise CapExceeded(x)
    return x


def _pid(x):
    return os.getpid()


def _square_and_pid(x):
    return x * x, os.getpid()


def _slow_first(x):
    if x == 0:
        time.sleep(0.3)
    return x, os.getpid()


def _logged_fail_at_three(x, *, log):
    with open(log, "a") as fh:
        fh.write(f"{x}\n")
    if x == 3:
        raise BudgetExceeded(x)
    time.sleep(0.01)
    return x


def _nap_at_zero(x):
    if x == 0:
        time.sleep(4)
    return x


def _die_at_one(x):
    # The worker forked first takes task 0 and holds it 50 ms, so the one
    # that dies is the second: read in fork order, its death showed only
    # after the first had run out the batch, about 2 s.
    if x == 0:
        time.sleep(0.05)
    if x == 1:
        os._exit(1)
    time.sleep(0.01)
    return x


def _exit_at_seven(x):
    if x == 7:
        os._exit(1)
    return x


def _dying_atlas_worker(entries, *, budget, blocks):
    if entries == (3, 6):
        os._exit(1)
    return atlas_worker(entries, budget=budget, blocks=blocks)


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores whatever the host has, so that `jobs` >= 2 starts
    worker processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def forks(monkeypatch):
    """Counts the real `os.fork` calls made in this process (`count`) and
    records the bytes it writes with `os.write` (`writes`). In `run_batch`
    only the chunk tokens go through `os.write`; the workers write their
    results through a file object."""
    calls = SimpleNamespace(count=0, writes=[])
    real_fork, real_write = os.fork, os.write

    def fork():
        calls.count += 1
        return real_fork()

    def write(fd, data):
        calls.writes.append(bytes(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "write", write)
    return calls


def no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunBatch:
    @pytest.mark.parametrize("jobs", [2, 9])
    def test_processes_match_serial_in_task_order(self, jobs, two_cores):
        tasks = [5, 3, 8, 1, 4, 2, 7]
        assert run_batch(tasks, _square, jobs=jobs) == run_batch(tasks, _square) == [x * x for x in tasks]
        no_child_left()

    def test_worker_error_matches_serial(self, two_cores):
        tasks = [1, 2, 3, 4]
        raised = []
        for jobs in (1, 2):
            with pytest.raises(BudgetExceeded) as info:
                run_batch(tasks, _fail_from_three, jobs=jobs)
            raised.append(info.value)
        assert [type(e) for e in raised] == [BudgetExceeded, BudgetExceeded]
        assert str(raised[0]) == str(raised[1]) == "coset enumeration exceeded budget of 3 cosets"
        assert raised[0].budget == raised[1].budget == 3
        no_child_left()

    @pytest.mark.parametrize(
        "jobs, tasks, cores, size",
        [
            (2, 10, 8, 2),
            (1000, 10, 8, 8),
            (1000, 3, 8, 3),
            (4, 10, 1, None),
            (1, 10, 8, None),
            (8, 1, 8, None),
            (8, 0, 8, None),
        ],
    )
    def test_workers_capped(self, jobs, tasks, cores, size, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        assert run_batch(list(range(tasks)), _square, jobs=jobs) == [x * x for x in range(tasks)]
        assert forks.count == (0 if size is None else size)

    @pytest.mark.parametrize("cpu_count, size", [(3, 3), (None, None)])
    def test_cap_without_affinity(self, cpu_count, size, monkeypatch, forks):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert run_batch(list(range(10)), _square, jobs=100) == [x * x for x in range(10)]
        assert forks.count == (0 if size is None else size)

    @pytest.mark.parametrize(
        "tasks, workers, chunk",
        [(121, 2, 1), (1026, 2, 5), (10, 2, 1), (3, 2, 1), (256, 2, 1), (257, 2, 2), (121, 4, 1), (874, 8, 4)],
    )
    def test_chunk_size_rule(self, tasks, workers, chunk, monkeypatch, forks):
        # At most 256 chunks of ceil(tasks / 256) tasks, one token byte each,
        # written at once; each chunk runs in one worker process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        results = run_batch(list(range(tasks)), _square_and_pid, jobs=workers)
        assert [square for square, _ in results] == [x * x for x in range(tasks)]
        assert (forks.count, forks.writes) == (workers, [bytes(range(-(-tasks // chunk)))])
        pids = [pid for _, pid in results]
        assert os.getpid() not in pids
        assert all(len(set(pids[i : i + chunk])) == 1 for i in range(0, tasks, chunk))

    def test_chunks_in_processes_match_serial(self, two_cores):
        # The worker that takes task 0 sleeps, and the other one takes the
        # remaining tokens meanwhile; the results come back in task order.
        results = run_batch(list(range(10)), _slow_first, jobs=2)
        assert [x for x, _ in results] == list(range(10))
        pids = {pid for _, pid in results}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_serial_without_fork(self, two_cores, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert run_batch(list(range(5)), _pid, jobs=2) == [os.getpid()] * 5

    def test_first_failure_in_task_order_across_chunks(self, two_cores):
        tasks = list(range(200))
        raised = []
        for jobs in (1, 2):
            with pytest.raises(TightpolyError) as info:
                run_batch(tasks, _fail_at_40_and_112, jobs=jobs)
            raised.append(info.value)
        assert [type(e) for e in raised] == [BudgetExceeded, BudgetExceeded]
        assert str(raised[0]) == str(raised[1]) == "coset enumeration exceeded budget of 40 cosets"

    def test_failure_leaves_no_later_chunk_to_run(self, two_cores, tmp_path):
        # The worker whose task fails drains the tokens, so the other one
        # stops after its chunk in hand instead of running the batch out.
        log = tmp_path / "tasks.log"
        with pytest.raises(BudgetExceeded):
            run_batch(list(range(200)), functools.partial(_logged_fail_at_three, log=log), jobs=2)
        assert len(log.read_text().split()) < 50

    def test_dead_worker_raises_worker_died(self, two_cores):
        with pytest.raises(WorkerDied) as info:
            run_batch(list(range(20)), _exit_at_seven, jobs=2)
        assert str(info.value) == "one of 2 worker processes ended abruptly, so the batch has no results"
        no_child_left()

    def test_no_worker_left_after_an_exception_mid_read(self, two_cores, monkeypatch):
        # The worker without task 0 finishes at once, and the read of its
        # result raises while the other still has a 4 s nap ahead: that one
        # is killed, not waited for.
        def interrupted(file):
            raise KeyboardInterrupt

        monkeypatch.setattr(pickle, "load", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_batch(list(range(40)), _nap_at_zero, jobs=2)
        assert time.monotonic() - start < 2
        no_child_left()

    def test_dead_worker_noticed_at_once(self, two_cores):
        # The live worker has 2 s of the batch ahead; the result pipes are
        # read as they become ready, so the dead one is seen first.
        start = time.monotonic()
        with pytest.raises(WorkerDied):
            run_batch(list(range(200)), _die_at_one, jobs=2)
        assert time.monotonic() - start < 0.5
        no_child_left()

    def test_atlas_worker_pickles(self):
        # Results cross back from a worker process as pickles: one entry
        # for a palindrome, two for a tuple that is not.
        worker = functools.partial(atlas_worker, budget=None, blocks={})
        back = pickle.loads(pickle.dumps(worker))
        own = [entry_from_verdict(verify_gamma_family(t)) for t in [(3, 6), (6, 3), (4, 4)]]
        assert pickle.loads(pickle.dumps(back((3, 6)))) == own[:2]
        assert pickle.loads(pickle.dumps(back((4, 4)))) == own[2:]


def run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter that imports this tree's tightpoly."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True
    )


class TestImports:
    def test_parallel_atlas_loads_no_executor(self, tmp_path):
        # Two usable cores whatever the host has, so the batch forks; it
        # loads pickle for the results, and neither executor module.
        script = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from tightpoly import cli\n"
            "argv = ['atlas', '--max-flags', '100', '--max-rank', '4', '--out', sys.argv[1], '--jobs', '2']\n"
            "code = cli.main(argv)\n"
            "names = ('pickle', 'concurrent.futures', 'multiprocessing')\n"
            "print(code, [name for name in names if name in sys.modules])\n"
        )
        out = tmp_path / "a.jsonl"
        assert run_python(script, str(out)).stdout == f"wrote 121 entries to {out}\n0 ['pickle']\n"

    def test_import_loads_no_pickle(self):
        script = "import sys, tightpoly, tightpoly.cli\nprint('pickle' in sys.modules)\n"
        assert run_python(script).stdout == "False\n"


def no_batch(*args, **kwargs):
    raise AssertionError("run_batch called")


def no_census(*args, **kwargs):
    raise AssertionError("classify_tight called")


def no_work(*args, **kwargs):
    raise AssertionError("work started")


class TestCli:
    def test_verify_pass(self, capsys):
        assert main(["verify", "--tuple", "3,6"]) == 0
        out = capsys.readouterr().out
        assert "order 36 = 2·3·6" in out

    def test_verify_not_admissible(self, capsys):
        assert main(["verify", "--tuple", "3,4"]) == 2
        assert "p2=4 is not an even divisor of 2p1=6" in capsys.readouterr().err

    def test_verify_budget_exit(self, capsys):
        assert main(["verify", "--tuple", "5,10,5", "--budget", "20"]) == 3

    def test_verify_product_above_budget_exits_resource(self, capsys, monkeypatch):
        # Each block {1000} fits the default budget with its 2000 points; their
        # product of 4,000,000 does not, and no column of it is built.
        monkeypatch.setattr(families, "_product", no_work)
        assert main(["verify", "--tuple", "1000,2,1000"]) == 3
        assert capsys.readouterr() == (
            "",
            "resource limit: coset enumeration exceeded budget of 100000 cosets (the group has order 4000000)\n",
        )

    def test_verify_bad_tuple(self):
        assert main(["verify", "--tuple", "3,x"]) == 2
        assert main(["verify", "--tuple", "1,4"]) == 2

    def test_classify_reports_gamma(self, capsys):
        assert main(["classify", "--type", "3,6", "--orientable"]) == 0
        out = capsys.readouterr().out
        assert "1 tight record(s)" in out
        assert "≅ Γ(3, 6)" in out

    def test_classify_empty(self, capsys):
        assert main(["classify", "--type", "3,4", "--orientable"]) == 0
        assert "0 tight record(s)" in capsys.readouterr().out

    def test_classify_lambda(self, capsys):
        assert main(["classify", "--type", "3,4", "--non-orientable"]) == 0
        out = capsys.readouterr().out
        assert "1 tight record(s)" in out
        assert "≅ Λ(1)" in out

    def test_classify_census_file(self, capsys, tmp_path):
        path = tmp_path / "census.jsonl"
        assert main(["classify", "--type", "3,6", "--orientable", "--out", str(path)]) == 0
        entries = load_atlas(str(path))
        assert len(entries) == 1
        assert entries[0].family == "census"
        assert '"source":"census"' in path.read_text()

    def test_classify_rank4(self, capsys):
        assert main(["classify", "--type", "3,6,3", "--orientable"]) == 0
        assert capsys.readouterr().out == (
            "type {3,6,3} (orientable): 1 tight record(s)\n"
            "  record 1: order 108, orientable, ≅ Γ(3, 6, 3)\n"
        )

    def test_classify_one_entry_is_bad_input(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "classify_tight", no_census)
        assert main(["classify", "--type", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --type needs at least two entries, got '4'\n"

    def test_classify_rank4_index_above_cap(self, capsys):
        assert main(["classify", "--type", "4,6,4", "--orientable"]) == 3
        err = capsys.readouterr().err
        assert err == "resource limit: index 192 is above the index cap of 128\n"

    @pytest.mark.parametrize(
        "argv, work, err",
        [
            (["verify", "--tuple", "3,x"], "verify_gamma_family",
             "error: --tuple must be comma-separated integers, got '3,x'\n"),
            (["classify", "--type", "1,4"], "classify_tight",
             "error: --type entries must be integers >= 2, got '1,4'\n"),
            (["family", "--gamma", "3,,6"], "gamma_tuple_presentation",
             "error: --gamma must be comma-separated integers, got '3,,6'\n"),
            (["family", "--coxeter", "4,1"], "coxeter_presentation",
             "error: --coxeter entries must be integers >= 2, got '4,1'\n"),
            # int() takes `_`, a sign, spaces and non-ASCII digits; the
            # options do not, so `3_0,6` is not the tuple {30,6}.
            (["verify", "--tuple", "3_0,6"], "verify_gamma_family",
             "error: --tuple must be comma-separated integers, got '3_0,6'\n"),
            (["classify", "--type", "+3,6"], "classify_tight",
             "error: --type must be comma-separated integers, got '+3,6'\n"),
            (["family", "--gamma", "\u0663,6"], "gamma_tuple_presentation",
             "error: --gamma must be comma-separated integers, got '\u0663,6'\n"),
            (["family", "--coxeter", "3, 3"], "coxeter_presentation",
             "error: --coxeter must be comma-separated integers, got '3, 3'\n"),
        ],
        ids=["tuple", "type", "gamma", "coxeter", "underscore", "sign", "non-ascii", "space"],
    )
    def test_bad_tuple_names_its_option(self, capsys, monkeypatch, argv, work, err):
        monkeypatch.setattr(cli, work, no_work)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "argv, work, option, value",
        [
            (["verify", "--tuple", "3,6", "--budget", "1_000"], "verify_gamma_family", "--budget", "1_000"),
            (["family", "--lambda-k", "\u0663"], "lambda_k_presentation", "--lambda-k", "\u0663"),
            (["atlas", "--max-flags", " 100", "--max-rank", "+4", "--jobs", "\u0661", "--out", "{dir}/a.jsonl"],
             "run_batch", "--max-flags", " 100"),
            (["atlas", "--max-flags", "100", "--max-rank", "+4", "--out", "{dir}/a.jsonl"],
             "run_batch", "--max-rank", "+4"),
            (["atlas", "--max-flags", "100", "--max-rank", "4", "--jobs", "\u0661", "--out", "{dir}/a.jsonl"],
             "run_batch", "--jobs", "\u0661"),
            (["classify", "--type", "3,4", "--index-cap", "1_28"], "classify_tight", "--index-cap", "1_28"),
            (["check", "--presentation", "{dir}/g.pres", "--budget", "-"], "regular_rep", "--budget", "-"),
        ],
        ids=["budget-underscore", "lambda-k-non-ascii", "max-flags-space", "max-rank-sign", "jobs-non-ascii",
             "index-cap-underscore", "budget-bare-minus"],
    )
    def test_integer_option_not_a_plain_decimal(self, argv, work, option, value, tmp_path, capsys, monkeypatch):
        # int() takes `_`, a sign, spaces and non-ASCII digits; the integer
        # options take ASCII digits after an optional `-` only. argparse
        # rejects the rest: exit 2, nothing on stdout, no work, no traceback.
        monkeypatch.setattr(cli, work, no_work)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(dir=tmp_path) for arg in argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"tightpoly {argv[0]}: error: argument {option}: "
            f"must be ASCII digits after an optional '-', got {value!r}"
        )
        assert list(tmp_path.iterdir()) == []

    # The check tests pin the whole report, one for each way `check` ends.
    def test_check_gamma_file(self, capsys, tmp_path):
        path = tmp_path / "gamma.pres"
        assert main(["family", "--gamma", "3,6", "--out", str(path)]) == 0
        assert main(["check", "--presentation", str(path)]) == 0
        assert capsys.readouterr().out == (
            "group order 36, rank 3\nsggi\nstring C-group\norientable\ntype {3,6}\n"
            "polytope axioms pass\ntight (36 flags)\n"
        )

    def test_check_cube_not_tight(self, capsys, tmp_path):
        path = tmp_path / "cube.pres"
        assert main(["family", "--coxeter", "4,3", "--out", str(path)]) == 0
        assert main(["check", "--presentation", str(path)]) == 0
        assert capsys.readouterr().out == (
            "group order 48, rank 3\nsggi\nstring C-group\norientable\ntype {4,3}\n"
            "polytope axioms pass\nNOT tight (48 flags vs 24)\n"
        )

    def test_check_degenerate_witness(self, capsys, tmp_path):
        text = write_presentation(gamma_tuple_presentation((2, 2)))
        path = tmp_path / "degen.pres"
        path.write_text(text + "rel 0 2\n")
        assert main(["check", "--presentation", str(path)]) == 0
        assert capsys.readouterr().out == (
            "group order 4, rank 3\nsggi\nintersection condition FAILS at I={0}, J={2}\n"
            "orientable\ntype {2,2}\n"
            "NOT a polytope: section (1, 0)/(-1, 0) has 1 middle faces, expected 2\n"
        )

    def test_check_stdout_not_equivelar(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "g.pres"
        assert main(["family", "--gamma", "3,6", "--out", str(path)]) == 0
        monkeypatch.setattr(
            FacePoset, "combinatorial_schlafli", lambda self: NotEquivelar(position=2, sizes=(6, 4))
        )
        assert main(["check", "--presentation", str(path)]) == 0
        assert capsys.readouterr().out == (
            "group order 36, rank 3\nsggi\nstring C-group\norientable\ntype {3,6}\n"
            "polytope axioms pass\nnot equivelar at slot 2: sizes (6, 4)\n"
        )

    @pytest.mark.parametrize(
        "head, numeral", [(True, "+3"), (True, "03"), (False, "0_0"), (False, "\u0660")]
    )
    def test_check_non_canonical_numeral_is_bad_input(
        self, head, numeral, capsys, tmp_path, monkeypatch
    ):
        # A presentation file holds numerals only as write_presentation
        # writes them, in the `gens` line or in an appended relator.
        path = tmp_path / "c33.pres"
        assert main(["family", "--coxeter", "3,3", "--out", str(path)]) == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        if head:
            lines[0] = f"gens {numeral}"
        else:
            lines.append(f"rel {numeral} 1")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setattr(cli, "regular_rep", no_work)
        capsys.readouterr()
        assert main(["check", "--presentation", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: line {1 if head else len(lines)}: ")
        assert err.count("\n") == 1

    def test_check_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.pres"
        path.write_text("gens 2\nrel 0 5\n")
        assert main(["check", "--presentation", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_check_budget_exit(self, tmp_path):
        path = tmp_path / "big.pres"
        assert main(["family", "--gamma", "5,10,5", "--out", str(path)]) == 0
        assert main(["check", "--presentation", str(path), "--budget", "10"]) == 3

    @pytest.mark.parametrize(
        "error",
        [RelatorViolation, DiamondViolation, InvariantViolation, RouteDisagreement, PreconditionViolated],
    )
    @pytest.mark.parametrize("command", ["verify", "atlas", "check"])
    def test_internal_error_exit(self, error, command, monkeypatch, capsys, tmp_path):
        path = tmp_path / "gamma.pres"
        assert main(["family", "--gamma", "3,6", "--out", str(path)]) == 0
        argv = {
            "verify": ["verify", "--tuple", "3,6"],
            "atlas": ["atlas", "--max-flags", "40", "--max-rank", "3", "--out", str(tmp_path / "a.jsonl")],
            "check": ["check", "--presentation", str(path)],
        }[command]

        def broken(self):
            raise error("planted inconsistency")

        monkeypatch.setattr(FacePoset, "verify_polytope", broken)
        assert main(argv) == EXIT_INTERNAL == 4
        assert "internal error: planted inconsistency" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"gens 2\nrel 0 0\n", "lacks involution relators for generators [1]"),
            (b"gens 2\nrel 0 0\nrel 1 1\n\xff\n", "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["no-involution-relator", "not-utf-8"],
    )
    def test_check_bad_file_is_bad_input(self, content, message, tmp_path, capsys, monkeypatch):
        # Both raise a ValueError, caught at the edge: bad input, not an
        # internal error, and no enumeration starts.
        monkeypatch.setattr(cli, "regular_rep", no_work)
        path = tmp_path / "bad.pres"
        path.write_bytes(content)
        assert main(["check", "--presentation", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: ") and message in err
        assert err.count("\n") == 1

    def test_value_error_inside_a_run_is_internal(self, capsys, monkeypatch):
        # A ValueError that escapes from inside a run is a bug (exit 4), not
        # bad input: every bad input is rejected at the edge before it.
        def broken(*args, **kwargs):
            raise ValueError("planted inconsistency")

        monkeypatch.setattr(cli, "verify_gamma_family", broken)
        assert main(["verify", "--tuple", "3,6"]) == EXIT_INTERNAL
        assert capsys.readouterr() == ("", "internal error: planted inconsistency\n")

    def test_check_missing_file(self):
        assert main(["check", "--presentation", "/nonexistent.pres"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--presentation", "{dir}"],
            ["atlas", "--max-flags", "12", "--max-rank", "3", "--out", "{dir}"],
            ["family", "--gamma", "3,6", "--out", "{dir}"],
            ["classify", "--type", "3,6", "--orientable", "--out", "{dir}"],
        ],
    )
    def test_directory_path_is_bad_input(self, tmp_path, capsys, argv, monkeypatch):
        # A directory where a file is read or written is bad input (exit 2,
        # one line on stderr, naming the path), not a failed claim. An atlas
        # rejects it before it runs the batch, a census before it searches.
        monkeypatch.setattr(cli, "run_batch", no_batch)
        monkeypatch.setattr(cli, "classify_tight", no_census)
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Is a directory" in err
        assert str(tmp_path) in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_atlas_out_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        # Also for classify, whose --out is checked before the census.
        monkeypatch.setattr(cli, "run_batch", no_batch)
        monkeypatch.setattr(cli, "classify_tight", no_census)
        out = tmp_path / "missing" / "a.jsonl"
        for argv in (
            ["atlas", "--max-flags", "12", "--max-rank", "3"],
            ["classify", "--type", "3,6", "--orientable"],
        ):
            assert main(argv + ["--out", str(out)]) == 2
            assert capsys.readouterr() == ("", f"error: --out {out}: its directory does not exist\n")
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["", "{dir}/none/"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["atlas", "--max-flags", "12", "--max-rank", "3"],
            ["classify", "--type", "3,6", "--orientable"],
            ["family", "--gamma", "3,6"],
        ],
    )
    def test_out_that_names_no_file(self, out, argv, tmp_path, capsys, monkeypatch):
        # An empty path, or one ending in a separator, is bad input before any
        # work: no batch, no census, no presentation on stdout, no file.
        monkeypatch.setattr(cli, "run_batch", no_batch)
        monkeypatch.setattr(cli, "classify_tight", no_census)
        monkeypatch.chdir(tmp_path)
        out = out.format(dir=tmp_path)
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr() == ("", f"error: --out {out!r} names no file\n")
        assert list(tmp_path.iterdir()) == []
        assert list(tmp_path.parent.glob("*.tmp")) == []

    def test_family_out_bytes_equal_stdout(self, tmp_path, capsys):
        path = tmp_path / "g.pres"
        assert main(["family", "--gamma", "3,6"]) == 0
        assert main(["family", "--gamma", "3,6", "--out", str(path)]) == 0
        assert path.read_bytes() == capsys.readouterr().out.encode()

    def test_family_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # family --out writes through the atlas's atomic writer: a write that
        # fails at the rename leaves neither the file nor its temp file.
        def refuse(src, dst):
            raise OSError(f"refused: {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        path = tmp_path / "g.pres"
        assert main(["family", "--gamma", "3,6", "--out", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: refused: {path}\n")
        assert list(tmp_path.iterdir()) == []

    def test_family_round_trip(self, tmp_path):
        path = tmp_path / "g.pres"
        assert main(["family", "--gamma", "3,6,4", "--out", str(path)]) == 0
        assert parse_presentation(path.read_text()) == gamma_tuple_presentation((3, 6, 4))

    def test_family_gamma_adjacent_odd_pair(self, capsys):
        assert main(["family", "--gamma", "3,3"]) == 2
        assert "entries 1 and 2 are both odd" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_classify_index_cap_below_one_rejected(self, cap, capsys, monkeypatch):
        # Checked at the edge, next to --budget, so no search starts.
        for name in ("classify_tight", "census_nonorientable"):
            monkeypatch.setattr(cli, name, no_work)
        for mode in ([], ["--orientable"], ["--non-orientable"]):
            assert main(["classify", "--type", "3,4", "--index-cap", cap] + mode) == 2
            assert capsys.readouterr() == ("", f"error: --index-cap must be >= 1, got {cap}\n")

    def test_classify_index_above_cap(self, capsys):
        assert main(["classify", "--type", "10,7"]) == 3
        err = capsys.readouterr().err
        assert err == "resource limit: index 140 is above the index cap of 128\n"

    def test_family_lambda_stdout(self, capsys):
        assert main(["family", "--lambda-k", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("gens 3\n")
        assert out.endswith("rel 0 1 2 1 0 1 2 1 2\n")

    def test_atlas_bounds_rejected(self, tmp_path):
        assert main(["atlas", "--max-flags", "3", "--max-rank", "3", "--out", "x"]) == 2
        assert main(["atlas", "--max-flags", "50", "--max-rank", "2", "--out", "x"]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_atlas_jobs_below_one_rejected(self, jobs, capsys, tmp_path):
        out = tmp_path / "a.jsonl"
        assert main(["atlas", "--max-flags", "40", "--max-rank", "3", "--out", str(out), "--jobs", jobs]) == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--tuple", "3,6"],
            ["atlas", "--max-flags", "12", "--max-rank", "3", "--out", "{dir}/a.jsonl"],
            ["classify", "--type", "3,3"],
            ["classify", "--type", "4,8", "--orientable"],
            ["check", "--presentation", "{dir}/g.pres"],
        ],
        ids=["verify", "atlas", "classify-3,3", "classify-4,8-orientable", "check"],
    )
    def test_budget_below_one_rejected(self, argv, budget, tmp_path, capsys, monkeypatch):
        # Checked at the edge, before any work, also where no enumeration
        # would run ({3,3} has no family certificate to enumerate).
        pres = tmp_path / "g.pres"
        pres.write_text(write_presentation(gamma_tuple_presentation((3, 6))))
        for name in ("verify_gamma_family", "run_batch", "classify_tight", "regular_rep"):
            monkeypatch.setattr(cli, name, no_work)
        assert main([arg.format(dir=tmp_path) for arg in argv] + ["--budget", budget]) == 2
        assert capsys.readouterr() == ("", f"error: --budget must be >= 1, got {budget}\n")
        assert list(tmp_path.iterdir()) == [pres]

    def test_atlas_budget_exit_same_at_any_jobs(self, capsys, tmp_path, two_cores):
        # At budget 60 the first tuples fit: the line names the one that ran out.
        # The budget bounds each enumeration, a block's too, and the product of
        # the blocks: {2,2} is three C2 blocks, of order 8, and {2,2,8} has order 64.
        errs = {}
        for budget in ("5", "60"):
            for jobs in ("1", "2"):
                out = tmp_path / f"jobs{jobs}.jsonl"
                argv = ["atlas", "--max-flags", "100", "--max-rank", "4", "--budget", budget, "--out", str(out), "--jobs", jobs]
                assert main(argv) == 3
                assert not out.exists()
                errs[budget, jobs] = capsys.readouterr().err
        assert errs["5", "1"] == errs["5", "2"] == (
            "resource limit: tuple {2,2}: coset enumeration exceeded budget of 5 cosets (the group has order 8)\n"
        )
        assert errs["60", "1"] == errs["60", "2"] == (
            "resource limit: tuple {2,2,8}: coset enumeration exceeded budget of 60 cosets (the group has order 64)\n"
        )

    def test_atlas_dead_worker_exits_internal(self, capsys, tmp_path, monkeypatch, two_cores):
        # A worker process that dies mid-batch is an internal error: one
        # stderr line, nothing on stdout, no traceback and no --out file.
        monkeypatch.setattr(cli, "atlas_worker", _dying_atlas_worker)
        out = tmp_path / "a.jsonl"
        argv = ["atlas", "--max-flags", "40", "--max-rank", "3", "--out", str(out), "--jobs", "2"]
        assert main(argv) == EXIT_INTERNAL
        assert capsys.readouterr() == (
            "",
            "internal error: one of 2 worker processes ended abruptly, so the batch has no results\n",
        )
        assert list(tmp_path.iterdir()) == []


class TestAtlasDeterminism:
    def test_repeat_runs_and_jobs_byte_identical(self, tmp_path):
        paths = [tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl")]
        assert main(["atlas", "--max-flags", "64", "--max-rank", "4", "--out", str(paths[0])]) == 0
        assert main(["atlas", "--max-flags", "64", "--max-rank", "4", "--out", str(paths[1])]) == 0
        assert main(["atlas", "--max-flags", "64", "--max-rank", "4", "--out", str(paths[2]), "--jobs", "3"]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]
        entries = load_atlas(str(paths[0]))
        assert all(all(e.claims.values()) for e in entries)


def blocks_of(t):
    """The entries of each block of `t`, cut at its entries 2; () is a lone
    generator."""
    cuts = [-1] + [i for i, p in enumerate(t) if p == 2] + [len(t)]
    return [t[a + 1 : b] for a, b in zip(cuts, cuts[1:])]


def mirror_pairs(max_flags, max_rank, length=None):
    """The lesser tuple of each mirror pair of the atlas, in its order."""
    return [
        t for t in admissible_tuples(max_flags, max_rank) if t < t[::-1] and length in (None, len(t))
    ]


class TestMirrorPairs:
    @pytest.mark.parametrize(
        "max_flags, max_rank, length, pairs, step",
        [(100, 4, None, 52, 1), (500, 4, None, 469, 8), (600, 7, 6, 74, 5)],
    )
    def test_derived_line_equals_its_own_enumeration(self, max_flags, max_rank, length, pairs, step):
        # The rank-7 case takes the tuples of length 6 with 2 * prod <= 600.
        lesser = mirror_pairs(max_flags, max_rank, length)
        assert len(lesser) == pairs
        for t in lesser[::step]:
            own, derived = atlas_worker(t, budget=None, blocks={})
            assert own.to_json_line() == entry_from_verdict(verify_gamma_family(t)).to_json_line()
            assert derived.to_json_line() == entry_from_verdict(verify_gamma_family(t[::-1])).to_json_line()

    def test_one_enumeration_per_pair(self, monkeypatch, tmp_path):
        # At most one rep per pair: the one certificate of a tuple's block
        # product, or the enumeration of a tuple with no entry 2 unless an
        # earlier task of the batch enumerated it as a block. Each distinct
        # block presentation of the batch is enumerated once.
        tuples, enumerated, certified = [], [], []
        real_gamma, real_rep, real_perm = families._gamma_rep, families.regular_rep, families.perm_rep

        def gamma(sym, max_cosets, blocks):
            tuples.append(tuple(sym))
            return real_gamma(sym, max_cosets, blocks)

        def counted(pres, max_cosets=None):
            enumerated.append((len(tuples) - 1, pres))
            return real_rep(pres, max_cosets)

        def certify(table):
            certified.append((len(tuples) - 1, table.pres))
            return real_perm(table)

        monkeypatch.setattr(families, "_gamma_rep", gamma)
        monkeypatch.setattr(families, "regular_rep", counted)
        monkeypatch.setattr(families, "perm_rep", certify)
        out = tmp_path / "a.jsonl"
        assert main(["atlas", "--max-flags", "100", "--max-rank", "4", "--out", str(out), "--jobs", "1"]) == 0
        assert len(tuples) == 69 == 121 - len(mirror_pairs(100, 4))
        products = [i for i, t in enumerate(tuples) if 2 in t]
        assert certified == [(i, gamma_tuple_presentation(tuples[i])) for i in products]
        distinct = {gamma_tuple_presentation(b) for t in tuples for b in blocks_of(t) if b}
        # 34 enumerations in all, where 77 made every block afresh: 6 whole
        # tuples (of the 9 with no entry 2) and 28 blocks.
        pres = [p for _, p in enumerated]
        assert len(pres) == len(set(pres)) == 34
        assert set(pres) == distinct
        whole = [i for i, p in enumerated if p == gamma_tuple_presentation(tuples[i])]
        assert len(whole) == 6 and not set(whole) & set(products)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "798a2dd41d0d44ee2947e023be8726deb6f6607ab974feeabed6cb4392c25a97"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_tampered_mirror_exits_internal(self, jobs, capsys, tmp_path, monkeypatch, two_cores):
        # {6,3} gets a relator more than the mirror of {3,6}: the mirror
        # check refuses to derive its verdict, an internal error.
        real = families.gamma_tuple_presentation

        def tampered(sym):
            pres = real(sym)
            if tuple(sym) == (6, 3):
                return Presentation(pres.ngens, pres.relators + ((0, 1) * 3,))
            return pres

        monkeypatch.setattr(families, "gamma_tuple_presentation", tampered)
        out = tmp_path / "a.jsonl"
        argv = ["atlas", "--max-flags", "40", "--max-rank", "3", "--out", str(out), "--jobs", jobs]
        assert main(argv) == EXIT_INTERNAL
        assert capsys.readouterr() == (
            "",
            "internal error: the reversed tuple's relators are not the mirrored relators of the tuple\n",
        )
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(InvariantViolation):
            families.verify_gamma_pair((3, 6), blocks={})


class TestBatchWork:
    def test_each_block_once_per_batch(self, monkeypatch, tmp_path):
        # The batch of atlas 100/4 at --jobs 1: its 34 distinct block
        # presentations are each enumerated once, with 60 product
        # certificates beside their 34; each block, C2 included, is profiled
        # once, built into a poset once and checked once, and a product's
        # and a mirror's poset checks are read off those, with no build and
        # no check. Made afresh in each task, these were 77, 137, 259 and
        # 259; with each block's reversed columns built once more,
        # `build_poset` was 69. With the product's poset read off the
        # blocks' posets and the mirror's as its tuple's dual, every one of
        # the 121 verdicts ran `poset_checks` and `verify_polytope`. Only
        # the 60 tuples of two or more blocks and the 52 mirrors take the
        # product route: a one-block tuple sent down it would read 121
        # `product_profile` calls. The batch runs twice in one process with
        # equal counts, so block data that outlived a batch would show.
        work = {}

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                work[name] = work.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(toddcox, "_hlt")
        count(toddcox, "_certify_regular")
        count(sggi, "profile")
        count(poset, "build_poset")
        count(sggi, "product_profile")
        count(poset, "poset_checks")
        count(poset.FacePoset, "verify_polytope")
        runs = []
        for name in ("a.jsonl", "b.jsonl"):
            work.clear()
            argv = ["atlas", "--max-flags", "100", "--max-rank", "4", "--out", str(tmp_path / name), "--jobs", "1"]
            assert main(argv) == 0
            runs.append(dict(work))
        assert runs == [
            {
                "_hlt": 34,
                "_certify_regular": 94,
                "profile": 35,
                "build_poset": 35,
                "product_profile": 112,
                "poset_checks": 35,
                "verify_polytope": 35,
            }
        ] * 2
        assert runs[0]["poset_checks"] == runs[0]["build_poset"]
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def direct_line(t):
    """The atlas line of a tuple from the enumeration of its whole
    presentation, with the whole rep's own profile and poset checks."""
    pres = gamma_tuple_presentation(t)
    rep = regular_rep(pres)
    verdict = families._verdict("gamma", t, pres, sggi.profile(rep), poset_checks(build_poset(rep)), True)
    return entry_from_verdict(verdict).to_json_line()


class TestBlockProducts:
    @pytest.mark.parametrize(
        "max_flags, max_rank, length, products, step",
        [(100, 4, None, 105, 1), (500, 4, None, 805, 8), (600, 7, 6, 154, 5)],
    )
    def test_product_equals_the_whole_enumeration(self, max_flags, max_rank, length, products, step):
        # The rank-7 case takes the tuples of length 6 with 2 * prod <= 600.
        tuples = [t for t in admissible_tuples(max_flags, max_rank) if 2 in t and length in (None, len(t))]
        assert len(tuples) == products
        for t in tuples[::step]:
            _, pres, rep, _, _ = families._gamma_rep(t, None, {})
            assert rep.degree == regular_rep(pres).degree
            assert entry_from_verdict(verify_gamma_family(t)).to_json_line() == direct_line(t)

    def test_three_c2_blocks_enumerate_nothing(self, monkeypatch):
        monkeypatch.setattr(families, "regular_rep", no_work)
        verdict = verify_gamma_family((2, 2))
        assert verdict.group_order == verdict.flag_count == 8
        assert verdict.passed, verdict.claims

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_tampered_block_exits_internal(self, jobs, capsys, tmp_path, monkeypatch, two_cores):
        # The block {4} of {2,4} gets the columns of {3}: involutive and
        # regular, but (x1 x2)^4 of the whole presentation fails at coset 0.
        real = families.regular_rep

        def tampered(pres, max_cosets=None):
            if pres == gamma_tuple_presentation((4,)):
                pres = gamma_tuple_presentation((3,))
            return real(pres, max_cosets)

        monkeypatch.setattr(families, "regular_rep", tampered)
        with pytest.raises(RelatorViolation):
            verify_gamma_family((2, 4))
        out = tmp_path / "a.jsonl"
        argv = ["atlas", "--max-flags", "40", "--max-rank", "3", "--out", str(out), "--jobs", jobs]
        assert main(argv) == EXIT_INTERNAL
        assert capsys.readouterr() == (
            "",
            "internal error: relator (1, 2, 1, 2, 1, 2, 1, 2) does not close at coset 0\n",
        )
        assert list(tmp_path.iterdir()) == []
