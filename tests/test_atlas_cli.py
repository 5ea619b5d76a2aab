import json
import os
import threading
import time

import pytest

from tightpoly.atlas import (
    AtlasFormatError,
    admissible_tuples,
    entry_from_json_line,
    entry_from_verdict,
    load_atlas,
    write_jsonl_atomic,
)
from tightpoly.cli import EXIT_INTERNAL, main
from tightpoly.errors import (
    DiamondViolation,
    InvariantViolation,
    RelatorViolation,
    RouteDisagreement,
)
from tightpoly.families import verify_gamma_family
from tightpoly.poset import FacePoset
from tightpoly.words import gamma_tuple_presentation, parse_presentation, write_presentation


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
        path = tmp_path / "out.jsonl"
        plain = tmp_path / "plain.jsonl"
        write_jsonl_atomic(str(path), ["a"])
        plain.write_text("a\n")
        assert os.stat(path).st_mode == os.stat(plain).st_mode


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
        assert entries[0].source == "census"

    def test_check_gamma_file(self, capsys, tmp_path):
        path = tmp_path / "gamma.pres"
        assert main(["family", "--gamma", "3,6", "--out", str(path)]) == 0
        assert main(["check", "--presentation", str(path)]) == 0
        out = capsys.readouterr().out
        assert "string C-group" in out
        assert "tight (36 flags)" in out
        assert "orientable" in out
        assert "type {3,6}" in out

    def test_check_cube_not_tight(self, capsys, tmp_path):
        path = tmp_path / "cube.pres"
        assert main(["family", "--coxeter", "4,3", "--out", str(path)]) == 0
        assert main(["check", "--presentation", str(path)]) == 0
        assert "NOT tight (48 flags vs 24)" in capsys.readouterr().out

    def test_check_degenerate_witness(self, capsys, tmp_path):
        text = write_presentation(gamma_tuple_presentation((2, 2)))
        path = tmp_path / "degen.pres"
        path.write_text(text + "rel 0 2\n")
        assert main(["check", "--presentation", str(path)]) == 0
        assert "intersection condition FAILS at I={0}, J={2}" in capsys.readouterr().out

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
        "error", [RelatorViolation, DiamondViolation, InvariantViolation, RouteDisagreement]
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

    def test_check_missing_file(self):
        assert main(["check", "--presentation", "/nonexistent.pres"]) == 2

    def test_family_round_trip(self, tmp_path):
        path = tmp_path / "g.pres"
        assert main(["family", "--gamma", "3,6,4", "--out", str(path)]) == 0
        assert parse_presentation(path.read_text()) == gamma_tuple_presentation((3, 6, 4))

    def test_family_lambda_stdout(self, capsys):
        assert main(["family", "--lambda-k", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("gens 3\n")
        assert out.endswith("rel 0 1 2 1 0 1 2 1 2\n")

    def test_atlas_bounds_rejected(self, tmp_path):
        assert main(["atlas", "--max-flags", "3", "--max-rank", "3", "--out", "x"]) == 2
        assert main(["atlas", "--max-flags", "50", "--max-rank", "2", "--out", "x"]) == 2


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
