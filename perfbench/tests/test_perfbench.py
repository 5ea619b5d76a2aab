"""Tests of the benchmark itself (not of tightpoly).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import tightpoly  # noqa: E402
from tightpoly import toddcox  # noqa: E402

# Self times must add up to the traced wall time within this slack: the
# only time outside every span is between the pass's clock reads and its
# root span's.
SELF_TIME_SLACK = 0.005


def subset(name: str, n: int):
    """The workload restricted to its first n items."""
    wl = workloads.build(name)
    return dataclasses.replace(wl, items=wl.items[:n])


def traced_pass(wl, seed: int):
    tracer = Tracer(run.trace_targets())
    tracer.install()
    try:
        (p,) = run.run_passes(wl, workloads.load_goldens()[wl.name], random.Random(seed), 0, tracer)
    finally:
        tracer.uninstall()
    return p, tracer


@pytest.fixture(scope="module")
def census_outputs():
    wl = workloads.build("census")
    return wl, [wl.run_item(item) for item in wl.items]


def test_goldens_pass_untampered(census_outputs):
    wl, outputs = census_outputs
    assert workloads.check_pass(wl, outputs, workloads.load_goldens()["census"]) == ([], True)


def test_tampered_line_trips_the_gate(census_outputs):
    wl, outputs = census_outputs
    victim = next(i for i, text in enumerate(outputs) if text)
    tampered = list(outputs)
    tampered[victim] = tampered[victim].replace('"tight":true', '"tight":false', 1)
    assert tampered[victim] != outputs[victim]
    failed, whole_ok = workloads.check_pass(wl, tampered, workloads.load_goldens()["census"])
    assert failed == [victim] and not whole_ok


def test_tampered_run_exits_nonzero(monkeypatch, capsys):
    real = workloads.atlas_line
    victim = workloads.build("highrank").items[0]

    def tampered(entries):
        line = real(entries)
        return line.replace('"tight":true', '"tight":false', 1) if entries == victim else line

    monkeypatch.setattr(workloads, "atlas_line", tampered)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "highrank", "--seed", "3", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1 and result["attempted"] >= 1


def test_self_times_sum_to_traced_wall():
    p, tracer = traced_pass(subset("atlas", 12), seed=1)
    stats = tracer.per_function()
    total_self = sum(row["self_s"] for row in stats.values())
    assert abs(total_self - p.wall_s) <= SELF_TIME_SLACK * p.wall_s
    assert stats["toddcox.enumerate_cosets"]["calls"] == 12
    assert stats["families.verify_gamma_family"]["calls"] == 12
    assert all(row["self_s"] >= 0 for row in stats.values())


def test_seed_changes_order_but_not_digests_or_counts():
    wl = subset("census", 6)
    runs = [traced_pass(wl, seed) for seed in (1, 2, 1)]
    orders = [[i for i, _ in p.samples] for p, _ in runs]
    assert orders[0] != orders[1] and orders[0] == orders[2]
    assert len({p.digest for p, _ in runs}) == 1
    assert runs[0][0].counts == runs[1][0].counts == runs[2][0].counts
    assert runs[0][0].counts["classifier.tables_found"] > 0
    calls = [t.per_function()["engine.closure_perms"]["calls"] for _, t in runs]
    assert len(set(calls)) == 1


def test_flag_count_counts_equal_flag_systems_of_distinct_posets():
    from tightpoly import poset, words

    rep = toddcox.regular_rep(words.gamma_pq_presentation(3, 6))
    first, second = poset.build_poset(rep), poset.build_poset(rep)
    tracer = Tracer(run.trace_targets())
    tracer.install()
    try:
        flags = len(first.flags_and_adjacency().flags)
        assert second.flags_and_adjacency() == first.flags_and_adjacency()
        first.flags_and_adjacency()
    finally:
        tracer.uninstall()
    assert tracer.counts["poset.flags"] == 2 * flags


def test_tracer_rebinds_every_name_and_restores_them():
    original = toddcox.enumerate_cosets
    assert tightpoly.enumerate_cosets is original
    tracer = Tracer({"toddcox.enumerate_cosets": None, "toddcox.no_such_function": None})
    tracer.install()
    try:
        assert toddcox.enumerate_cosets is not original
        assert tightpoly.enumerate_cosets is toddcox.enumerate_cosets
        assert tracer.missing == ["toddcox.no_such_function"]
    finally:
        tracer.uninstall()
    assert toddcox.enumerate_cosets is original and tightpoly.enumerate_cosets is original


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wl = subset("atlas", 2)
    p, tracer = traced_pass(wl, seed=1)
    layer = run.per_layer(wl, [p], [p], tracer)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_v, u) in layer.items()}
    e2e = run.end_to_end(wl, [p], setup_s=0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_v, u) in e2e.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "atlas", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0 and out.stdout == ""
