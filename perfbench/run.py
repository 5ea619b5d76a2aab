"""tightpoly benchmark: one command, four workloads, goldens-checked outputs.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

A run is a closed loop from one process: each item (a tuple, a type, or for
`atlas-par` one `tightpoly atlas` invocation) starts when the previous one
has finished. Each pass submits the workload's fixed items in an order drawn
from `--seed` and is checked against the goldens; passes repeat while the
next one is expected to end within `--seconds`.

With `--trace 0` the last stdout line holds the end-to-end metrics. The
`_ref` timings and `setup_s` are scaled to a reference host speed, measured
by calibration slices run next to the timed work (see calibration.py); the
raw timings are in the details line. With `--trace 1` the last line holds the
per-layer metrics of traced passes (per pass), measured after untraced
passes of the same length. The line before the last is a JSON object of
details: sample counts, failure ratio, raw timings, parallel efficiency,
missing trace targets. The exit code is 1 when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import weakref
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
CAL_SHARE = 0.1       # calibration time as a share of item time


def trace_targets() -> dict:
    """Traced functions, with the counts measured at their boundary."""
    posets_with_flags = weakref.WeakSet()

    def new_flags(args, system) -> int:
        # A poset caches its flag system; count each poset's flags once. The
        # set holds posets, which compare by identity: equal flag systems of
        # different posets are still counted.
        poset = args[0]
        if poset in posets_with_flags:
            return 0
        posets_with_flags.add(poset)
        return len(system.flags)

    return {
        "toddcox.enumerate_cosets": ("toddcox.cosets_live", lambda args, table: table.rows),
        "toddcox.perm_rep": None,
        "toddcox.regular_rep": None,
        "toddcox.group_order": None,
        "sggi.profile": None,
        "sggi.check_intersection_condition": None,
        "sggi.check_sggi": None,
        "poset.build_poset": ("poset.faces", lambda args, poset: sum(poset.face_counts())),
        "poset.FacePoset.verify_polytope": None,
        "poset.FacePoset.flags_and_adjacency": ("poset.flags", new_flags),
        "poset.FacePoset.combinatorial_schlafli": None,
        "poset.FacePoset.is_tight": None,
        "engine.left_action": None,
        "engine.closure_perms": None,
        "engine.check_generator_map": None,
        "classifier.low_index_normal": ("classifier.tables_found", lambda args, tables: len(tables)),
        "classifier.classify_tight": ("classifier.records_kept", lambda args, records: len(records)),
        "families.verify_gamma_family": None,
        "words.gamma_tuple_presentation": None,
        "words.coxeter_presentation": None,
        "atlas.admissible_tuples": None,
        "atlas.run_batch": None,
        "atlas.write_jsonl_atomic": None,
        "cli.main": None,
    }


# atlas-par runs its items in worker threads (later perhaps processes) that a
# tracer in this process cannot follow, so only the calling side is traced.
PAR_TARGETS = ("cli.main", "atlas.admissible_tuples", "atlas.run_batch", "atlas.write_jsonl_atomic")
COUNTS = ("toddcox.cosets_live", "poset.faces", "poset.flags",
          "classifier.tables_found", "classifier.records_kept")


@dataclass
class Pass:
    wall_s: float
    samples: list = field(default_factory=list)     # (item index, seconds)
    calibration: list = field(default_factory=list)  # seconds per calibration slice
    failed: list = field(default_factory=list)      # item indices
    whole_ok: bool = True
    digest: str = ""                                 # sha256 of the canonical output
    counts: dict = field(default_factory=dict)

    @property
    def scale(self) -> float:
        """Factor that converts this pass's times to the reference host speed."""
        return calibration.scale(self.calibration)

    @property
    def work_s(self) -> float:
        return sum(s for _i, s in self.samples)


def run_passes(wl, golden, rng, seconds, tracer=None) -> list[Pass]:
    """Closed-loop passes over the workload's items: at least one, then more
    while the next one is expected to end within `seconds`. After each item,
    calibration slices run for CAL_SHARE of the item's time."""
    passes = []
    begin = time.perf_counter()
    while not passes or (time.perf_counter() - begin) * (len(passes) + 1) / len(passes) <= seconds:
        order = list(range(len(wl.items)))
        rng.shuffle(order)
        outputs: list[str | None] = [None] * len(order)
        p = Pass(0.0)
        counts_before = dict(tracer.counts) if tracer else {}
        start = time.perf_counter()
        with tracer.span("perfbench.pass") if tracer else nullcontext():
            for i in order:
                if tracer:
                    tracer.item = workloads.item_key(wl.items[i])
                t0 = time.perf_counter()
                try:
                    outputs[i] = wl.run_item(wl.items[i])
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                elapsed = time.perf_counter() - t0
                p.samples.append((i, elapsed))
                spent = 0.0
                while spent == 0.0 or spent < CAL_SHARE * elapsed:
                    p.calibration.append(calibration.slice_s())
                    spent += p.calibration[-1]
        p.wall_s = time.perf_counter() - start
        p.failed, p.whole_ok = workloads.check_pass(wl, outputs, golden)
        p.digest = workloads.sha256("".join(o or "" for o in outputs))
        if tracer:
            p.counts = {k: tracer.counts[k] - counts_before.get(k, 0) for k in COUNTS}
        passes.append(p)
    return passes


def setup_seconds(name: str) -> tuple[float, float]:
    """Median set-up time over fresh processes: scaled to the reference host
    speed, and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            check=True, capture_output=True, text=True, timeout=120,
        )
        seconds, slice_s = map(float, out.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * calibration.scale([slice_s]))
    return statistics.median(scaled), statistics.median(raw)


def latency_ms(wl, passes, scaled=True, pick=None) -> list[float]:
    """Each timed item's (or each item `pick` selects) median latency over
    the passes, in ms."""
    pick = pick or wl.timed
    by_item = defaultdict(list)
    for p in passes:
        factor = 1000 * (p.scale if scaled else 1.0)
        for i, s in p.samples:
            by_item[i].append(s * factor)
    return [statistics.median(v) for i, v in sorted(by_item.items()) if pick(wl.items[i])]


def wall_seconds(wl, passes, scaled=True) -> float:
    """Median wall time of the workload's items: a pass, or for atlas-par
    one `--jobs nproc` invocation."""
    if wl.name == "atlas-par":
        return statistics.median(latency_ms(wl, passes, scaled)) / 1000
    return statistics.median(p.work_s * (p.scale if scaled else 1.0) for p in passes)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(wl, passes, setup_s: float) -> dict:
    ms = latency_ms(wl, passes)
    return {
        "wall_ref_s": (wall_seconds(wl, passes), "s"),
        "item_ref_ms.p50": (statistics.median(ms), "ms"),
        "item_ref_ms.p90": (p90(ms), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(wl, untraced, traced, tracer) -> dict:
    n = len(traced)
    stats = tracer.per_function()
    metrics = {}
    for target in trace_targets():
        if target in tracer.missing:
            continue
        row = stats.get(target, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        metrics[f"{target}.self_s"] = (row["self_s"] / n, "s")
        metrics[f"{target}.total_s"] = (row["total_s"] / n, "s")
        metrics[f"{target}.calls"] = (row["calls"] / n, "count")
    for name in COUNTS:
        metrics[name] = (tracer.counts[name] / n, "count")
    tables = tracer.counts["classifier.tables_found"]
    kept = tracer.counts["classifier.records_kept"]
    metrics["classifier.kept_ratio"] = (kept / tables if tables else 0.0, "ratio")
    overhead = wall_seconds(wl, traced) - wall_seconds(wl, untraced)
    metrics["tracing.overhead_s"] = (overhead, "s")
    return metrics


def details(wl, passes, seed) -> dict:
    """Facts of the run and raw (unscaled) timings of untraced passes."""
    out = {
        "workload": wl.name,
        "seed": seed,
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "items": len(wl.items),
        "passes": len(passes),
        "latency_items": len(latency_ms(wl, passes)),
        "calibration_ms": statistics.median(c for p in passes for c in p.calibration) * 1000,
        "wall_s": wall_seconds(wl, passes, scaled=False),
        "item_ms.p50": statistics.median(latency_ms(wl, passes, scaled=False)),
        "item_ms.p90": p90(latency_ms(wl, passes, scaled=False)),
    }
    if wl.name == "atlas-par":
        jobs1_s = statistics.median(latency_ms(wl, passes, pick=lambda jobs: jobs == 1)) / 1000
        out["jobs1_ref_s"] = jobs1_s
        out["parallel_efficiency"] = jobs1_s / (out["nproc"] * wall_seconds(wl, passes))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    golden = workloads.load_goldens()[args.workload]
    wl = workloads.build(args.workload)
    rng = random.Random(args.seed)

    if args.trace == 0:
        passes = run_passes(wl, golden, rng, args.seconds)
        setup_s, setup_raw_s = setup_seconds(wl.name)
        metrics = end_to_end(wl, passes, setup_s)
        info = details(wl, passes, args.seed)
        info["setup_raw_s"] = setup_raw_s
    else:
        untraced = run_passes(wl, golden, rng, args.seconds / 2)
        tracer = Tracer(trace_targets())
        tracer.install(only=PAR_TARGETS if wl.name == "atlas-par" else None)
        try:
            traced = run_passes(wl, golden, rng, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        metrics = per_layer(wl, untraced, traced, tracer)
        info = details(wl, untraced, args.seed)
        info["missing"] = tracer.missing
        info["counts_repeat"] = all(p.counts == traced[0].counts for p in traced)
        workloads.OUT_DIR.mkdir(exist_ok=True)
        spans = workloads.OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write_spans(str(spans))
        info["spans"] = str(spans.relative_to(workloads.ROOT))

    attempted = sum(len(p.samples) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    correct = failed == 0 and all(p.whole_ok for p in passes)
    info["failed_ratio"] = failed / attempted
    print(json.dumps({"details": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
