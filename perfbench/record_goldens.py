"""Record the golden outputs of every workload from the program in `src/`.

    python3 perfbench/record_goldens.py

Run it only on a program whose outputs are trusted: the goldens in
perfbench/goldens.json were recorded from the reference implementation and
every later run is checked against them. The script refuses to record
outputs that fail their own checks (a failing claim, a census that breaks
the trichotomy, or `--jobs` runs that disagree).
"""

from __future__ import annotations

import json

import workloads


def record(name: str) -> dict:
    wl = workloads.build(name)
    outputs = [wl.run_item(item) for item in wl.items]
    if name == "atlas-par":
        if len(set(outputs)) != 1:
            raise SystemExit("atlas-par: outputs differ across --jobs values")
        golden = {"digest": workloads.sha256(outputs[0])}
    else:
        golden = {
            "items": {workloads.item_key(i): workloads.sha256(t) for i, t in zip(wl.items, outputs)},
            "digest": workloads.sha256("".join(outputs)),
        }
    failed, whole_ok = workloads.check_pass(wl, outputs, golden)
    if failed or not whole_ok:
        raise SystemExit(f"{name}: outputs fail their checks at items {failed}")
    return golden


def main() -> None:
    goldens = {name: record(name) for name in workloads.NAMES}
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
