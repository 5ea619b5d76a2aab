"""The workflow runs CI's gates through `tests/gates.py`, one step per gate.

The workflow is read as plain text: CI installs only pytest and hypothesis,
so no YAML parser is at hand.
"""

import re
import subprocess
import sys
from pathlib import Path

import gates

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def workflow_steps() -> list[dict]:
    """The `name` and `run` fields of each step, in order."""
    steps = WORKFLOW.read_text(encoding="utf-8").split("\n    steps:\n", 1)[1]
    return [dict(re.findall(r"^\s*(name|run): (.*)$", step, re.M)) for step in re.split(r"^      - ", steps, flags=re.M)[1:]]


def test_every_named_step_after_the_pytest_runs_is_one_gate_in_order():
    steps = workflow_steps()
    runs = [step.get("run") for step in steps]
    last_pytest = runs.index("python -O -m pytest -q --durations=10")
    assert runs.index("python -m pytest -q --durations=10") < last_pytest
    after = steps[last_pytest + 1:]
    assert all("name" in step for step in after)
    assert [step["run"] for step in after] == [f"python tests/gates.py {name}" for name in gates.GATES]
    assert len(set(gates.GATES)) == len(gates.GATES) == 26
    text = WORKFLOW.read_text(encoding="utf-8")
    assert "python -c" not in text and "RUNNER_TEMP" not in text


def test_an_unknown_gate_exits_nonzero_and_lists_the_gates():
    proc = subprocess.run([sys.executable, gates.__file__, "no-such-gate"], capture_output=True, text=True, env=gates.ENV)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.split("the gates are: ")[1].split() == gates.GATES
