"""The workflow runs only `tests/ci.py`: each of its `run:` commands is a pip
install or one step of `ci.py`, so every check CI makes can be run, and seen
to fail, on a checkout with `python tests/ci.py`. The workflow is read as
text, since PyYAML is not a test dependency."""

import os
import re
import subprocess
import sys

import ci
from goldens import ROOT

WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")
PIP = re.compile(r"(python -m )?pip install [^;&|`$<>\n]+")
STEP = re.compile(r"python tests/ci\.py (\w+)")


def run_commands(workflow: str) -> list[str]:
    """Each command of each `run:` in a workflow's text: the value after
    `run:`, or each non-blank line of its block."""
    lines = workflow.splitlines()
    commands = []
    for i, line in enumerate(lines):
        key, _, value = line.strip().lstrip("- ").partition(":")
        if key != "run":
            continue
        if value.strip() not in ("|", "|-", ">", ">-"):
            commands.append(value.strip())
            continue
        indent = len(line) - len(line.lstrip())
        for body in lines[i + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            commands.append(body.strip())
    return [command for command in commands if command]


def workflow_problems(workflow: str) -> list[str]:
    """Each `run:` command that is neither a pip install nor a step of
    `ci.py`, and each step of `ci.py` that no command runs."""
    problems, run = [], set()
    for command in run_commands(workflow):
        step = STEP.fullmatch(command)
        if step and step[1] in ci.STEPS:
            run.add(step[1])
        elif not PIP.fullmatch(command):
            problems.append(f"not a pip install or a step of tests/ci.py: {command}")
    problems += [f"step {name} of tests/ci.py is not run" for name in ci.STEPS if name not in run]
    return problems


def test_workflow_runs_only_ci_steps():
    with open(WORKFLOW, encoding="utf-8") as f:
        assert workflow_problems(f.read()) == []


def test_inline_programs_and_missing_steps_are_found():
    workflow = """
jobs:
  tests:
    steps:
      - run: pip install -e ".[test]"; python -c 'print(1)'
      - name: Tier-1 tests
        run: python tests/ci.py tier1
      - name: Other
        run: |
          python tests/ci.py golden
          python perfbench/child.py rss . deep_hier 1 | python -c 'import json, sys
          sys.exit(json.load(sys.stdin)["problems"] or None)'
      - run: python tests/ci.py floor && python tests/ci.py bench
"""
    assert workflow_problems(workflow) == [
        "not a pip install or a step of tests/ci.py: "
        "pip install -e \".[test]\"; python -c 'print(1)'",
        "not a pip install or a step of tests/ci.py: python tests/ci.py golden",
        "not a pip install or a step of tests/ci.py: "
        "python perfbench/child.py rss . deep_hier 1 | python -c 'import json, sys",
        "not a pip install or a step of tests/ci.py: "
        "sys.exit(json.load(sys.stdin)[\"problems\"] or None)'",
        "not a pip install or a step of tests/ci.py: "
        "python tests/ci.py floor && python tests/ci.py bench",
        "step floor of tests/ci.py is not run",
        "step goldens of tests/ci.py is not run",
        "step bench of tests/ci.py is not run",
    ]


def test_importing_ci_runs_nothing(tmp_path):
    run = subprocess.run([sys.executable, "-c", "import ci"], cwd=tmp_path, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "tests")))
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
    assert list(tmp_path.iterdir()) == []


def test_an_unknown_step_is_a_usage_error(capsys):
    assert ci.main(["tier1", "lint"]) == 2
    assert capsys.readouterr().err == (
        "unknown step lint; the steps are tier1, floor, goldens, bench\n")
