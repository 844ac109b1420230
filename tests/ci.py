"""Every check of CI as one command. `.github/workflows/tests.yml` runs each
step as `python tests/ci.py STEP`; here, from any folder:

    python tests/ci.py                  # every step, in order
    python tests/ci.py goldens bench    # the named steps

The steps are `tier1`, `floor`, `goldens` and `bench`. Each runs under the
running interpreter and prints one pass or FAIL line with the figures it
checked and its wall time; a failing step also prints what failed. A failing
step does not stop the ones after it, and the command exits 1 if any step
failed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from goldens import GOLDENS, ROOT, pin_failures

SRC, TESTS = os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")


def _run(argv: list[str], path: tuple[str, ...] = (), **env: str):
    """Run `argv` from the repository root with `path` in front of
    PYTHONPATH and `env` set, capturing its output."""
    env = dict(os.environ, **env)
    if path:
        env["PYTHONPATH"] = os.pathsep.join([*path, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def _pytest(args: list[str], path: tuple[str, ...]) -> tuple[str, str, list[str]]:
    """Run pytest under this interpreter: its whole output, its summary line,
    and its whole output again as the one failure when it fails."""
    run = _run([sys.executable, "-m", "pytest", "-q", *args], path)
    output = run.stdout + run.stderr
    summary = (output.strip().splitlines() or ["no output"])[-1].strip("= ")
    return output, summary, [output] if run.returncode else []


def tier1() -> tuple[str, list[str]]:
    """The Tier-1 suite: every test under `tests/`, against `src/`."""
    _, summary, failures = _pytest(["--continue-on-collection-errors"], (SRC,))
    return summary, failures


def floor() -> tuple[str, list[str]]:
    """The suite again under `tests/line_floor.py`, which fails on any line
    of `src/tydilang` that no test executes and that its `UNCOVERED` table
    does not list. CI runs this step on Python 3.11 only: 3.10 attributes
    the lines of multi-line statements differently."""
    output, summary, failures = _pytest(["-p", "line_floor", "tests"], (SRC, TESTS))
    counts = re.search(r"^(\d+) line-floor failure\(s\); (\d+) UNCOVERED entries$", output, re.M)
    if counts is None:
        return summary, failures or ["no line-floor summary in pytest's output"]
    return (f"{counts[1]} line-floor failures, {counts[2]} UNCOVERED entries; {summary}",
            failures)


def _files(top: str) -> dict[Path, bytes]:
    return {path.relative_to(top): path.read_bytes()
            for path in Path(top).rglob("*") if path.is_file()}


def goldens() -> tuple[str, list[str]]:
    """Every row of `tests/goldens.py`, compiled by the `tydilang` console
    script when it is installed (as CI installs it) and else by
    `python -m tydilang.cli` against `src/`, under PYTHONHASHSEED 0 and 1:
    each exits and writes as pinned, and the two output trees are
    byte-identical, so no artifact depends on the order of hashed sets and
    dicts."""
    script = shutil.which("tydilang")
    command, path = ([script], ()) if script else ([sys.executable, "-m", "tydilang.cli"], (SRC,))
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in ("0", "1"):
            for name, golden in GOLDENS.items():
                out = os.path.join(tmp, seed, name)
                run = _run([*command, *golden.argv, "--output", out], path,
                           PYTHONHASHSEED=seed)
                found = pin_failures(golden, run.returncode, out)
                if run.returncode != golden.exit_code:
                    found.append("stderr:\n" + run.stderr)
                failures += [f"{name}, PYTHONHASHSEED={seed}: {f}" for f in found]
        trees = _files(os.path.join(tmp, "0")), _files(os.path.join(tmp, "1"))
        failures += [f"{path} differs between PYTHONHASHSEED=0 and 1"
                     for path in sorted(trees[0].keys() | trees[1].keys())
                     if trees[0].get(path) != trees[1].get(path)]
    ran = "tydilang" if script else "python -m tydilang.cli"
    pins = sum(len(golden.pins) for golden in GOLDENS.values())
    return (f"`{ran}`: {len(GOLDENS)} goldens, {pins} pins, under PYTHONHASHSEED 0 and 1",
            failures)


def _traced(workload: str) -> dict:
    """The report of one traced full-scale compile of `workload` at seed 1."""
    run = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                "--seconds", "1", "--trace", "1"])
    if run.returncode:
        raise RuntimeError(f"perfbench/run.py --workload {workload} exited "
                           f"{run.returncode}:\n{run.stderr}")
    return json.loads(run.stdout.strip().splitlines()[-1])


def bench() -> tuple[str, list[str]]:
    """perfbench's own tests, then full-scale compiles of the workloads,
    each held to an oracle."""
    _, summary, failures = _pytest(["perfbench"], ())
    figures = [f"perfbench {summary}"]

    # one compile of each workload (deep_hier: 45,045 components) in a fresh
    # interpreter: the step fails on any problem its oracle reports. A child's
    # peak RSS counts what it inherits before it execs, so these run before
    # this process imports the compiler.
    rss = []
    for name in ("tpch_multi", "fanout_sugar", "deep_hier"):
        run = _run([sys.executable, "perfbench/child.py", "rss", ".", name, "1"])
        if run.returncode:
            failures.append(f"{name}: perfbench/child.py exited {run.returncode}:\n{run.stderr}")
            continue
        report = json.loads(run.stdout)
        failures += [f"{name}: {problem}" for problem in report["problems"]]
        rss.append(f"{name} {report['rss_mb']:.1f}")
    figures.append(f"peak RSS {', '.join(rss)} MB")

    sys.path[:0] = [SRC, TESTS]
    from test_emit import load_workloads, naive_dot, naive_ir
    from tydilang import compile_sources
    workloads = load_workloads()

    # full-scale deep_hier's DOT and tpch_multi's IR are byte for byte what
    # the naive renderers in tests/test_emit.py write; deep_hier is checked
    # at full scale because Tier-1 compiles each workload at a quarter size
    sizes = []
    for name, artifact in ("deep_hier", "circuit.dot"), ("tpch_multi", "ir.json"):
        w = workloads.generate(name, 1, ROOT)
        result = compile_sources(workloads.config(w), w.sources)
        text = result.artifacts[artifact]
        sizes.append(f"{name} {artifact} {len(text):,}")
        if text != (naive_dot(result.project, *w.top.split(".")) if artifact == "circuit.dot"
                    else naive_ir(result.project)):
            failures.append(f"{name}: {artifact} differs from its naive renderer")
        del result, text
    figures.append(f"{' and '.join(sizes)} bytes, checked against the naive renderers")

    # one traced tpch_multi compile at full scale: the tracer counts the
    # nodes of each parsed file's named tree, 38,571 in all
    report = _traced("tpch_multi")
    if report["correct"] is not True:
        failures.append("traced tpch_multi compile failed")
    figures.append(f"tpch_multi {report['metrics']['parser.ast_nodes']['value']:,} AST nodes")

    # one traced fanout_sugar compile at full scale: its 1,500 instance
    # targets in one `for` body resolve once for the implementation, so 6
    # template calls make its 6 template instances
    report = _traced("fanout_sugar")
    calls = report["metrics"]["elaboration.template_calls"]["value"]
    if report["correct"] is not True or calls > 10:
        failures.append(f"traced fanout_sugar compile: correct {report['correct']}, "
                        f"{calls} template calls")
    figures.append(f"fanout_sugar {calls} template calls (bound 10)")
    return "; ".join(figures), failures


STEPS = {"tier1": tier1, "floor": floor, "goldens": goldens, "bench": bench}


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in STEPS]
    if unknown:
        print(f"unknown step {', '.join(unknown)}; the steps are {', '.join(STEPS)}",
              file=sys.stderr)
        return 2
    print(f"Python {sys.version.split()[0]}", flush=True)
    failed = []
    for name in names or STEPS:
        start = time.perf_counter()
        try:
            figures, failures = STEPS[name]()
        except Exception:
            figures, failures = "raised", [traceback.format_exc()]
        for failure in failures:
            print(failure.rstrip())
        print(f"{'FAIL' if failures else 'pass'} {name}: {figures} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        if failures:
            failed.append(name)
    print(f"failed: {', '.join(failed)}" if failed else "every step passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
