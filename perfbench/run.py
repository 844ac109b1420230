"""Compile benchmark for tydilang.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tydilang checkout; the compiler is imported from its
`src/`. The workload is generated in memory from the seed (see
workloads.py) and compiled in-process through `tydilang.compile_sources`
with every artifact enabled and no output directory. The run's first
compile is checked by the workload's oracle, and every later one must have
the same artifact digest; a compile that raises, exits non-zero, fails the
oracle or differs counts as failed.

--trace 0 reports the end-to-end metrics: the median time of one compile
over the measuring window, peak RSS of a fresh process compiling once, the
median time for a fresh interpreter to start and import tydilang, and the
share of compiles that passed. Both times are taken on a WorkClock
(workclock.py), which normalises them to a fixed host speed, because the
speed of the shared host drifts by more than the metrics' bounds; the plain
wall-time medians are printed alongside.

--trace 1 alternates untraced and traced compiles (tracing.py) and reports
per-layer self times and counts, plus the tracing overhead; its spans are
written to perfbench/results/. Its times are wall times.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from workclock import WorkClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")

SETUP_CHILDREN = 9  # fresh interpreters timed for setup_s
MIN_COMPILES = 3  # timed compiles per run, even past the window
CHILD_TIMEOUT = 120


class Tally:
    """Compiles attempted and failed across one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None  # artifact digest of the run's first compile
        self.reference_problems: list[str] = []

    def record(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(problems[:5]), file=sys.stderr)

    def check(self, what: str, w, result) -> None:
        """The oracle checks the run's first compile; later compiles must
        match its digest byte for byte, so they need no second oracle pass."""
        digest = _digest(result.artifacts)
        if self.reference is None:
            self.reference = digest
            self.reference_problems = workloads.check(w, result.exit_code,
                                                      result.artifacts)
            problems = self.reference_problems
        elif digest != self.reference:
            problems = workloads.check(w, result.exit_code, result.artifacts)
            problems.append("artifacts differ from the first compile")
        else:
            problems = self.reference_problems
        self.record(what, problems)


def _digest(artifacts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(artifacts):
        h.update(name.encode())
        h.update(b"\0")
        h.update(artifacts[name].encode())
        h.update(b"\0")
    return h.hexdigest()


def _compile(w, jobs: int = 1):
    from tydilang import compile_sources
    return compile_sources(workloads.config(w, jobs), w.sources)


def _guarded(tally: Tally, what: str, fn):
    """Run one compile; an exception counts as a failed compile."""
    try:
        return fn()
    except Exception:
        traceback.print_exc()
        tally.record(what, ["raised " + traceback.format_exc().splitlines()[-1]])
        return None


def _child(*args: str) -> str:
    proc = subprocess.run([sys.executable, CHILD, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def _warm_up(w, tally: Tally):
    """One untimed compile that fills allocator arenas and sets the digest
    every later compile must match. tpch_multi compiles it with two workers,
    so the later single-worker digests also check worker-count determinism."""
    jobs = min(2, os.cpu_count() or 1) if w.name == "tpch_multi" else 1
    result = _guarded(tally, f"warm-up (jobs={jobs})", lambda: _compile(w, jobs))
    if result is not None:
        tally.check(f"warm-up (jobs={jobs})", w, result)


def _timed_compiles(w, tally: Tally, seconds: float, tracer=None, clock=None):
    """Compile while the next compile is expected to end within `seconds`
    (as long as the last one took). Without a tracer every compile
    is timed untraced; with one, untraced and traced compiles alternate.
    Returns the untraced wall times, the clock's ticks during each of them
    (when a clock is given) and the traced per-compile metrics."""
    walls, ticks, layers = [], [], []
    deadline = time.perf_counter() + seconds
    last = 0.0
    # past the deadline, keep going only to reach MIN_COMPILES samples, and
    # only while nothing has failed
    while time.perf_counter() + last < deadline or tally.failed == 0 and (
            len(walls) < MIN_COMPILES
            or tracer is not None and len(layers) < MIN_COMPILES):
        began = time.perf_counter()
        traced = tracer is not None and len(layers) < len(walls)
        result = out = None  # free the previous compile before collecting
        gc.collect()
        if traced:
            with tracer.installed():
                out = _guarded(tally, "traced compile",
                               lambda: tracer.compile(lambda: _compile(w)))
            if out is not None:
                result, metrics = out
                layers.append(metrics)
        else:
            tick = clock.read() if clock else 0
            start = time.perf_counter()
            result = _guarded(tally, "compile", lambda: _compile(w))
            wall = time.perf_counter() - start
            tick = clock.read() - tick if clock else 0
            if result is not None:
                walls.append(wall)
                ticks.append(tick)
        if result is not None:
            tally.check("traced compile" if traced else "compile", w, result)
        last = time.perf_counter() - began
    return walls, ticks, layers


def _setup_sample(clock: WorkClock) -> tuple[float, float]:
    """One fresh interpreter that imports tydilang: the clock's seconds for
    its whole life, and the wall time of the import as the child saw it."""
    tick = clock.read()
    imported = float(_child("import", ROOT))
    return clock.seconds(clock.read() - tick), imported


def end_to_end(w, seed: int, seconds: float, tally: Tally) -> dict:
    rss = json.loads(_child("rss", ROOT, w.name, str(seed)))
    tally.record("fresh-process compile", rss["problems"])
    _warm_up(w, tally)
    _child("import", ROOT)  # writes the bytecode cache before timing imports
    with WorkClock() as clock:
        setup = [_setup_sample(clock) for _ in range(SETUP_CHILDREN)]
        walls, ticks, _ = _timed_compiles(w, tally, seconds, clock=clock)
    if not walls:
        raise RuntimeError("no compile succeeded")
    compile_s = [clock.seconds(t) for t in ticks]
    print(f"{w.name}: compile_s median {statistics.median(compile_s):.4f} s over "
          f"{len(walls)} compiles (min {min(compile_s):.4f}, max "
          f"{max(compile_s):.4f}); wall median {statistics.median(walls):.4f} s "
          "while sharing the CPU with the clock")
    print(f"{w.name}: setup_s median {statistics.median(s for s, _ in setup):.4f} s "
          f"over {len(setup)} fresh interpreters (the import in them: wall median "
          f"{statistics.median(i for _, i in setup):.4f} s sharing the CPU); "
          f"peak_rss_mb {rss['rss_mb']:.1f}")
    return {
        "compile_s": (statistics.median(compile_s), "s"),
        "peak_rss_mb": (rss["rss_mb"], "MB"),
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "pass_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def per_layer(w, seed: int, seconds: float, tally: Tally) -> dict:
    from tracing import PER_LAYER, Tracer
    tracer = Tracer()
    _warm_up(w, tally)
    walls, _, layers = _timed_compiles(w, tally, seconds, tracer)
    if not walls or not layers:
        raise RuntimeError("no compile succeeded")
    out = {name: (statistics.median(m[name] for m in layers), unit)
           for name, (unit, _, _) in PER_LAYER.items() if name in layers[0]}
    traced = out["trace.compile_s"][0]
    out["trace.overhead_s"] = (traced - statistics.median(walls), "s")
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"spans-{w.name}-{seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": w.name, "seed": seed, "untraced_s": walls,
                   "spans": tracer.spans}, f)
    share = {k: v[0] / traced for k, v in out.items()
             if v[1] == "s" and not k.startswith("trace.")}
    top = sorted(share.items(), key=lambda kv: -kv[1])[:4]
    print(f"{w.name}: {len(layers)} traced / {len(walls)} untraced compiles; "
          "largest self-time shares " + ", ".join(f"{k} {v:.0%}" for k, v in top))
    print(f"{w.name}: spans written to {os.path.relpath(path, ROOT)}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    for needed in (os.path.join(SRC, "tydilang", "__init__.py"),
                   workloads.tpch_path(ROOT)):
        if not os.path.isfile(needed):
            print(f"perfbench: {os.path.relpath(needed, ROOT)} not found; run "
                  "from the root of a tydilang checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    import tydilang
    if os.path.dirname(os.path.dirname(os.path.abspath(tydilang.__file__))) != SRC:
        print(f"perfbench: imported tydilang from {tydilang.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    w = workloads.generate(args.workload, args.seed, ROOT)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(w, args.seed, args.seconds, tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
