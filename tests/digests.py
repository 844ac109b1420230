"""Artifact digests of the benchmark workloads, as each of several trees
compiles them:

    python tests/digests.py TREE...

Each TREE is a checkout of this repository. For each one, a child process
with ``TREE/src`` on its path compiles `tpch_multi`, `fanout_sugar` and
`deep_hier` at full scale and seeds 1-3, once under ``PYTHONHASHSEED=0`` and
once under 1. The workloads come from this checkout's
`perfbench/workloads.py`, loaded read-only as `tests/test_emit.py` loads it,
so every tree compiles the same sources. The script prints one line per tree,
workload and seed: the SHA-256 of the exit code and of every artifact, by
name. It exits 1 when two trees, or the two hash seeds of one tree, give
different digests.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)


def digest(exit_code: int, artifacts: dict[str, str]) -> str:
    h = hashlib.sha256(f"exit={exit_code}\0".encode())
    for name in sorted(artifacts):
        h.update(f"{name}\0{artifacts[name]}\0".encode())
    return h.hexdigest()


def _child():
    """Print ``workload seed digest`` for each compile, with the `tydilang`
    that the parent put on the path."""
    from tydilang import compile_sources
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.NAMES:
        for seed in SEEDS:
            w = workloads.generate(name, seed, ROOT)
            result = compile_sources(workloads.config(w), w.sources)
            print(name, seed, digest(result.exit_code, result.artifacts), flush=True)


def tree_digests(tree: str, hash_seed: int) -> list[str]:
    """The child's ``workload seed digest`` lines for `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               PYTHONHASHSEED=str(hash_seed), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                         env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def main(trees: list[str]) -> int:
    if not trees:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    differ = False
    first = None
    for tree in trees:
        lines = tree_digests(tree, 0)
        for line in lines:
            print(tree, line)
        if tree_digests(tree, 1) != lines:
            print(tree, "differs under PYTHONHASHSEED=1")
            differ = True
        if first is not None and lines != first:
            differ = True
        first = first or lines
    print("trees differ" if differ else f"{len(trees)} tree(s) alike")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        _child()
    else:
        sys.exit(main(sys.argv[1:]))
