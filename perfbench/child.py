"""Measurements that need a fresh interpreter, run as child processes.

    python3 perfbench/child.py import ROOT
        prints the seconds `import tydilang` takes
    python3 perfbench/child.py rss ROOT WORKLOAD SEED
        compiles the workload once and prints JSON with the peak RSS in MB
        and the oracle's problems (ru_maxrss only grows within a process)
"""

import sys
import time


def main(argv: list[str]) -> int:
    mode, root = argv[0], argv[1]
    sys.path.insert(0, f"{root}/src")
    if mode == "import":
        start = time.perf_counter()
        import tydilang  # noqa: F401
        print(repr(time.perf_counter() - start))
        return 0
    import json
    import resource

    import workloads
    w = workloads.generate(argv[2], int(argv[3]), root)
    from tydilang import compile_sources
    result = compile_sources(workloads.config(w), w.sources)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = workloads.check(w, result.exit_code, result.artifacts)
    print(json.dumps({"rss_mb": rss_mb, "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
