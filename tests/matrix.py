"""Run the Tier-1 tests under every CPython from 3.10 up that pyenv holds, a
local stand-in for CI's matrix of Pythons, not a supported install:

    python tests/matrix.py

Each interpreter borrows pytest and Hypothesis, which are pure Python, from
3.11's site-packages. Python 3.10 also needs the two backports that pytest
imports there: an `exceptiongroup` stub and a `tomli` that re-exports pip's
vendored copy. Both are written to a temporary folder, never into the tree.
An interpreter that cannot start counts as a failure; none is skipped.
"""

import glob
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BACKPORTS = {
    "exceptiongroup.py": "class BaseExceptionGroup(BaseException):\n"
                         "    __class_getitem__ = classmethod(lambda cls, item: cls)\n\n\n"
                         "class ExceptionGroup(BaseExceptionGroup, Exception):\n"
                         "    pass\n",
    "tomli.py": "from pip._vendor.tomli import *\n",
}


def main() -> int:
    versions = os.path.join(subprocess.run(["pyenv", "root"], capture_output=True, text=True,
                                           check=True).stdout.strip(), "versions")
    found = sorted((tuple(map(int, name.split("."))), name) for name in os.listdir(versions)
                   if re.fullmatch(r"3\.\d+\.\d+", name) and int(name.split(".")[1]) >= 10)
    borrowed = max(glob.glob(os.path.join(versions, "3.11.*", "lib", "python3.11",
                                          "site-packages")))
    failed = []
    with tempfile.TemporaryDirectory() as backports:
        for name, text in BACKPORTS.items():
            with open(os.path.join(backports, name), "w", encoding="utf-8") as f:
                f.write(text)
        for version, name in found:
            paths = ["src"] + ([backports] if version < (3, 11) else []) + [borrowed]
            python = os.path.join(versions, name, "bin", "python")
            try:
                run = subprocess.run(
                    [python, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                    cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
                    capture_output=True, text=True)
            except OSError as e:
                failed.append(name)
                print(f"{name}: cannot start {python}: {e}")
                continue
            lines = (run.stdout + run.stderr).strip().splitlines() or ["no output"]
            if run.returncode:
                failed.append(name)
                print("\n".join(line for line in lines if line.startswith(("FAILED", "ERROR"))))
            print(f"{name}: {lines[-1]}")
    print(f"failed on {', '.join(failed)}" if failed else f"Tier-1 passed on {len(found)} Pythons")
    return 1 if failed or not found else 0


if __name__ == "__main__":
    sys.exit(main())
