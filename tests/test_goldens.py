import json

import pytest

from goldens import GOLDENS
from test_emit import check_dot, naive_dot, naive_ir


@pytest.mark.parametrize("name", GOLDENS)
def test_golden(golden_build, name):
    """Golden `name`, compiled once per session, exits as pinned and writes
    each pinned artifact byte for byte; every artifact oracle holds on what
    it wrote: a DOT is well formed and is `naive_dot`'s, an IR is canonical
    JSON and is `naive_ir`'s."""
    build, argv = golden_build(name), GOLDENS[name].argv
    assert build.mismatches() == []
    if "--dot" in argv:
        text = build.text("circuit.dot")
        anchors, edges = check_dot(text)
        assert anchors and edges
        package, top = argv[argv.index("--top") + 1].split(".")
        assert text == naive_dot(build.project, package, top)
    if "--ir" in argv:
        text = build.text("ir.json")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert text == naive_ir(build.project)
