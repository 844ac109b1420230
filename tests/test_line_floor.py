"""The accounting of the line floor (tests/line_floor.py), on a small module
and a set of hits made up here, so it runs without the tracer."""

from line_floor import floor_report

SOURCE = """\
def f(x):
    if x:
        return 1
    return 2


class C:
    def m(self):
        return [y for y in range(3)]
"""
CODE = compile(SOURCE, "m.py", "exec")


def test_unexecuted_line_of_a_function_body_is_reported():
    """Module level, class bodies and `def` lines do not count."""
    hits = {("m.py", 2), ("m.py", 4)}
    assert floor_report([(CODE, SOURCE)], hits, {}) == (
        ["m.py:3: m.f: return 1", "m.py:9: m.C.m: return [y for y in range(3)]"], [])


def test_listed_line_passes_and_stale_entry_is_reported():
    hits = {("m.py", 2), ("m.py", 4), ("m.py", 9)}
    uncovered = {"m.f: return 1": "listed", "m.f: return 3": "no such line"}
    assert floor_report([(CODE, SOURCE)], hits, uncovered) == ([], ["m.f: return 3"])
