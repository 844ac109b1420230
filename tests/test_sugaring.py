import random
import re

import pytest

from tydilang.dump import dump_code_structure
from tydilang.model import EndRef, EvalState
from tydilang.sugaring import sugar_project, usage_census

from conftest import evaluated_project

BASE = """
type Group rgb {
  r: Bit(8),
};
type rgb_stream = Stream(rgb);
streamlet leaf_s { input: rgb_stream in, output: rgb_stream out, };
external impl leaf_i of leaf_s {
};
"""


def sugared(*texts, top=None):
    project, ctx = evaluated_project(*texts, top=top)
    sugar_project(ctx, project)
    return project, ctx


def census_map(impl):
    return {u.key(): u for u in usage_census(impl)}


# -- census -----------------------------------------------------------------------


def test_census_counts_simple_connection():
    project, _ = evaluated_project(
        "package p;" + BASE +
        "streamlet s { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl i of s { input => output, };\n")
    impl = project.packages["p"].scope.implements["i"]
    counts = census_map(impl)
    assert counts[(None, None, "input", None)].use_count == 1
    assert counts[(None, None, "output", None)].use_count == 1
    assert counts[(None, None, "input", None)].role == "source"
    assert counts[(None, None, "output", None)].role == "sink"


def test_census_fan_out_and_unconnected():
    project, _ = evaluated_project(
        "package p;" + BASE +
        "streamlet s { input: rgb_stream in, a: rgb_stream out, b: rgb_stream out, c: rgb_stream out, };\n"
        "impl i of s {\n"
        "  instance l(leaf_i),\n"
        "  input => a,\n  input => b,\n  input => c,\n"
        "  l.output => l.input,\n"
        "};\n")
    impl = project.packages["p"].scope.implements["i"]
    counts = census_map(impl)
    assert counts[(None, None, "input", None)].use_count == 3
    assert counts[("l", None, "output", None)].use_count == 1
    # census keeps zero-use entries visible
    assert ("l", None, "input", None) in counts


# -- duplicators --------------------------------------------------------------------


def test_fan_out_gets_one_duplicator():
    project, ctx = sugared(
        "package p;" + BASE +
        "streamlet top_s { input: rgb_stream in, };\n"
        "impl top_i of top_s {\n"
        "  instance l0(leaf_i),\n  instance l1(leaf_i),\n  instance l2(leaf_i),\n"
        "  input => l0.input,\n  input => l1.input,\n  input => l2.input,\n"
        "  l0.output => void0.input,\n"  # keep leaf outputs used via explicit voids
        "  instance void0(leaf_i),\n"
        "};\n")
    impl = project.packages["p"].scope.implements["top_i"]
    dups = [n for n in impl.instances if n.startswith("duplicate_")]
    assert dups == ["duplicate_self_input_3"]
    dup_inst = impl.instances[dups[0]]
    assert dup_inst.target.streamlet.ports["output"].array_size == 3
    counts = census_map(impl)
    for usage in counts.values():
        if usage.owner is None and usage.port_name == "input":
            assert usage.use_count == 1


def test_single_use_output_untouched():
    project, ctx = sugared(
        "package p;" + BASE +
        "streamlet s { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl i of s { input => output, };\n")
    impl = project.packages["p"].scope.implements["i"]
    assert list(impl.instances) == []
    assert len(impl.connections) == 1


def test_duplicator_preserves_sink_order_and_flags():
    project, ctx = sugared(
        "package p;" + BASE +
        "streamlet s { input: rgb_stream in, a: rgb_stream out, b: rgb_stream out, };\n"
        'impl i of s {\n  input =1=> a "first",\n  input => b @NoStrictType@,\n};\n')
    impl = project.packages["p"].scope.implements["i"]
    first = next(c for c in impl.connections if c.name == "first")
    assert first.source.port_index == 0  # declaration order preserved
    assert first.fifo_depth == 1
    second = next(c for c in impl.connections if c.sink.port_name == "b")
    assert second.source.port_index == 1
    assert second.no_strict


def test_strictness_preserved_through_duplicator():
    from tydilang.drc import run_drc
    project, ctx = sugared(
        "package p;" + BASE +
        "streamlet s { input: rgb_stream in, a: rgb_stream out, b: rgb_stream out, };\n"
        "impl i of s { input => a, input => b, };\n")
    diags = run_drc(project)
    assert diags == []  # same named type on every rewired edge: still strict


def test_interleaved_sources_keep_their_own_sink_order():
    """Each duplicator's output[j] feeds the j-th sink of its own source, in
    declaration order, while the uses of two sources alternate."""
    project, ctx = evaluated_project(
        "package p;" + BASE +
        "streamlet s { in_arr: rgb_stream [2] in, solo: rgb_stream in, "
        "a: rgb_stream out, b: rgb_stream out, c: rgb_stream out, "
        "d: rgb_stream out, e: rgb_stream out, f: rgb_stream out, };\n"
        "impl i of s {\n"
        '  in_arr[1] =2=> a "a_edge",\n'
        "  in_arr[0] => f,\n"
        "  solo => b @NoStrictType@,\n"
        '  in_arr[1] => c "c_edge" @NoStrictType@,\n'
        "  solo =3=> d,\n"
        "  in_arr[1] => e,\n"
        "};\n")
    impl = project.packages["p"].scope.implements["i"]
    flags = {c.sink.port_name: (c.name, c.fifo_depth, c.no_strict)
             for c in impl.connections}
    sugar_project(ctx, project)
    arr, solo = "duplicate_self_in_arr_1_3", "duplicate_self_solo_2"
    expected = {"a": (arr, 0), "b": (solo, 0), "c": (arr, 1), "d": (solo, 1),
                "e": (arr, 2)}
    edges = {c.sink.port_name: c for c in impl.connections
             if c.sink.owner_name is None}
    assert set(edges) == set(expected) | {"f"}
    assert edges["f"].source.key() == (None, None, "in_arr", 0)  # single use
    for sink, (dup, j) in expected.items():
        conn = edges[sink]
        assert (conn.source.owner_name, conn.source.port_name,
                conn.source.port_index) == (dup, "output", j), sink
        assert (conn.name, conn.fifo_depth, conn.no_strict) == flags[sink]
    feeds = {c.sink.owner_name: c.source.key() for c in impl.connections
             if c.sink.owner_name in (arr, solo)}
    assert feeds == {arr: (None, None, "in_arr", 1),
                     solo: (None, None, "solo", None)}


# -- voiders ------------------------------------------------------------------------


def test_unused_instance_output_gets_voider():
    project, ctx = sugared(
        "package p;" + BASE +
        "streamlet top_s { input: rgb_stream in, };\n"
        "impl top_i of top_s {\n"
        "  instance l(leaf_i),\n"
        "  input => l.input,\n"
        "};\n")
    impl = project.packages["p"].scope.implements["top_i"]
    assert "void_l_output" in impl.instances
    conn = next(c for c in impl.connections if c.sink.instance is not None
                and c.sink.instance.name == "void_l_output")
    assert conn.source.key() == ("l", None, "output", None)


def test_inserted_names_are_sanitized_and_unique():
    """An inserted component's name has no `__`, and a name already taken
    gets the first free numeric suffix."""
    project, _ = sugared(
        "package p;" + BASE +
        "streamlet top_s { input: rgb_stream in, };\n"
        "impl top_i of top_s {\n"
        "  instance l_(leaf_i),\n  instance void_l_output(leaf_i),\n"
        "  input => l_.input,\n"
        "};\n")
    impl = project.packages["p"].scope.implements["top_i"]
    feeds = {c.sink.owner_name: c.source.key() for c in impl.connections
             if c.sink.owner_name and c.sink.owner_name.startswith("void_")}
    assert feeds == {"void_l_output_2": ("l_", None, "output", None),
                     "void_void_l_output_output": ("void_l_output", None, "output", None)}


def test_inserted_feeds_keep_the_instance_index():
    """The dump names the element of an instance array that feeds a
    duplicator or a voider."""
    project, _ = sugared(
        "package p;" + BASE +
        "streamlet top_s { };\n"
        "impl top_i of top_s {\n"
        "  instance a(leaf_i) [2],\n  instance b(leaf_i),\n  instance c(leaf_i),\n"
        "  a[1].output => b.input,\n  a[1].output => c.input,\n"
        "  b.output => a[0].input,\n  c.output => a[1].input,\n"
        "};\n")
    # each feed line starts with its source end and ends with `(<inserted>_in)`
    feeds = re.findall(r"^\s*(\S+?):.* \((\w+)_in\)$", dump_code_structure(project),
                       re.MULTILINE)
    assert sorted(feeds) == [("ExternalOwner(a[0]).output", "void_a_0_output"),
                             ("ExternalOwner(a[1]).output", "duplicate_a_1_output_2")]


def test_unused_self_ports_left_alone():
    project, ctx = sugared(
        "package p;" + BASE +
        "streamlet s { input: rgb_stream in, extra_in: rgb_stream in, "
        "output: rgb_stream out, };\n"
        "impl i of s { input => output, };\n")
    impl = project.packages["p"].scope.implements["i"]
    assert list(impl.instances) == []
    counts = census_map(impl)
    assert counts[(None, None, "extra_in", None)].use_count == 0


# -- random fan-out topologies ----------------------------------------------------------


def make_topology(rng: random.Random, n_layers: int):
    """A hierarchy of implementations with random fan-out <= 6; every sink is
    driven exactly once and every Self input feeds at least one sink."""
    lines = ["package p;" + BASE]
    prev_impl, prev_ins, prev_outs = "leaf_i", ["input"], ["output"]
    for layer in range(n_layers):
        n_inst = rng.randint(1, 3)
        n_in = rng.randint(1, 2)
        n_out = rng.randint(1, 2)
        s = f"layer{layer}_s"
        i = f"layer{layer}_i"
        ins = [f"in{k}" for k in range(n_in)]
        outs = [f"out{k}" for k in range(n_out)]
        ports = [f"{p}: rgb_stream in," for p in ins]
        ports += [f"{p}: rgb_stream out," for p in outs]
        lines.append(f"streamlet {s} {{ " + " ".join(ports) + " };")
        body = [f"instance x{k}({prev_impl})," for k in range(n_inst)]
        sinks = [f"x{k}.{p}" for k in range(n_inst) for p in prev_ins] + outs
        sources = ins + [f"x{k}.{p}" for k in range(n_inst) for p in prev_outs]
        rng.shuffle(sinks)
        # every Self input must drive something; pad with random sources
        assignment = {}
        for k, sink in enumerate(sinks):
            assignment[sink] = ins[k] if k < n_in else rng.choice(sources)
        # cap fan-out at 6 by re-assigning overloaded sources
        while True:
            counts = {}
            for src in assignment.values():
                counts[src] = counts.get(src, 0) + 1
            over = [s_ for s_, c in counts.items() if c > 6]
            if not over:
                break
            for sink, src in assignment.items():
                if src in over:
                    assignment[sink] = rng.choice(sources)
                    break
        body += [f"{src} => {sink}," for sink, src in assignment.items()]
        lines.append(f"impl {i} of {s} {{ " + " ".join(body) + " };")
        prev_impl, prev_ins, prev_outs = i, ins, outs
    return "\n".join(lines), f"layer{n_layers - 1}_i"


@pytest.mark.parametrize("seed", range(8))
def test_sugaring_post_condition_on_random_topologies(seed):
    rng = random.Random(1000 + seed)
    source, top = make_topology(rng, rng.randint(1, 3))
    project, ctx = evaluated_project(source, top=f"p.{top}")

    fanouts = {}
    for pkg in project.packages.values():
        for impl in pkg.scope.implements.values():
            if impl.external or impl.is_template or impl.state is not EvalState.EVALUATED:
                continue
            for u in usage_census(impl):
                if u.role == "source" and u.use_count >= 2:
                    fanouts[(impl.id, u.key())] = u.use_count

    sugar_project(ctx, project)

    for pkg in project.packages.values():
        for impl in pkg.scope.implements.values():
            if impl.external or impl.is_template or impl.state is not EvalState.EVALUATED:
                continue
            for u in usage_census(impl):
                if u.owner is None and u.use_count == 0:
                    continue  # untouched external interface
                assert u.use_count == 1, (impl.id, u.key(), u.use_count)
            for name, inst in impl.instances.items():
                if name.startswith("duplicate_"):
                    k = inst.target.streamlet.ports["output"].array_size
                    matches = [c for (i_, key), c in fanouts.items() if i_ == impl.id
                               and name.endswith(f"_{c}") and str(k) == name.rsplit("_", 1)[1]]
                    assert k >= 2


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_sugaring_idempotent(seed):
    rng = random.Random(2000 + seed)
    source, top = make_topology(rng, 2)
    project, ctx = evaluated_project(source, top=f"p.{top}")
    sugar_project(ctx, project)
    once = dump_code_structure(project)
    sugar_project(ctx, project)
    twice = dump_code_structure(project)
    assert once == twice


def test_duplicator_channel_counts_match_fanout():
    project, ctx = evaluated_project(
        "package p;" + BASE +
        "streamlet top_s { input: rgb_stream in, a: rgb_stream out, b: rgb_stream out, "
        "c: rgb_stream out, d: rgb_stream out, };\n"
        "impl top_i of top_s {\n"
        "  input => a,\n  input => b,\n  input => c,\n  input => d,\n"
        "};\n")
    impl = project.packages["p"].scope.implements["top_i"]
    pre = census_map(impl)[(None, None, "input", None)].use_count
    sugar_project(ctx, project)
    dup = impl.instances[f"duplicate_self_input_{pre}"]
    assert dup.target.streamlet.ports["output"].array_size == pre == 4


def test_dataflow_topology_preserved_through_duplicators():
    """Contracting inserted duplicators and deleting voiders recovers the
    pre-sugaring connection relation."""
    source = ("package p;" + BASE +
              "streamlet top_s { input: rgb_stream in, };\n"
              "impl top_i of top_s {\n"
              "  instance l0(leaf_i),\n  instance l1(leaf_i),\n"
              "  input => l0.input,\n  input => l1.input,\n"
              "};\n")
    project, ctx = evaluated_project(source)
    impl = project.packages["p"].scope.implements["top_i"]
    before = {(c.source.key(), c.sink.key()) for c in impl.connections}
    sugar_project(ctx, project)
    # contract: map duplicator output/input ends back to the original source
    contracted = set()
    for c in impl.connections:
        src, snk = c.source, c.sink
        if snk.instance is not None and snk.instance.name.startswith(("duplicate_", "void_")):
            continue
        if src.instance is not None and src.instance.name.startswith("duplicate_"):
            feeder = next(x for x in impl.connections
                          if x.sink.instance is not None
                          and x.sink.instance.name == src.instance.name)
            src = feeder.source
        contracted.add((src.key(), snk.key()))
    assert contracted == before


def fan_out(lanes: int) -> str:
    """A `for` fan-out of `lanes` lanes whose every second input also feeds a
    probe: lanes / 2 duplicators and `lanes` voiders."""
    return ("package p;" + BASE + f"const lanes = {lanes};\n" + """
streamlet tap_s { input: rgb_stream in, output: rgb_stream out, tap: rgb_stream out, };
external impl tap_i of tap_s {};
streamlet probe_s { input: rgb_stream in, };
external impl probe_i of probe_s {};
streamlet fan_s { inputs: rgb_stream [lanes] in, outputs: rgb_stream [lanes] out, };
impl fan_i of fan_s {
  for i in (0=1=>lanes) {
    instance lane_{{i}}(tap_i),
    inputs[i] => lane_{{i}}.input,
    lane_{{i}}.output => outputs[i],
    if ((i % 2) == 0) {
      instance probe_{{i}}(probe_i),
      inputs[i] => probe_{{i}}.input,
    }
  }
};
""")


def test_sugaring_is_linear_in_connections(monkeypatch):
    """Doubling the fan-out width at most about doubles the port-end key
    lookups sugaring makes; rescanning every connection for each duplicator
    would make them grow fourfold."""
    original = EndRef.key

    def key_calls(lanes):
        project, ctx = evaluated_project(fan_out(lanes))
        calls = 0

        def counting(end):
            nonlocal calls
            calls += 1
            return original(end)

        with monkeypatch.context() as m:
            m.setattr(EndRef, "key", counting)
            sugar_project(ctx, project)
        impl = project.packages["p"].scope.implements["fan_i"]
        assert sum(n.startswith("duplicate_") for n in impl.instances) == lanes // 2
        assert sum(n.startswith("void_") for n in impl.instances) == lanes
        return calls

    narrow, wide = key_calls(100), key_calls(200)
    assert wide / narrow <= 2.5, (narrow, wide)


def test_missing_prelude_reported():
    import pytest
    from tydilang.builder import build_project
    from tydilang.context import EvalContext
    from tydilang.errors import TydiError
    from tydilang.parser import parse_project
    from tydilang.pipeline import evaluate_project

    files = [("x.td", "package p;" + BASE +
              "streamlet s { input: rgb_stream in, a: rgb_stream out, b: rgb_stream out, };\n"
              "impl i of s { input => a, input => b, };\n")]
    parsed, diags = parse_project(files)
    assert not diags
    project = build_project("p", parsed)  # deliberately without the prelude
    ctx = EvalContext(project)
    assert not evaluate_project(ctx, project)
    with pytest.raises(TydiError) as exc:
        sugar_project(ctx, project)
    assert "standard-library template" in exc.value.message
