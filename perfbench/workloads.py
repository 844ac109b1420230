"""Seeded workload generators and the oracles that check their compiles.

Each generator returns a `Workload`: the in-memory sources handed to
`tydilang.compile_sources`, the compile options, and the facts the oracle
expects. The expected facts come from the generator's own topology (or, for
`tpch_multi`, from the published TPC-H query-1 bit widths), never from the
compiler under test.

The seed changes only which of several equal-sized variants is generated
(file order, which lanes fan out, which outputs stay unread), so the amount
of work per compile is the same for every seed.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field

NAMES = ("tpch_multi", "fanout_sugar", "deep_hier")

TPCH_COPIES = 12
FANOUT_LANES = 1000
FANOUT_MODULUS = 2
HIER_LEVELS = 12
HIER_LEAVES = 6


@dataclass
class Workload:
    name: str
    sources: list[tuple[str, str]]
    top: str | None  # also emits circuit.dot when set
    expect: dict = field(default_factory=dict)


def config(w: Workload, jobs: int = 1):
    """Compile options: every artifact the workload can produce, kept in
    memory (no output directory) so disk speed stays out of the timings."""
    from tydilang import CompileConfig
    return CompileConfig(inputs=[], project_name="bench", output_dir=None,
                         top=w.top, emit_drc=True, emit_dot=w.top is not None,
                         emit_ir=True, jobs=jobs)


def tpch_path(root: str) -> str:
    return os.path.join(root, "tests", "data", "tpch1.td")


def generate(name: str, seed: int, root: str, scale: float = 1.0) -> Workload:
    """Build workload `name` from `seed`. `scale` < 1 shrinks it for smoke
    tests; the benchmark itself always runs at scale 1."""
    rng = random.Random(f"{name}:{seed}")
    if name == "tpch_multi":
        with open(tpch_path(root), encoding="utf-8") as f:
            text = f.read()
        return _tpch_multi(rng, text, max(1, round(TPCH_COPIES * scale)))
    if name == "fanout_sugar":
        return _fanout_sugar(rng, max(FANOUT_MODULUS, round(FANOUT_LANES * scale)))
    if name == "deep_hier":
        return _deep_hier(rng, max(2, round(HIER_LEVELS * scale)))
    raise ValueError(f"unknown workload {name!r}")


# -- tpch_multi: the paper's TPC-H query-1 design, many packages --------------


def _tpch_multi(rng: random.Random, text: str, copies: int) -> Workload:
    if not text.startswith("package std;"):
        raise ValueError("tpch1.td no longer starts with `package std;`")
    order = list(range(copies))
    rng.shuffle(order)
    sources = [(f"tpch_{k:02d}.td", text.replace("package std;", f"package p{k};", 1))
               for k in order]
    return Workload("tpch_multi", sources, top=None,
                    expect={"packages": [f"p{k}" for k in range(copies)]})


# TPC-H query 1 widths: ceil(log2(10^15 - 1)) = 50, ceil(log2(10^5 - 1)) = 17,
# ceil(log2(12)) = 4, ceil(log2(31)) = 5; compare_date feeds 14 filters.
TPCH_FACTS = ("bit_width_decimal_15:int(50)", "year:Bit(17)", "month:Bit(4)",
              "day:Bit(5)")
TPCH_DUPLICATOR = "duplicate_compare_date_output_14"


def _check_tpch(w: Workload, artifacts: dict[str, str]) -> list[str]:
    problems = []
    sections = _package_sections(artifacts["2_evaluation_output.txt"])
    ir = json.loads(artifacts["ir.json"])["packages"]
    for pkg in w.expect["packages"]:
        section = sections.get(pkg, "")
        for fact in TPCH_FACTS:
            if fact not in section:
                problems.append(f"{pkg}: {fact} missing from 2_evaluation_output.txt")
        impl = ir.get(pkg, {}).get("implementations", {}).get("data_filter_i", {})
        dups = [n for n in impl.get("instances", {})
                if n.startswith("duplicate_compare_date")]
        if dups != [TPCH_DUPLICATOR]:
            problems.append(f"{pkg}: data_filter_i duplicators {dups}")
    return problems


def _package_sections(dump: str) -> dict[str, str]:
    """Split a code-structure dump into its top-level `Package(name){` blocks."""
    sections = {}
    for block in re.split(r"^  (?=Package\()", dump, flags=re.M)[1:]:
        sections[block[len("Package("):block.index(")")]] = block
    return sections


# -- fanout_sugar: one wide `for` fan-out that sugaring must plumb ------------

FANOUT_HEAD = """\
package fan;

type Group pixel {{
  r: Bit(8),
  g: Bit(8),
  b: Bit(8),
}};
type pixel_stream = Stream(pixel, d = 1);
const lanes = {lanes};

streamlet tap_s<t: type> {{
  input: t in,
  output: t out,
  tap: t out,
}};
external impl tap_i<t: type> of tap_s<type t> {{
}};

streamlet probe_s<t: type> {{
  input: t in,
}};
external impl probe_i<t: type> of probe_s<type t> {{
}};

streamlet fan_s {{
  inputs: pixel_stream [lanes] in,
  outputs: pixel_stream [lanes] out,
}};
"""


def _fanout_sugar(rng: random.Random, lanes: int) -> Workload:
    # Every lane's `tap` output is unread (one voider each). Lanes with
    # i % m == r also feed a probe, so their input fans out to two sinks
    # (one duplicator each). m is fixed so every seed inserts as many.
    m, r = FANOUT_MODULUS, rng.randrange(FANOUT_MODULUS)
    lane = ["    instance lane_{{i}}(tap_i<type pixel_stream>),\n",
            "    inputs[i] => lane_{{i}}.input,\n",
            "    lane_{{i}}.output => outputs[i],\n"]
    probe = (f"    if ((i % {m}) == {r}) {{\n"
             "      instance probe_{{i}}(probe_i<type pixel_stream>),\n"
             "      inputs[i] => probe_{{i}}.input,\n"
             "    }\n")
    body = lane + [probe] if rng.random() < 0.5 else [probe] + lane
    text = (FANOUT_HEAD.format(lanes=lanes) + "\nimpl fan_i of fan_s {\n"
            "  for i in (0=1=>lanes) {\n" + "".join(body) + "  }\n};\n")
    probes = sum(1 for i in range(lanes) if i % m == r)
    expect = {
        "duplicators": {"fan_i": probes},
        "voiders": {"fan_i": lanes},
        "flat_duplicators": probes,
        "flat_voiders": lanes,
        "components": 1 + 2 * lanes + 2 * probes,
        "nets": 3 * lanes + 2 * probes,
    }
    return Workload("fanout_sugar", [("fan.td", text)], top="fan.fan_i",
                    expect=expect)


# -- deep_hier: a deep binary instance tree that flattening must walk ---------

HIER_HEAD = """\
package hier;

type Group word {
  hi: Bit(16),
  lo: Bit(16),
};
type word_stream = Stream(word, d = 1);

streamlet leaf_s {
  input: word_stream in,
  side: word_stream in,
  output: word_stream out,
  aux: word_stream out,
};
external impl leaf_i of leaf_s {
};

streamlet node_s {
  input: word_stream in,
  output: word_stream out,
};
"""


def _deep_hier(rng: random.Random, levels: int) -> Workload:
    parts = [HIER_HEAD]
    nets_per_node = []  # for each level
    for level in range(levels):
        leaves = [f"lf{k}" for k in range(HIER_LEAVES)]
        children = ["c0", "c1"] if level > 0 else []
        lines = [f"impl node_{level}_i of node_s {{\n"]
        lines += [f"  instance {c}(node_{level - 1}_i),\n" for c in children]
        lines += [f"  instance {lf}(leaf_i),\n" for lf in leaves]
        # the data path threads every child and leaf in a seeded order
        chain = children + leaves
        rng.shuffle(chain)
        sources = ["input"] + [f"{s}.output" for s in chain]
        sinks = [f"{s}.input" for s in chain] + ["output"]
        lines += [f"  {a} => {b},\n" for a, b in zip(sources, sinks)]
        # side inputs read aux outputs: two aux outputs are read twice
        # (duplicator), two once, and two never (voider)
        aux = list(leaves)
        rng.shuffle(aux)
        twice, once, unread = aux[:2], aux[2:4], aux[4:]
        feeds = twice + twice + once
        rng.shuffle(feeds)
        lines += [f"  {d}.aux => {lf}.side,\n" for d, lf in zip(feeds, leaves)]
        lines.append("};\n")
        parts.append("\n" + "".join(lines))
        # the chain, a feed and two outputs per duplicator, one net per
        # single read and one into each voider
        nets_per_node.append(len(chain) + 1 + 3 * len(twice) + len(once) + len(unread))
    nodes = 2 ** levels - 1
    expect = {
        "duplicators": {f"node_{lv}_i": 2 for lv in range(levels)},
        "voiders": {f"node_{lv}_i": 2 for lv in range(levels)},
        "flat_duplicators": 2 * nodes,
        "flat_voiders": 2 * nodes,
        "components": nodes * (1 + HIER_LEAVES + 2 + 2),
        "nets": sum(2 ** (levels - 1 - lv) * n for lv, n in enumerate(nets_per_node)),
    }
    return Workload("deep_hier", [("hier.td", "".join(parts))],
                    top=f"hier.node_{levels - 1}_i", expect=expect)


# -- oracles --------------------------------------------------------------------


def check(w: Workload, exit_code: int, artifacts: dict[str, str]) -> list[str]:
    """Problems found in one compile's outputs; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems = []
    match = re.search(r"^(\d+) errors, (\d+) warnings$",
                      artifacts.get("drc_report.txt", ""), re.M)
    if match is None:
        problems.append("drc_report.txt has no summary line")
    elif match.group(1) != "0":
        problems.append(f"{match.group(1)} DRC errors")
    if "ir.json" not in artifacts:
        return problems + ["ir.json missing"]
    if w.name == "tpch_multi":
        return problems + _check_tpch(w, artifacts)
    if "circuit.dot" not in artifacts:
        return problems + ["circuit.dot missing"]
    return problems + _check_sugared(w, artifacts)


def _check_sugared(w: Workload, artifacts: dict[str, str]) -> list[str]:
    problems = []
    pkg = w.top.split(".")[0]
    impls = json.loads(artifacts["ir.json"])["packages"][pkg]["implementations"]
    for kind, prefix in (("duplicators", "duplicator_i@"), ("voiders", "void_i@")):
        for impl_id, want in w.expect[kind].items():
            instances = impls.get(impl_id, {}).get("instances", {})
            got = sum(1 for inst in instances.values()
                      if inst["target"].startswith(prefix))
            if got != want:
                problems.append(f"{impl_id}: {got} {kind}, expected {want}")
    got = dot_counts(artifacts["circuit.dot"])
    for key in ("components", "nets", "flat_duplicators", "flat_voiders"):
        if got[key] != w.expect[key]:
            problems.append(f"circuit.dot: {got[key]} {key}, expected {w.expect[key]}")
    return problems


_DOT_NODE = re.compile(r"^(\w+) \[(?:color=red, )?shape=record", re.M)


def dot_counts(dot: str) -> dict[str, int]:
    names = _DOT_NODE.findall(dot)
    last = [n.rsplit("__", 1)[-1] for n in names]
    return {
        "components": len(names),
        "nets": dot.count(" -> "),
        "flat_duplicators": sum(1 for s in last if s.startswith("duplicate_")),
        "flat_voiders": sum(1 for s in last if s.startswith("void_")),
    }
