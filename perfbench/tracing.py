"""Spans and counts recorded around tydilang's public functions.

Nothing inside the compiler is changed: `Tracer.installed()` swaps the
module attributes that the pipeline calls through for wrappers and restores
them on exit. Spans stay in memory until the benchmark writes them out.

A layer is a tydilang module. A span's self time is its duration minus that
of its direct child spans, so `parse_project` excludes `tokenize`, and the
root `compile` span's self time is the orchestration left in `pipeline`.
Pauses of the interpreter's cyclic garbage collector are spans of their own
(layer `gc`): they take about 19% of a tpch_multi compile (CPython 3.11 on
a 2-vCPU x86-64 VM) and would otherwise land in whichever layer happened to
allocate when a collection was due.
"""

from __future__ import annotations

import contextlib
import gc
import time
from collections import Counter

import tydilang.context
import tydilang.elaboration
import tydilang.parser
import tydilang.pipeline
import tydilang.sugaring

# (module, attribute, layer) of every timed function. Pipeline-level names
# are patched in `tydilang.pipeline`, where `compile_sources` looks them up,
# so only top-level calls are timed (dump_ast recurses inside `tree`).
SPANNED = [
    (tydilang.pipeline, "parse_project", "parser"),
    (tydilang.parser, "tokenize", "lexer"),
    (tydilang.pipeline, "dump_ast", "tree"),
    (tydilang.pipeline, "build_project", "builder"),
    (tydilang.pipeline, "evaluate_project", "elaboration"),
    (tydilang.pipeline, "sugar_project", "sugaring"),
    (tydilang.pipeline, "run_drc", "drc"),
    (tydilang.pipeline, "dump_code_structure", "dump"),
    (tydilang.pipeline, "flatten", "emit"),
    (tydilang.pipeline, "emit_dot", "emit"),
    (tydilang.pipeline, "emit_ir", "emit"),
]

# per-layer time metric -> name of the spans whose self times it sums
TIME_METRICS = {
    "lexer.tokenize_s": "tokenize",
    "parser.parse_s": "parse_project",
    "tree.dump_ast_s": "dump_ast",
    "builder.build_s": "build_project",
    "elaboration.evaluate_s": "evaluate_project",
    "sugaring.sugar_s": "sugar_project",
    "drc.drc_s": "run_drc",
    "dump.dump_s": "dump_code_structure",
    "emit.flatten_s": "flatten",
    "emit.dot_s": "emit_dot",
    "emit.ir_s": "emit_ir",
    "pipeline.other_s": "compile",
    "gc.collect_s": "gc",
}

# Every per-layer metric: its unit, the workload whose compile_s it should
# move, and one on which it should leave compile_s unmoved. The layer is the
# name's prefix; `trace.*` describe the tracing itself.
PER_LAYER = {
    "lexer.tokenize_s": ("s", "tpch_multi", "fanout_sugar"),
    "lexer.tokens": ("count", "tpch_multi", "fanout_sugar"),
    "lexer.tokens_per_s": ("1/s", "tpch_multi", "fanout_sugar"),
    "parser.parse_s": ("s", "tpch_multi", "fanout_sugar"),
    "parser.ast_nodes": ("count", "tpch_multi", "fanout_sugar"),
    "tree.dump_ast_s": ("s", "tpch_multi", "fanout_sugar"),
    "builder.build_s": ("s", "tpch_multi", "fanout_sugar"),
    "elaboration.evaluate_s": ("s", "fanout_sugar", "deep_hier"),
    "elaboration.entities_evaluated": ("count", "fanout_sugar", "deep_hier"),
    "elaboration.for_blocks": ("count", "fanout_sugar", "deep_hier"),
    "elaboration.substitute_calls": ("count", "fanout_sugar", "deep_hier"),
    "context.begin_calls": ("count", "fanout_sugar", "deep_hier"),
    "elaboration.template_calls": ("count", "fanout_sugar", "tpch_multi"),
    "elaboration.template_instances": ("count", "fanout_sugar", "tpch_multi"),
    "elaboration.template_memo_hit_ratio": ("ratio", "fanout_sugar", "tpch_multi"),
    "sugaring.sugar_s": ("s", "fanout_sugar", "tpch_multi"),
    "sugaring.duplicators": ("count", "fanout_sugar", "tpch_multi"),
    "sugaring.voiders": ("count", "fanout_sugar", "tpch_multi"),
    "drc.drc_s": ("s", "fanout_sugar", "deep_hier"),
    "drc.errors": ("count", "fanout_sugar", "deep_hier"),
    "drc.warnings": ("count", "fanout_sugar", "deep_hier"),
    "dump.dump_s": ("s", "tpch_multi", "deep_hier"),
    "dump.bytes": ("count", "tpch_multi", "deep_hier"),
    "emit.flatten_s": ("s", "deep_hier", "tpch_multi"),
    "emit.components": ("count", "deep_hier", "tpch_multi"),
    "emit.nets": ("count", "deep_hier", "tpch_multi"),
    "emit.dot_s": ("s", "deep_hier", "tpch_multi"),
    "emit.dot_bytes": ("count", "deep_hier", "tpch_multi"),
    "emit.ir_s": ("s", "tpch_multi", "deep_hier"),
    "emit.ir_bytes": ("count", "tpch_multi", "deep_hier"),
    "pipeline.other_s": ("s", "all", "none"),
    "gc.collect_s": ("s", "tpch_multi", "fanout_sugar"),
    "gc.collections": ("count", "tpch_multi", "fanout_sugar"),
    "trace.compile_s": ("s", "all", "none"),
    "trace.overhead_s": ("s", "all", "none"),
}

COUNT_METRICS = tuple(k for k, (unit, _, _) in PER_LAYER.items() if unit == "count")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._compile = -1
        self._counts: Counter = Counter()
        self._instances: set[int] = set()
        self._seen: dict = {}  # objects the counts are read from afterwards

    def _span(self, name: str, layer: str):
        span = {"compile": self._compile, "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name, "layer": layer, "start": 0.0, "end": 0.0}
        self.spans.append(span)
        return span

    def _timed(self, fn, name: str, layer: str):
        def wrapper(*args, **kwargs):
            span = self._span(name, layer)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            # bookkeeping below is charged to the parent span, never to this one
            if name == "tokenize":
                self._counts["lexer.tokens"] += len(result)
            elif name in ("parse_project", "flatten"):
                self._seen[name] = result
            elif name == "evaluate_project":
                self._seen["ctx"] = args[0]
            return result
        return wrapper

    def _on_gc(self, phase: str, info: dict):
        if not self._stack:
            return  # only collections inside a traced compile are spans
        if phase == "start":
            span = self._span("gc", "gc")
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
        else:
            span = self.spans[self._stack.pop()]
            span["end"] = time.perf_counter()
            self._counts["gc.collections"] += 1

    def _counted(self):
        counts, instances = self._counts, self._instances
        elab, sugaring = tydilang.elaboration, tydilang.sugaring
        instantiate = elab.instantiate_template
        expand_for = elab.expand_for
        substitute = elab.substitute
        sugar_instantiate = sugaring.instantiate_template
        begin = tydilang.context.EvalContext.begin

        def counted_instantiate(ctx, template, args):
            counts["elaboration.template_calls"] += 1
            entity = instantiate(ctx, template, args)
            instances.add(id(entity))
            return entity

        def counted_expand_for(*args):
            counts["elaboration.for_blocks"] += 1
            return expand_for(*args)

        def counted_substitute(*args):
            counts["elaboration.substitute_calls"] += 1
            return substitute(*args)

        def counted_sugar_instantiate(ctx, template, args):
            if template.id == sugaring.DUPLICATOR_IMPL:
                counts["sugaring.duplicators"] += 1
            elif template.id == sugaring.VOIDER_IMPL:
                counts["sugaring.voiders"] += 1
            return sugar_instantiate(ctx, template, args)

        def counted_begin(ctx, node, label):
            counts["context.begin_calls"] += 1
            return begin(ctx, node, label)

        return [
            (elab, "instantiate_template", counted_instantiate),
            (elab, "expand_for", counted_expand_for),
            (elab, "substitute", counted_substitute),
            (sugaring, "instantiate_template", counted_sugar_instantiate),
            (tydilang.context.EvalContext, "begin", counted_begin),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        patches = [(mod, attr, self._timed(getattr(mod, attr), attr, layer))
                   for mod, attr, layer in SPANNED] + self._counted()
        saved = [(mod, attr, mod.__dict__[attr]) for mod, attr, _ in patches]
        gc.callbacks.append(self._on_gc)
        try:
            for mod, attr, fn in patches:
                setattr(mod, attr, fn)
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def compile(self, compile_fn):
        """Run `compile_fn()` under a root span; return its result and this
        compile's per-layer metrics."""
        self._compile += 1
        self._counts.clear()
        self._instances.clear()
        first = len(self.spans)
        result = self._timed(compile_fn, "compile", "pipeline")()
        metrics = self._metrics(self.spans[first:], result)
        self._seen.clear()  # let the compiled project go before the next compile
        return result, metrics

    def _metrics(self, spans: list[dict], result) -> dict[str, float]:
        self_time = {s["id"]: s["end"] - s["start"] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                self_time[s["parent"]] -= s["end"] - s["start"]
        by_name = Counter()
        for s in spans:
            by_name[s["name"]] += self_time[s["id"]]
        out = {metric: by_name[name] for metric, name in TIME_METRICS.items()}
        out["trace.compile_s"] = spans[0]["end"] - spans[0]["start"]
        out["lexer.tokens_per_s"] = (self._counts["lexer.tokens"] / out["lexer.tokenize_s"]
                                     if out["lexer.tokenize_s"] > 0 else 0.0)

        counts = Counter(self._counts)
        counts["elaboration.template_instances"] = len(self._instances)
        parsed = self._seen.get("parse_project")
        if parsed is not None:
            counts["parser.ast_nodes"] = sum(_ast_size(pf.ast) for pf in parsed[0].values())
        ctx = self._seen.get("ctx")
        if ctx is not None:
            counts["elaboration.entities_evaluated"] = sum(ctx.eval_counts.values())
        circuit = self._seen.get("flatten")
        if circuit is not None:
            counts["emit.components"] = len(circuit.components)
            counts["emit.nets"] = len(circuit.nets)
        severities = Counter(d.severity for d in result.drc_diagnostics)
        counts["drc.errors"] = severities["Error"]
        counts["drc.warnings"] = severities["Warning"]
        arts = result.artifacts
        counts["dump.bytes"] = sum(len(arts.get(n, "").encode()) for n in (
            "1_parser_output.txt", "2_evaluation_output.txt",
            "2_evaluation_output_after_sugaring.txt"))
        counts["emit.dot_bytes"] = len(arts.get("circuit.dot", "").encode())
        counts["emit.ir_bytes"] = len(arts.get("ir.json", "").encode())
        out.update((name, counts[name]) for name in COUNT_METRICS)
        calls = counts["elaboration.template_calls"]
        out["elaboration.template_memo_hit_ratio"] = (
            (calls - counts["elaboration.template_instances"]) / calls if calls else 0.0)
        return out


def _ast_size(node) -> int:
    n, stack = 0, [node]
    while stack:
        cur = stack.pop()
        n += 1
        stack.extend(cur.children)
    return n
