"""Where the benchmark traces symfa, and the per-layer metrics it reports.

Each target is a name one symfa module looks up in the next; the span
name says which layer the callee belongs to. Layers are named after the
modules: cli, logic, automaton, circuit, learn.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from symfa import automaton, bench, circuit, cli, learn

from spans import Span, self_times


def _node_evals(args, result):
    guard, probs = args[0], args[1]
    return {"node_evals": len(guard.nodes) * int(np.prod(np.shape(probs)[:-1]))}


def _steps(args, result):
    return {"steps": int(np.shape(args[1])[-2])}


def _nodes(args, result):
    guards = result.guards.values()
    return {
        "automata": 1,
        "stored": sum(len(g.nodes) for g in guards),
        "reachable": sum(reachable_nodes(g) for g in guards),
    }


def _completed(args, result):
    return {"completed": len(result[1])}


def _records(args, result):
    return {"records": len(result)}


def _unclamped(args, result):
    values = np.asarray(result, dtype=np.float64)
    inside = (values > learn.LOG_CLAMP) & (values < 1.0 - learn.LOG_CLAMP)
    return {"inside": int(inside.sum()), "values": int(values.size)}


TARGETS = [
    (cli, "main", "cli.main", None),
    (bench, "read_sequences_jsonl", "cli.read", _records),
    (cli, "load_sfa", "automaton.load", None),
    (cli, "validate_and_compile", "automaton.validate", _nodes),
    (cli, "acceptance", "automaton.acceptance", _unclamped),
    (cli, "forward", "automaton.forward_seq", None),
    (automaton, "load_sfa", "automaton.load", None),
    (automaton, "parse_formula", "logic.parse", None),
    (automaton, "validate_and_compile", "automaton.validate", _nodes),
    (automaton, "complete_self_loops", "automaton.complete", _completed),
    (automaton, "compile_guard", "circuit.compile", None),
    (circuit, "is_satisfiable", "circuit.check", None),
    (circuit, "is_valid", "circuit.check", None),
    (automaton, "acceptance_batch", "automaton.acceptance_batch", _unclamped),
    (automaton, "forward_alphas", "automaton.forward", _steps),
    (automaton, "transition_tensor", "automaton.tensor", None),
    (automaton, "wmc_batch", "circuit.value", _node_evals),
    (circuit, "_gradient", "circuit.grad", None),
    (learn, "train", "learn.train", None),
    (learn, "acceptance_batch", "automaton.acceptance_batch", _unclamped),
    (learn, "forward_alphas", "automaton.forward", _steps),
    (learn, "backward_gradient", "automaton.backward", None),
    (learn.LinearExtractor, "extract", "learn.extract", None),
]

RECURSIONS = ("automaton.acceptance_batch", "automaton.forward", "automaton.backward")

# (name, unit) in report order; every traced run reports all of them, with
# 0 where the workload never enters the layer.
PER_LAYER = [
    ("circuit.value_s", "s"),
    ("circuit.value_calls", "count"),
    ("circuit.node_evals", "count"),
    ("circuit.grad_s", "s"),
    ("circuit.grad_calls", "count"),
    ("circuit.nodes_stored", "count"),
    ("circuit.nodes_reachable", "count"),
    ("circuit.reachable_ratio", "ratio"),
    ("circuit.compile_s", "s"),
    ("circuit.compile_calls", "count"),
    ("circuit.check_s", "s"),
    ("logic.parse_s", "s"),
    ("automaton.complete_s", "s"),
    ("automaton.completed_states", "count"),
    ("automaton.validate_self_s", "s"),
    ("automaton.tensor_self_s", "s"),
    ("automaton.forward_self_s", "s"),
    ("automaton.forward_steps", "count"),
    ("automaton.backward_self_s", "s"),
    ("learn.extract_s", "s"),
    ("learn.train_self_s", "s"),
    ("learn.recursions_per_minibatch", "count"),
    ("learn.unclamped_frac", "ratio"),
    ("cli.read_s", "s"),
    ("cli.self_s", "s"),
    ("cli.records", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
]


def reachable_nodes(guard) -> int:
    """Nodes of a compiled guard reachable from its root."""
    seen = set()
    stack = [guard.root]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        node = guard.nodes[i]
        if node[0] in (circuit.KIND_SUM, circuit.KIND_PROD):
            stack.extend(node[1])
    return len(seen)


def layer_metrics(
    spans: list[Span],
    rounds: int,
    minibatches: int,
    overhead_pct: float,
) -> dict[str, float]:
    """Per-layer figures for one round of work, from the spans of `rounds` rounds.

    Times are seconds per round; counts are per round and exact, because
    every traced round repeats the same work. `minibatches` is the
    optimizer steps of one round. Node counts are per validated automaton.
    """
    selfs = self_times(spans)
    total = defaultdict(int)  # ns
    own = defaultdict(int)  # ns
    calls = defaultdict(int)
    counters = defaultdict(int)
    recursions = 0
    for span, self_ns in zip(spans, selfs):
        total[span.name] += span.duration
        own[span.name] += self_ns
        calls[span.name] += 1
        for key, value in (span.counts or {}).items():
            counters[key] += value
        if span.name in RECURSIONS and span.parent >= 0 and spans[span.parent].name == "learn.train":
            recursions += 1

    def seconds(ns: int) -> float:
        return ns / 1e9 / rounds

    def per_round(n: int) -> float:
        return n / rounds

    automata = counters["automata"]
    return {
        "circuit.value_s": seconds(own["circuit.value"]),
        "circuit.value_calls": per_round(calls["circuit.value"]),
        "circuit.node_evals": per_round(counters["node_evals"]),
        "circuit.grad_s": seconds(total["circuit.grad"]),
        "circuit.grad_calls": per_round(calls["circuit.grad"]),
        "circuit.nodes_stored": counters["stored"] / automata if automata else 0.0,
        "circuit.nodes_reachable": counters["reachable"] / automata if automata else 0.0,
        "circuit.reachable_ratio": (
            counters["reachable"] / counters["stored"] if counters["stored"] else 0.0
        ),
        "circuit.compile_s": seconds(total["circuit.compile"]),
        "circuit.compile_calls": per_round(calls["circuit.compile"]),
        "circuit.check_s": seconds(total["circuit.check"]),
        "logic.parse_s": seconds(total["logic.parse"]),
        "automaton.complete_s": seconds(total["automaton.complete"]),
        "automaton.completed_states": per_round(counters["completed"]),
        "automaton.validate_self_s": seconds(own["automaton.validate"]),
        "automaton.tensor_self_s": seconds(own["automaton.tensor"]),
        "automaton.forward_self_s": seconds(own["automaton.forward"]),
        "automaton.forward_steps": per_round(counters["steps"]),
        "automaton.backward_self_s": seconds(own["automaton.backward"]),
        "learn.extract_s": seconds(total["learn.extract"]),
        "learn.train_self_s": seconds(own["learn.train"]),
        "learn.recursions_per_minibatch": (
            recursions / (minibatches * rounds) if minibatches else 0.0
        ),
        "learn.unclamped_frac": (
            counters["inside"] / counters["values"] if counters["values"] else 0.0
        ),
        "cli.read_s": seconds(total["cli.read"]),
        "cli.self_s": seconds(own["cli.main"]),
        "cli.records": per_round(counters["records"]),
        "trace.spans": per_round(len(spans)),
        "trace.overhead_pct": overhead_pct,
    }
