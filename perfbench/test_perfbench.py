"""Self-tests for the benchmark's own code.

    python3 perfbench/test_perfbench.py        # or: python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_symfa()

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from symfa import automaton, bench  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 100) holds a [10, 40) and b [50, 70); a holds c [15, 25)
        tracer = spans.Tracer(FakeClock([0, 10, 15, 25, 40, 50, 70, 100]))
        root = tracer.begin("root")
        a = tracer.begin("a")
        c = tracer.begin("c")
        tracer.end(c)
        tracer.end(a)
        b = tracer.begin("b")
        tracer.end(b)
        tracer.end(root)
        self.assertEqual([s.parent for s in tracer.spans], [-1, root, a, root])
        self.assertEqual(spans.self_times(tracer.spans), [50, 20, 10, 20])

    def test_wrapped_calls_nest_and_count(self):
        tracer = spans.Tracer(FakeClock(range(100)))

        def leaf(x):
            return x + 1

        wrapped_leaf = tracer.wrap(leaf, "leaf", lambda args, result: {"n": result})
        outer = tracer.wrap(lambda: wrapped_leaf(1) + wrapped_leaf(2), "outer")
        self.assertEqual(outer(), 5)
        self.assertEqual([s.name for s in tracer.spans], ["outer", "leaf", "leaf"])
        self.assertEqual([s.parent for s in tracer.spans], [-1, 0, 0])
        self.assertEqual([s.counts for s in tracer.spans], [None, {"n": 2}, {"n": 3}])
        outer_self = spans.self_times(tracer.spans)[0]
        self.assertEqual(outer_self, tracer.spans[0].duration - 2)


class PatchTest(unittest.TestCase):
    def test_wrappers_restored_and_spans_recorded(self):
        before = spans.lookups(layers.TARGETS)
        c = bench.driving_pattern().compiled
        tracer = spans.Tracer()
        with spans.patched(tracer, layers.TARGETS):
            self.assertTrue(all(now is not then for now, then in zip(spans.lookups(layers.TARGETS), before)))
            automaton.acceptance_batch(c, [[[0.5, 0.5, 0.5]] * 4])
        self.assertTrue(all(now is then for now, then in zip(spans.lookups(layers.TARGETS), before)))
        names = [s.name for s in tracer.spans]
        self.assertEqual(names[:3], ["automaton.acceptance_batch", "automaton.forward", "automaton.tensor"])
        self.assertEqual(names.count("circuit.value"), len(c.guards))

    def test_wrappers_restored_when_the_body_raises(self):
        before = spans.lookups(layers.TARGETS)
        with self.assertRaises(ZeroDivisionError):
            with spans.patched(spans.Tracer(), layers.TARGETS):
                1 / 0
        self.assertTrue(all(now is then for now, then in zip(spans.lookups(layers.TARGETS), before)))


class NodeWalkTest(unittest.TestCase):
    def test_driving_reachable_nodes(self):
        counts = layers._nodes((), bench.driving_pattern().compiled)
        self.assertEqual((counts["stored"], counts["reachable"]), (37, 23))


def _digest(wl, work: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(work.iterdir()):
        digest.update(path.name.encode() + path.read_bytes())
    for seq in getattr(wl, "data", []):
        digest.update(seq.features.tobytes() + repr((seq.label, seq.step_labels)).encode())
    for batch in getattr(wl, "batches", []):
        digest.update(batch.tobytes())
    return digest.hexdigest()


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        self.base = run.ROOT / ".bench_work" / "selftest"
        self.base.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.base, ignore_errors=True)

    def inputs(self, name: str, seed: int, tag: str) -> str:
        work = self.base / f"{name}-{seed}-{tag}"
        work.mkdir()
        return _digest(workloads.WORKLOADS[name](work, seed), work)

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                first = self.inputs(name, 3, "a")
                self.assertEqual(first, self.inputs(name, 3, "b"))
                self.assertNotEqual(first, self.inputs(name, 4, "c"))


class RunTest(unittest.TestCase):
    def result(self, trace: int) -> dict:
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.main(["--workload", "train-long", "--seed", "5", "--seconds", "0.1", "--trace", str(trace)])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_end_to_end_result(self):
        result = self.result(0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [name for name, _ in run.END_TO_END])
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_counts_repeat_exactly(self):
        first, second = self.result(1), self.result(1)
        self.assertTrue(first["correct"] and second["correct"])
        self.assertEqual(list(first["metrics"]), [name for name, _ in layers.PER_LAYER])
        exact = [
            "circuit.nodes_stored",
            "circuit.nodes_reachable",
            "circuit.value_calls",
            "circuit.grad_calls",
            "circuit.node_evals",
            "automaton.forward_steps",
            "learn.recursions_per_minibatch",
            "trace.spans",
        ]
        for name in exact:
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)
        self.assertEqual(first["metrics"]["learn.recursions_per_minibatch"]["value"], 3)
        self.assertEqual(first["metrics"]["circuit.nodes_stored"]["value"], 37)


class BenchmarkFileTest(unittest.TestCase):
    def test_names_match_the_code(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], layers.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
