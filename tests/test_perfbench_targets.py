"""The names the benchmark's traced pass wraps must keep resolving.

`perfbench/run.py --trace 1` wraps every (owner, attr) in
`perfbench/layers.py`'s TARGETS and counts stored and reachable guard
nodes through the circuit's KIND_* names; a renamed or deleted name makes
it die with AttributeError. It also counts the records a CLI call reads
with len() on what `bench.read_sequences_jsonl` returns.

The other way round, an import kept unused (`# noqa: F401`) in `symfa`
is there only for a target, and goes when the target goes; every other
import in a `symfa` module must be used, so a deletion leaves none behind.

The benchmark's own self-tests run here too: none may fail but the three
that assert figures of code changed since (ROADMAP item 1 part A mends
them), so a change to `symfa` cannot break one that passes today.
"""

import ast
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import symfa
from symfa import bench, circuit

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
STALE_SELF_TESTS = {
    "NodeWalkTest.test_driving_reachable_nodes",
    "PatchTest.test_wrappers_restored_and_spans_recorded",
    "RunTest.test_traced_counts_repeat_exactly",
}


def test_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    for owner, attr, *_ in layers.TARGETS:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr}"
    assert isinstance(circuit.KIND_SUM, str) and isinstance(circuit.KIND_PROD, str)


def test_read_sequences_returns_a_list():
    # the traced pass counts records with len() on the result
    records = bench.read_sequences_jsonl(io.StringIO('{"probs": [[0.5]]}\n\n{"probs": []}\n'))
    assert isinstance(records, list) and len(records) == 2


def test_unused_imports_are_trace_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    targets = {(owner.__name__, attr) for owner, attr, *_ in layers.TARGETS}
    kept = []
    for path in sorted(Path(symfa.__file__).parent.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        module = "symfa" if path.stem == "__init__" else f"symfa.{path.stem}"
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]:
                kept += [(module, alias.asname or alias.name) for alias in node.names]
    missing = [f"{module}.{name}" for module, name in kept if (module, name) not in targets]
    assert not missing, f"unused imports no trace target names: {missing}"


def test_imports_are_used_or_kept_for_a_target():
    unused = []
    for path in sorted(Path(symfa.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        tree = ast.parse("\n".join(lines))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            unused += [f"{path.stem}:{node.lineno} {name}" for name in names if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_no_perfbench_self_test_fails_but_the_stale_ones():
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "test_perfbench.py")],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    summary = re.search(r"^Ran \d+ tests? in .*\n\n(OK|FAILED .*)$", run.stderr, re.M)
    assert summary, run.stderr[-3000:]
    # unittest names a failure `FAIL: test (__main__.Class.test)`, or an
    # error in a fixture `ERROR: setUpClass (__main__.Class)`, and counts
    # them in its summary
    failed = re.findall(r"^(?:FAIL|ERROR): (\w+) \((?:__main__\.)?(\w+)", run.stderr, re.M)
    counted = re.findall(r"[(,] ?(?:failures|errors)=(\d+)", summary.group(1))
    assert len(failed) == sum(map(int, counted)), run.stderr[-3000:]
    unexpected = {f"{cls}.{test}" for test, cls in failed} - STALE_SELF_TESTS
    assert not unexpected, run.stderr[-3000:]
