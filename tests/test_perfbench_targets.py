"""The names the benchmark's traced pass wraps must keep resolving.

`perfbench/run.py --trace 1` wraps every (owner, attr) in
`perfbench/layers.py`'s TARGETS and counts stored and reachable guard
nodes through the circuit's KIND_* names; a renamed or deleted name makes
it die with AttributeError. It also counts the records a CLI call reads
with len() on what `bench.read_sequences_jsonl` returns.
"""

import importlib
import io
from pathlib import Path

from symfa import bench, circuit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
