"""Whether checkouts of symfa run, train and infer bitwise alike.

    python3 tools/same_training.py OLD NEW [NEW ...]

Runs one child Python per checkout, with PYTHONPATH=<checkout>/src, so
each imports its own symfa and nothing of the benchmark, and compares
each NEW checkout with OLD. Each child prints six sha256 digests:

- recursions: the outputs of forward_alphas, acceptance_batch and
  backward_gradient (with S = T and with S = T // 2 gradient steps) at
  16 × 300 and 256 × 30, on driving, events, random:8x10:2,
  random:16x6:0 and random:64x12:0 as the runs pick their form, and on
  driving and random:8x10:2 with FLOW_MAX_TRANSITIONS forced to 0, so
  that both forms of each recursion are covered;
- training: the benchmark's train-wide and train-long configurations,
  built with symfa.bench, whose minibatches each hold one length;
- mixed: mixed-length sets (lengths 3, 5 and 9 interleaved) on driving,
  random:8x10:2 and random:64x12:0, with both label kinds and batch
  sizes 1, 7, 32 and 100;
- infer: the CSV bytes `symfa infer` writes in both modes, and the
  float64 alphas its forward recursion gives them (each record's last
  alpha in accept mode, every alpha in tag mode), so that a change below
  the CSV's 6 decimals shows too; on events (flow form) and on
  random:64x12:0 (125 kept transitions, gather form), each on a file of
  40 records of 30 steps and on one of 102 records of lengths drawn from
  0–300, zero-step records among them, the latter also with BLOCK_ROWS
  at 64, so that blocks split runs of one width;
- losses: the loss, dW and db sequence_loss (both labels) and
  tagging_loss return on driving, events, random:8x10:2 and
  random:64x12:0, for sequences of 1, 7 and 30 steps, with one extractor
  whose probabilities are moderate and one whose probabilities mostly lie
  within 1e-9 of 0 or 1, so that the clamp inside the log is reached;
- errors: the exit status, stdout and stderr of `symfa infer`, both
  modes, on driving and a fixed set of bad files: a record out of range
  first, in the middle, in the last row of the last record and after
  zero-step records; a NaN; an out-of-range record before a line that is
  not JSON; and a record of the wrong feature width under `--model`.

Both training digests hash the weights, the bias and every EpochRecord
of every run. Kept apart, they let a change to how minibatches of
several lengths train show the equal-length digest unchanged while the
mixed one moves.

Prints one line of digests per checkout, and on stderr
`NEW: recursions differ`, `NEW: training differ`, `NEW: mixed differ`,
`NEW: infer differ`, `NEW: losses differ` or `NEW: errors differ` for
each digest of a NEW checkout that is not OLD's.
Exits 0 when every NEW checkout agrees with OLD, 1 when one differs, and
2 when a child fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

TOOLS = Path(__file__).resolve().parent
# the digests, in the order each line prints them
PARTS = ("recursions", "training", "mixed", "infer", "losses", "errors")


def _path_labels(c, truth, skip: int | None = None) -> list:
    """The states a (steps, symbols) boolean trace visits; with `skip`,
    steps t with t % 4 == skip are unlabeled."""
    from symfa import automaton
    from symfa.logic import Interpretation

    masks = [sum(1 << i for i, bit in enumerate(row) if bit) for row in truth]
    path = automaton.boolean_run(c, [Interpretation(m, len(c.vocab)) for m in masks])
    return [None if t % 4 == skip else q for t, q in enumerate(path)]


def _mixed(c, tagging: bool, rng):
    """60 noisy random boolean traces of lengths 3, 5 and 9 interleaved,
    labeled by the states they visit, or by a coin for sequence labels."""
    from symfa import bench
    from symfa.learn import LabeledSequence

    data = []
    for k in range(60):
        truth = rng.random(((3, 5, 9)[k % 3], len(c.vocab))) < 0.5
        features = bench.encode_trace(truth, bench.DEFAULT_NOISE, rng)
        if tagging:
            data.append(LabeledSequence(features, step_labels=_path_labels(c, truth, k % 4)))
        else:
            data.append(LabeledSequence(features, label=int(rng.integers(0, 2))))
    return data


def _equal_runs():
    """(compiled automaton, labeled data, TrainConfig) of the benchmark's
    train-wide and train-long configurations: one length per minibatch."""
    from symfa import bench
    from symfa.learn import LabeledSequence, TrainConfig

    wide = bench.random_pattern(8, 10, 2)
    data = bench.generate_dataset(wide, 30, 256, 256, seed=1).labeled()
    yield wide.compiled, data, TrainConfig(batch_size=256, max_epochs=2, patience=2, seed=1)
    c = bench.driving_pattern().compiled
    data = [
        LabeledSequence(seq.features, step_labels=_path_labels(c, seq.clean_trace))
        for seq in bench.generate_dataset(bench.driving_pattern(), 300, 32, 32, seed=1).sequences
    ]
    yield c, data, TrainConfig(batch_size=16, max_epochs=2, patience=2, seed=1)


def _mixed_runs():
    """(compiled automaton, labeled data, TrainConfig) of every mixed-length run."""
    import numpy as np
    from symfa import bench
    from symfa.learn import TrainConfig

    rng = np.random.default_rng(0)
    patterns = (bench.driving_pattern(), bench.random_pattern(8, 10, 2))
    for pattern in patterns + (bench.random_pattern(64, 12, 0),):
        for tagging in (False, True):
            data = _mixed(pattern.compiled, tagging, rng)
            for batch in (1, 7, 32, 100):
                cfg = TrainConfig(batch_size=batch, max_epochs=3, patience=3)
                yield pattern.compiled, data, cfg


def _recursion_cases():
    """Compiled automata for the recursion digest: five in the form their
    runs pick, then driving and random:8x10:2 compiled with
    FLOW_MAX_TRANSITIONS forced to 0."""
    from symfa import automaton, bench

    driving, wide = bench.driving_pattern(), bench.random_pattern(8, 10, 2)
    for pattern in (
        driving,
        bench.events_pattern(),
        wide,
        bench.random_pattern(16, 6, 0),
        bench.random_pattern(64, 12, 0),
    ):
        yield pattern.compiled
    saved = automaton.FLOW_MAX_TRANSITIONS
    automaton.FLOW_MAX_TRANSITIONS = 0
    try:
        for pattern in (driving, wide):
            c = automaton.validate_and_compile(pattern.sfa)
            c._plan  # the plan is built on first use: build it inside the override
            yield c
    finally:
        automaton.FLOW_MAX_TRANSITIONS = saved


def recursion_digest() -> str:
    """sha256 over the recursion cores' outputs on every recursion case."""
    import numpy as np
    from symfa import automaton

    h = hashlib.sha256()
    for c in _recursion_cases():
        rng = np.random.default_rng(0)
        for width, steps in ((16, 300), (256, 30)):
            ps = rng.uniform(size=(width, steps, len(c.vocab)))
            alphas = automaton.forward_alphas(c, ps)
            h.update(alphas.tobytes())
            h.update(automaton.acceptance_batch(c, ps).tobytes())
            for last in (steps, steps // 2):
                grads = rng.normal(size=(width, last, c.num_states))
                h.update(automaton.backward_gradient(c, ps, grads, alphas).tobytes())
    return h.hexdigest()


def training_digest(runs=_equal_runs) -> str:
    """sha256 over each of `runs`' trained weights, bias and epoch history."""
    from symfa import learn

    h = hashlib.sha256()
    for c, data, cfg in runs():
        result = learn.train(c, data, cfg)
        h.update(result.extractor.weights.tobytes())
        h.update(result.extractor.bias.tobytes())
        for rec in result.history:
            h.update(struct.pack("<qdd", rec.epoch, rec.loss, rec.metric))
    return h.hexdigest()


def mixed_digest() -> str:
    """training_digest over the mixed-length runs."""
    return training_digest(_mixed_runs)


def infer_digest() -> str:
    """sha256 over the CSV `symfa infer` writes, both modes, on every file,
    and over the alphas of each forward recursion it runs."""
    import numpy as np
    from symfa import automaton, bench, cli, format_sfa

    block_rows, run = automaton.BLOCK_ROWS, automaton._run_forward
    h = hashlib.sha256()

    # cmd_infer looks the core up at call time: hash the float64 alphas it
    # returns (accept mode) or writes to `out` (tag mode)
    def hashed(c, packed, rows, out=None):
        final = run(c, packed, rows, out)
        h.update((final if out is None else out).tobytes())
        return final

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(automaton, "_run_forward", hashed):
        spec, data, out = (Path(tmp) / name for name in ("spec.sfa", "records.jsonl", "out.csv"))
        for pattern in (bench.events_pattern(), bench.random_pattern(64, 12, 0)):
            rng = np.random.default_rng(0)
            width = len(pattern.sfa.vocab)
            equal = [rng.uniform(size=(30, width)) for _ in range(40)]
            lengths = rng.permutation(rng.integers(0, 301, size=99).tolist() + [0, 0, 0])
            drawn = [rng.uniform(size=(t, width)) for t in lengths]
            spec.write_text(format_sfa(pattern.sfa))
            for records, rows in ((equal, block_rows), (drawn, block_rows), (drawn, 64)):
                data.write_text("".join(json.dumps({"probs": p.tolist()}) + "\n" for p in records))
                for mode in ("accept", "tag"):
                    argv = ["infer", str(spec), str(data), "--mode", mode, "--out", str(out)]
                    automaton.BLOCK_ROWS = rows
                    try:
                        code = cli.main(argv)
                    finally:
                        automaton.BLOCK_ROWS = block_rows
                    if code:
                        raise RuntimeError(f"symfa infer --mode {mode} failed")
                    h.update(out.read_bytes())
    return h.hexdigest()


def losses_digest() -> str:
    """sha256 over the public losses' (loss, dW, db) on every loss case."""
    import numpy as np
    from symfa import bench, learn

    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for pattern in (
        bench.driving_pattern(),
        bench.events_pattern(),
        bench.random_pattern(8, 10, 2),
        bench.random_pattern(64, 12, 0),
    ):
        c, width = pattern.compiled, len(pattern.compiled.vocab)
        state_to_label = {q: q % 3 for q in range(c.num_states)}
        # at scale 40 about two logits in three lie beyond ±21, where a
        # probability is within 1e-9 of 0 or 1
        for scale in (1.0, 40.0):
            weights, bias = rng.normal(size=(width, 4)), rng.normal(size=width)
            ext = learn.LinearExtractor(scale * weights, scale * bias)
            for steps in (1, 7, 30):
                features = rng.normal(size=(steps, 4))
                labels = [None if x == 3 else x for x in rng.integers(0, 4, steps).tolist()]
                results = [
                    learn.sequence_loss(c, ext, learn.LabeledSequence(features, label=label))
                    for label in (0, 1)
                ]
                seq = learn.LabeledSequence(features, step_labels=labels)
                results.append(learn.tagging_loss(c, ext, seq, state_to_label))
                for loss, (dw, db) in results:
                    h.update(struct.pack("<d", loss))
                    h.update(dw.tobytes())
                    h.update(db.tobytes())
    return h.hexdigest()


def _bad_files():
    """(whether it needs --model, its lines) of each file the errors digest runs."""
    good, bad = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], [[0.1, 0.2, 0.3], [0.4, 1.5, 0.6]]

    def lines(key, *records):
        return [json.dumps({key: r}) + "\n" for r in records]

    yield False, lines("probs", bad, good, good)
    yield False, lines("probs", good, bad, good)
    yield False, lines("probs", good, good, bad)
    yield False, lines("probs", good, [], [], bad)
    yield False, lines("probs", good, [[0.1, float("nan"), 0.3]], good)
    yield False, lines("probs", good, bad, good) + ["{\n"]
    yield True, lines("features", [[0.5] * 4], [], [[0.5] * 3], [[0.5] * 4])


def errors_digest() -> str:
    """sha256 over the exit status, stdout and stderr `symfa infer` gives,
    both modes, on every bad file."""
    import numpy as np
    from symfa import bench, cli, format_sfa, learn

    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        spec, data, model = (Path(tmp) / name for name in ("spec.sfa", "records.jsonl", "m.bin"))
        spec.write_text(format_sfa(bench.driving_pattern().sfa))
        learn.save_extractor(learn.LinearExtractor(np.ones((3, 4)), np.zeros(3)), model)
        for with_model, lines in _bad_files():
            data.write_text("".join(lines))
            for mode in ("accept", "tag"):
                argv = ["infer", str(spec), str(data), "--mode", mode]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv + (["--model", str(model)] if with_model else []))
                h.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode())
    return h.hexdigest()


def _child(checkout: Path) -> tuple[str, ...] | None:
    """The PARTS digests a child Python computes on `checkout`'s symfa,
    or None."""
    src = checkout.resolve() / "src"
    if not (src / "symfa").is_dir():
        print(f"{checkout}: no src/symfa package", file=sys.stderr)
        return None
    code = (
        f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import symfa, same_training; "
        "print(symfa.__file__); print(same_training.recursion_digest()); "
        "print(same_training.training_digest()); print(same_training.mixed_digest()); "
        "print(same_training.infer_digest()); print(same_training.losses_digest()); "
        "print(same_training.errors_digest())"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src, env=env, capture_output=True, text=True
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 1 + len(PARTS):
        print(f"{checkout}: child failed\n{proc.stderr}", file=sys.stderr)
        return None
    if not Path(lines[0]).resolve().is_relative_to(src):
        print(f"{checkout}: child imported symfa from {lines[0]}", file=sys.stderr)
        return None
    return tuple(lines[1:])


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: python3 tools/same_training.py OLD NEW [NEW ...]", file=sys.stderr)
        return 2
    digests = []
    for checkout in argv[1:]:
        found = _child(Path(checkout))
        if found is None:
            return 2
        print("  ".join(found + (checkout,)))
        digests.append(found)
    for checkout, found in zip(argv[2:], digests[1:]):
        for part, old, new in zip(PARTS, digests[0], found):
            if old != new:
                print(f"{checkout}: {part} differ", file=sys.stderr)
    return 0 if all(found == digests[0] for found in digests) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
