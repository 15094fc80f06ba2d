"""Seeded workload inputs, the closed-loop operations on them, and their checks.

Every workload writes its inputs under a work directory from the seed
alone, before any timing, and then drives symfa only through public
functions: ``symfa.cli.main`` for the command-line paths and
``symfa.learn.train`` / ``symfa.automaton.acceptance_batch`` for the
library paths. Names are looked up on the modules at call time, so the
tracing wrappers see the benchmark's own calls too.

A round is a fixed list of operations; the closed loop repeats whole
rounds, and a traced round does exactly the work of an untimed one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from symfa import automaton, bench, cli, learn
from symfa.logic import Interpretation


@dataclass
class Op:
    """One closed-loop operation: `run` is timed, `verify` is not."""

    kinds: tuple[str, ...]  # which samples it gives: "setup", "throughput", "latency"
    run: Callable[[], object]
    verify: Callable[[object], bool]
    items: int


class Tally:
    """Attempted and failed operations, checks included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def _write_spec(path: Path, sfa) -> Path:
    path.write_text(automaton.format_sfa(sfa), encoding="utf-8")
    return path


def _setup(spec: Path):
    return automaton.validate_and_compile(automaton.load_sfa(spec))


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


class Workload:
    """Common shape: inputs from a seed, set-up, rounds, checks."""

    item = ""  # what throughput_per_s counts
    latency_op = ""  # what one latency sample times
    minibatches = 0  # optimizer steps per round
    setups_per_round = 5
    kernel = "interpreter"  # the calibration kernel that scales its times
    specs: list[Path] = []

    def round(self) -> list[Op]:
        """Set-ups (spec file to CompiledSfa, as a user pays it), then `ops`.

        Set-up samples are spread over the whole run, like the others.
        """
        setups = [
            Op(
                ("setup",),
                lambda spec=self.specs[k % len(self.specs)]: _setup(spec),
                lambda c: isinstance(c, automaton.CompiledSfa),
                0,
            )
            for k in range(self.setups_per_round)
        ]
        return setups + self.ops()

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, tally: Tally) -> None:
        """Correctness checks; also records the reference outputs `verify` uses."""
        raise NotImplementedError

    def peak_ops(self) -> list[Op]:
        """The operations measured under tracemalloc."""
        ops = self.ops()
        firsts = [next(op for op in ops if kind in op.kinds) for kind in ("throughput", "latency")]
        return list({id(op): op for op in firsts}.values())


# --- infer-cli ----------------------------------------------------------------

class InferCli(Workload):
    """`symfa infer` on JSONL files of shuffled `probs` records, one mode."""

    FILES = 10
    PER_LENGTH = 34  # records of each length in each file
    LENGTHS = (10, 30, 100)
    SAMPLE = 8  # records checked against the enumerative engine
    TOL_ENUM = 1e-6
    TOL_CSV = 2e-6  # three values rounded to 6 decimals

    def __init__(self, mode: str, work: Path, seed: int):
        self.mode = mode
        self.item = "record"
        self.latency_op = f"one `symfa infer --mode {mode}` call on {3 * self.PER_LENGTH} records"
        self.seed = seed
        pattern = bench.events_pattern()
        self.sfa = pattern.sfa
        self.specs = [_write_spec(work / "events.sfa", pattern.sfa)]
        rng = random.Random(seed)
        n = self.FILES * self.PER_LENGTH
        by_length = {}
        for length in self.LENGTHS:
            data = bench.generate_dataset(pattern, length, (n + 1) // 2, n // 2, seed=seed)
            probs = bench.reference_probabilities(np.stack([s.features for s in data.sequences]))
            rows = np.round(probs, 9).tolist()
            rng.shuffle(rows)
            by_length[length] = rows
        self.files: list[Path] = []
        self.records: list[list] = []
        for f in range(self.FILES):
            part = slice(f * self.PER_LENGTH, (f + 1) * self.PER_LENGTH)
            records = [row for length in self.LENGTHS for row in by_length[length][part]]
            rng.shuffle(records)
            path = work / f"records-{f:02d}.jsonl"
            path.write_text(
                "".join(json.dumps({"probs": r}) + "\n" for r in records), encoding="utf-8"
            )
            self.files.append(path)
            self.records.append(records)
        self.outs = [work / f"out-{f:02d}.csv" for f in range(self.FILES)]
        self.reference: list[bytes] = []

    def _call(self, f: int, mode: str, out: Path) -> int:
        argv = ["infer", str(self.specs[0]), str(self.files[f]), "--mode", mode, "--out", str(out)]
        return cli.main(argv)

    def ops(self) -> list[Op]:
        def op(f: int) -> Op:
            return Op(
                ("throughput", "latency"),
                lambda: self._call(f, self.mode, self.outs[f]),
                lambda code: code == 0 and self.outs[f].read_bytes() == self.reference[f],
                len(self.records[f]),
            )

        return [op(f) for f in range(self.FILES)]

    def check(self, tally: Tally) -> None:
        for f in range(self.FILES):
            code = self._call(f, self.mode, self.outs[f])
            tally.record(code == 0, f"infer {self.mode} exit {code} on file {f}")
            self.reference.append(self.outs[f].read_bytes())
        # both modes on the first file, against each other and the baseline
        other = "tag" if self.mode == "accept" else "accept"
        extra = self.outs[0].with_name("out-other.csv")
        code = self._call(0, other, extra)
        tally.record(code == 0, f"infer {other} exit {code}")
        accept_csv, tag_csv = (self.outs[0], extra) if self.mode == "accept" else (extra, self.outs[0])
        records = self.records[0]
        accept = {int(row[0]): float(row[1]) for row in _read_csv(accept_csv)[1:]}
        tally.record(len(accept) == len(records), "accept output has one row per record")

        engine = bench.EnumerativeEngine(self.sfa)
        rng = random.Random(self.seed)
        for k in rng.sample(range(len(records)), self.SAMPLE):
            want = engine.acceptance(records[k])
            got = accept.get(k, math.nan)
            tally.record(abs(got - want) <= self.TOL_ENUM, f"record {k}: accept {got} vs enumerative {want}")

        header, *rows = _read_csv(tag_csv)
        accepting = [header.index(self.sfa.states[q]) for q in self.sfa.accepting]
        last: dict[int, list[str]] = {}
        sums_ok: dict[int, bool] = {}
        for row in rows:
            k = int(row[0])
            total = sum(float(v) for v in row[2:])
            sums_ok[k] = sums_ok.get(k, True) and abs(total - 1.0) <= self.TOL_CSV
            last[k] = row
        tally.record(len(rows) == sum(len(r) for r in records), "tag output has one row per step")
        for k in range(len(records)):
            tally.record(sums_ok.get(k, False), f"record {k}: tag rows do not sum to 1")
            mass = sum(float(last[k][i]) for i in accepting) if k in last else math.nan
            tally.record(
                abs(mass - accept.get(k, math.nan)) <= self.TOL_CSV,
                f"record {k}: last tag row accepting mass {mass} vs accept {accept.get(k)}",
            )


# --- train-wide / train-long ------------------------------------------------

class Train(Workload):
    """`learn.train` for a fixed epoch count, then `acceptance_batch` scoring."""

    SAMPLE = 4  # scored sequences checked against the enumerative engine
    TOL_ENUM = 1e-9
    FD_COORDS = 4  # coordinates checked by central finite differences
    FD_STEP = 1e-6
    TOL_FD = 1e-6

    def __init__(self, pattern, length, n_seq, batch, epochs, score_repeats, tagging, kernel, work, seed):
        self.item = "sequence-epoch"
        self.kernel = kernel
        self.latency_op = f"one acceptance_batch call on {batch} sequences of length {length}"
        self.seed = seed
        self.epochs = epochs
        self.n_seq = n_seq
        self.score_repeats = score_repeats
        self.sfa = pattern.sfa
        self.specs = [_write_spec(work / f"{pattern.name}.sfa", pattern.sfa)]
        self.c = _setup(self.specs[0])
        data = bench.generate_dataset(pattern, length, (n_seq + 1) // 2, n_seq // 2, seed=seed)
        if tagging:
            n_vars = len(self.c.vocab)
            self.data = []
            for seq in data.sequences:
                masks = [sum(1 << i for i, bit in enumerate(row) if bit) for row in seq.clean_trace]
                path = automaton.boolean_run(self.c, [Interpretation(m, n_vars) for m in masks])
                self.data.append(learn.LabeledSequence(seq.features, step_labels=path))
        else:
            self.data = data.labeled()
        self.cfg = learn.TrainConfig(batch_size=batch, max_epochs=epochs, patience=epochs, seed=seed)
        self.minibatches = epochs * math.ceil(n_seq / batch)
        probs = bench.reference_probabilities(np.stack([s.features for s in data.sequences]))
        probs = probs[np.random.default_rng(seed).permutation(n_seq)]
        self.batches = [probs[i : i + batch] for i in range(0, n_seq, batch)]
        self.scores: list[np.ndarray] = []
        self.weights = None

    def _train(self):
        return learn.train(self.c, self.data, self.cfg)

    def _trained_ok(self, result) -> bool:
        losses = [rec.loss for rec in result.history]
        return (
            len(losses) == self.epochs
            and all(math.isfinite(x) for x in losses)
            and np.array_equal(result.extractor.weights, self.weights)
        )

    def ops(self) -> list[Op]:
        def score(b: int) -> Op:
            return Op(
                ("latency",),
                lambda: automaton.acceptance_batch(self.c, self.batches[b]),
                lambda out: np.array_equal(out, self.scores[b]),
                len(self.batches[b]),
            )

        train = Op(("throughput",), self._train, self._trained_ok, self.n_seq * self.epochs)
        return [train] + [score(b) for _ in range(self.score_repeats) for b in range(len(self.batches))]

    def check(self, tally: Tally) -> None:
        result = self._train()
        self.weights = result.extractor.weights.copy()
        tally.record(self._trained_ok(result), f"training history {[r.loss for r in result.history]}")
        for b, ps in enumerate(self.batches):
            out = automaton.acceptance_batch(self.c, ps)
            self.scores.append(out)
            tally.record(
                bool(np.all(np.isfinite(out)) and np.all((out >= 0) & (out <= 1))),
                f"batch {b}: acceptance outside [0, 1]",
            )
        rng = np.random.default_rng(self.seed)
        engine = bench.EnumerativeEngine(self.sfa)
        for k in rng.choice(len(self.batches[0]), self.SAMPLE, replace=False):
            want = engine.acceptance(self.batches[0][k])
            got = float(self.scores[0][k])
            tally.record(abs(got - want) <= self.TOL_ENUM, f"sequence {k}: {got} vs enumerative {want}")
        self._check_gradient(tally, rng)

    def _check_gradient(self, tally: Tally, rng: np.random.Generator) -> None:
        ps = self.batches[0][:2]
        weights = rng.normal(size=ps.shape[:-1] + (self.c.num_states,))

        def loss(x):
            return float((weights * automaton.forward_alphas(self.c, x)).sum())

        grad = automaton.backward_gradient(self.c, ps, weights)
        for _ in range(self.FD_COORDS):
            idx = tuple(int(rng.integers(n)) for n in ps.shape)
            step = np.zeros_like(ps)
            step[idx] = self.FD_STEP
            fd = (loss(ps + step) - loss(ps - step)) / (2 * self.FD_STEP)
            tally.record(
                abs(fd - grad[idx]) <= self.TOL_FD * max(1.0, abs(grad[idx])),
                f"gradient at {idx}: backward {grad[idx]} vs finite difference {fd}",
            )


def train_wide(work: Path, seed: int) -> Train:
    return Train(
        bench.random_pattern(8, 10, 2), length=30, n_seq=512, batch=256, epochs=2,
        score_repeats=20, tagging=False, kernel="arrays", work=work, seed=seed,
    )


def train_long(work: Path, seed: int) -> Train:
    return Train(
        bench.driving_pattern(), length=300, n_seq=64, batch=16, epochs=2,
        score_repeats=25, tagging=True, kernel="interpreter", work=work, seed=seed,
    )


# --- validate-wide ------------------------------------------------------------

class ValidateWide(Workload):
    """`symfa validate` on generated automata with a guard over 14 variables.

    Each spec has three states. q0's two guards are a conjunction of one
    literal per variable and its negation, so the self-loop completion
    search sees 14 support variables and must try every assignment before
    it knows there is no gap. q1 is partial and gets a synthesized
    self-loop; q2 has a two-variable guard and its complement. Variable
    orders and the small guards' variables vary with the seed; the work
    does not.
    """

    SPECS = 6
    VARS = 14
    setups_per_round = 2

    def __init__(self, work: Path, seed: int):
        self.item = "spec"
        self.latency_op = f"one `symfa validate` call on a {self.VARS}-variable spec"
        rng = random.Random(seed)
        texts = [self._spec_text(rng) for _ in range(self.SPECS)]
        self.specs = []
        for k, text in enumerate(texts):
            path = work / f"wide-{k}.sfa"
            path.write_text(text, encoding="utf-8")
            self.specs.append(path)
        # q2's guards overlap once its self-loop fires unconditionally
        lines = texts[0].splitlines()
        lines[-1] = "q2 -> q2 : true"
        self.overlapping = work / "wide-overlapping.sfa"
        self.overlapping.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _spec_text(self, rng: random.Random) -> str:
        # Signs alternate by position, so every seed evaluates the same
        # number of formula nodes during the completion search.
        names = [f"v{i}" for i in range(self.VARS)]
        order = rng.sample(names, self.VARS)
        wide = " & ".join(v if k % 2 == 0 else "!" + v for k, v in enumerate(order))
        a, b, c, d = (names[i] for i in sorted(rng.sample(range(self.VARS), 4)))
        small = f"{c} | !{d}"
        return "\n".join(
            [
                "vars: " + ", ".join(names),
                "states: q0, q1, q2",
                "initial: q0",
                "accepting: q1",
                f"q0 -> q1 : {wide}",
                f"q0 -> q0 : !({wide})",
                f"q1 -> q2 : {a} & !{b}",
                f"q2 -> q0 : {small}",
                f"q2 -> q2 : !({small})",
            ]
        ) + "\n"

    def ops(self) -> list[Op]:
        def op(spec: Path) -> Op:
            return Op(
                ("throughput", "latency"),
                lambda: _cli(["validate", str(spec)]),
                lambda res: res[0] == 0 and res[1].startswith("valid:"),
                1,
            )

        return [op(spec) for spec in self.specs]

    def check(self, tally: Tally) -> None:
        code, _, err = _cli(["validate", str(self.overlapping)])
        tally.record(
            code == 1 and "overlap on {" in err,
            f"overlapping spec: exit {code}, stderr {err.strip()!r}",
        )


WORKLOADS = {
    "infer-cli-accept": lambda work, seed: InferCli("accept", work, seed),
    "infer-cli-tag": lambda work, seed: InferCli("tag", work, seed),
    "train-wide": train_wide,
    "train-long": train_long,
    "validate-wide": ValidateWide,
}
