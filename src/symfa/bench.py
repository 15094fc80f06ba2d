"""Synthetic benchmark: data generation, baseline engine, timing.

The generator renders boolean traces, sampled uniformly among the traces
a pattern accepts (or rejects), into noisy feature vectors: two coordinates
per symbol with prototypes +1/-1 for true and -1/+1 for false, plus
Gaussian noise. Labels are therefore exact by construction.

The enumerative engine is the reference competitor for the compiled path:
it propositionalizes every guard into its explicit model set and walks
plain Python floats, which is the cost any system pays when it grounds
the temporal pattern instead of compiling it.
"""

from __future__ import annotations

import json
import random
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .automaton import (
    CompiledSfa,
    Sfa,
    acceptance_batch,
    complete_self_loops,
    one_sequence,
    parse_sfa,
    validate_and_compile,
)
from .errors import UnsatisfiablePatternError, VocabularyTooLargeError
from .learn import LabeledSequence, _sigmoid
from .logic import (
    Formula,
    Var,
    Vocabulary,
    enumerate_models,
    f_and,
    f_not,
    f_or,
)

ENUMERATIVE_MAX_VARS = 12
DEFAULT_NOISE = 0.3
REFERENCE_SCALE = 2.0


@dataclass(frozen=True)
class PatternSpec:
    """A named automaton plus its size metadata, validated on construction."""

    name: str
    sfa: Sfa
    compiled: CompiledSfa = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        if self.compiled is None:
            object.__setattr__(self, "compiled", validate_and_compile(self.sfa))

    @property
    def num_states(self) -> int:
        return self.sfa.num_states

    @property
    def num_symbols(self) -> int:
        return len(self.sfa.vocab)


def _bundled(name: str) -> Sfa:
    text = resources.files("symfa").joinpath(f"specs/{name}.sfa").read_text("utf-8")
    return parse_sfa(text)


def driving_pattern() -> PatternSpec:
    """The bundled three-state / three-symbol driving-safety pattern."""
    return PatternSpec("driving", _bundled("driving"))


def events_pattern() -> PatternSpec:
    """The bundled three-state event-tagging pattern (partial guards,
    completed by the self-loop rule)."""
    return PatternSpec("events", _bundled("events"))


def _random_literal(rng: random.Random, num_vars: int) -> Formula:
    v = Var(rng.randrange(num_vars))
    return v if rng.random() < 0.5 else f_not(v)


def _random_clause(rng: random.Random, num_vars: int) -> Formula:
    k = rng.randint(1, min(3, num_vars))
    lits = [_random_literal(rng, num_vars) for _ in range(k)]
    if len(lits) == 1:
        return lits[0]
    return f_and(*lits) if rng.random() < 0.5 else f_or(*lits)


def random_pattern(num_states: int, num_symbols: int, seed: int) -> PatternSpec:
    """Seeded random pattern, deterministic by construction.

    Each state's outgoing transitions form a decision list: branch i fires
    when its test holds and no earlier test did, and the final branch is
    the catch-all, so the guards partition the interpretations without any
    completion. Retries the accepting-set draw until it is a proper,
    nonempty subset.
    """
    if num_states < 2:
        raise ValueError("random patterns need at least two states")
    if num_symbols < 1:
        raise ValueError("random patterns need at least one symbol")
    rng = random.Random(seed)
    vocab = Vocabulary(tuple(f"s{i}" for i in range(num_symbols)))
    states = tuple(f"q{i}" for i in range(num_states))
    transitions = {}
    for q in range(num_states):
        n_branches = rng.randint(2, min(3, num_states))
        targets = rng.sample(range(num_states), n_branches)
        seen: list[Formula] = []
        merged: dict[int, Formula] = {}
        for b, target in enumerate(targets):
            if b == len(targets) - 1:
                guard = f_and(*(f_not(t) for t in seen))
            else:
                test = _random_clause(rng, num_symbols)
                guard = f_and(*([f_not(t) for t in seen] + [test]))
                seen.append(test)
            prev = merged.get(target)
            merged[target] = guard if prev is None else f_or(prev, guard)
        for target, guard in merged.items():
            transitions[(q, target)] = guard
    while True:
        accepting = frozenset(
            q for q in range(num_states) if rng.random() < 0.5
        )
        if accepting and len(accepting) < num_states:
            break
    sfa = Sfa(vocab, states, 0, transitions, accepting)
    return PatternSpec(f"random-{num_states}x{num_symbols}-{seed}", sfa)


# --- dataset generation -----------------------------------------------------

@dataclass
class GeneratedSequence:
    features: np.ndarray  # (steps, 2 * num_symbols)
    label: int
    clean_trace: np.ndarray  # (steps, num_symbols) booleans


@dataclass
class SyntheticDataset:
    sequences: list[GeneratedSequence]
    pattern: str
    length: int
    noise: float
    seed: int

    def labeled(self) -> list[LabeledSequence]:
        return [LabeledSequence(s.features, label=s.label) for s in self.sequences]


def _outgoing(sfa: Sfa) -> list[list[tuple[int, list[int]]]]:
    """Per state, its (dst, sorted model masks) transitions in declaration order."""
    n = len(sfa.vocab)
    out = [[] for _ in range(sfa.num_states)]
    for (src, dst), f in sfa.transitions.items():
        out[src].append((dst, sorted(w.mask for w in enumerate_models(f, n))))
    return out


def _suffix_counts(out, accepting, length: int, accept: bool) -> list[list[int]]:
    """counts[t][q] = number of trace suffixes of length-t steps remaining
    that end in an accepting (or rejecting) state, exact integers."""
    counts = [[int((q in accepting) == accept) for q in range(len(out))]]
    for _ in range(length):
        later = counts[-1]
        counts.append([sum(len(masks) * later[dst] for dst, masks in edges) for edges in out])
    counts.reverse()
    return counts


def _sample_trace(out, counts, q: int, rng: random.Random) -> list[int]:
    """One boolean trace (list of masks) from state q, uniform among the
    counted set."""
    trace = []
    for t in range(len(counts) - 1):
        # exact integer sampling; counts can exceed float range. counts[t][q]
        # is the sum of q's outgoing weights len(masks) * counts[t + 1][dst]
        pick = rng.randrange(counts[t][q])
        for dst, masks in out[q]:
            pick -= len(masks) * counts[t + 1][dst]
            if pick < 0:
                trace.append(masks[rng.randrange(len(masks))])
                q = dst
                break
    return trace


def truth_table(masks, num_symbols: int) -> np.ndarray:
    """A boolean trace given as masks, as (steps, num_symbols) booleans."""
    masks = np.asarray(masks, dtype=np.int64).reshape(-1, 1)
    return (masks >> np.arange(num_symbols) & 1).astype(bool)


def encode_trace(truth: np.ndarray, noise: float, rng: np.random.Generator) -> np.ndarray:
    """Render a (steps, symbols) boolean trace into noisy
    two-coordinates-per-symbol features."""
    sign = np.where(truth, 1.0, -1.0)
    feats = np.empty((len(truth), 2 * truth.shape[1]))
    feats[:, 0::2] = sign
    feats[:, 1::2] = -sign
    if noise:
        feats = feats + rng.normal(0.0, noise, size=feats.shape)
    return feats


def generate_dataset(
    pattern: PatternSpec,
    length: int,
    n_pos: int,
    n_neg: int,
    noise: float = DEFAULT_NOISE,
    seed: int = 0,
) -> SyntheticDataset:
    """Labeled noisy sequences, positives uniform over accepted traces.

    Sampling walks the suffix-count table backwards, so every positive's
    clean trace is accepted (and every negative's rejected) by
    construction. Raises UnsatisfiablePatternError when a class has no
    trace of the requested length.
    """
    for name, value in (("length", length), ("n_pos", n_pos), ("n_neg", n_neg), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if not (np.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    c = pattern.compiled
    out = _outgoing(c.sfa)
    struct_rng = random.Random(seed)
    noise_rng = np.random.default_rng(seed)
    sequences = []
    for accept, count in ((True, n_pos), (False, n_neg)):
        if count == 0:
            continue
        counts = _suffix_counts(out, c.accepting, length, accept)
        if counts[0][c.sfa.initial] == 0:
            kind = "accepting" if accept else "rejecting"
            raise UnsatisfiablePatternError(
                f"pattern '{pattern.name}' has no {kind} trace of length {length}"
            )
        for _ in range(count):
            masks = _sample_trace(out, counts, c.sfa.initial, struct_rng)
            clean = truth_table(masks, len(c.vocab))
            feats = encode_trace(clean, noise, noise_rng)
            sequences.append(GeneratedSequence(feats, int(accept), clean))
    return SyntheticDataset(sequences, pattern.name, length, noise, seed)


def reference_probabilities(features: np.ndarray, scale: float = REFERENCE_SCALE):
    """Symbol probabilities from the prototype geometry, no learning involved.

    p_i = sigmoid(scale * (x[2i] - x[2i+1])); with clean prototypes this
    saturates near 0/1 and degrades gracefully under the generator noise.
    """
    features = np.asarray(features, dtype=np.float64)
    diff = features[..., 0::2] - features[..., 1::2]
    return _sigmoid(scale * diff)


# --- dataset files (JSON lines) ----------------------------------------------

def write_dataset_jsonl(dataset: SyntheticDataset, fh) -> None:
    """One JSON object per line: features, label, clean_trace."""
    for seq in dataset.sequences:
        fh.write(
            json.dumps(
                {
                    "features": [[round(v, 9) for v in row] for row in seq.features.tolist()],
                    "label": seq.label,
                    "clean_trace": seq.clean_trace.tolist(),
                }
            )
            + "\n"
        )


def iter_sequences_jsonl(fh) -> Iterator[dict]:
    """Dataset lines one at a time, one JSON object each; a record keeps whatever keys were present."""
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ValueError(f"line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(record, dict):
            shown = line if len(line) <= 20 else line[:20] + "..."
            raise ValueError(f"line {lineno}: expected a JSON object, got {shown}")
        yield record


def read_sequences_jsonl(fh) -> list[dict]:
    """Every record of `fh` at once (see iter_sequences_jsonl)."""
    return list(iter_sequences_jsonl(fh))


# --- enumerative baseline -----------------------------------------------------

class EnumerativeEngine:
    """Propositionalize-and-enumerate acceptance, no circuits anywhere.

    Each transition guard is expanded into its explicit set of models once;
    every step then sums per-model probabilities (a product over all
    variables each) in plain Python. Exponential in the vocabulary size by
    design; refuses more than ENUMERATIVE_MAX_VARS variables.
    """

    def __init__(self, sfa: Sfa):
        if len(sfa.vocab) > ENUMERATIVE_MAX_VARS:
            raise VocabularyTooLargeError(
                f"enumerative engine is capped at {ENUMERATIVE_MAX_VARS} variables"
            )
        completed, _ = complete_self_loops(sfa)
        self.sfa = completed
        self.num_vars = len(completed.vocab)
        self.out = _outgoing(completed)

    def acceptance(self, ps) -> float:
        n = self.num_vars
        nq = self.sfa.num_states
        alpha = [0.0] * nq
        alpha[self.sfa.initial] = 1.0
        for row in one_sequence(ps, n).tolist():
            # probability of every interpretation under this row
            model_prob = [1.0] * (1 << n)
            for mask in range(1 << n):
                prob = 1.0
                for i in range(n):
                    prob *= row[i] if mask >> i & 1 else 1.0 - row[i]
                model_prob[mask] = prob
            nxt = [0.0] * nq
            for weight, edges in zip(alpha, self.out):
                if weight == 0.0:
                    continue
                for dst, masks in edges:
                    total = 0.0
                    for mask in masks:
                        total += model_prob[mask]
                    nxt[dst] += weight * total
            alpha = nxt
        return sum(alpha[q] for q in self.sfa.accepting)


# --- benchmark ---------------------------------------------------------------

ENGINES = ("compiled", "enumerative")


@dataclass
class BenchRow:
    pattern: str
    states: int
    symbols: int
    length: int
    engine: str
    batch_ms_median: float
    accuracy: float
    seed: int


@dataclass
class BenchReport:
    rows: list[BenchRow]

    CSV_HEADER = "pattern,states,symbols,length,engine,batch_ms_median,accuracy,seed"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.pattern},{r.states},{r.symbols},{r.length},{r.engine},"
                f"{r.batch_ms_median:.3f},{r.accuracy:.4f},{r.seed}"
            )
        return "\n".join(lines) + "\n"


def run_benchmark(
    patterns: list[PatternSpec],
    lengths: list[int],
    engines: list[str] = list(ENGINES),
    batch_size: int = 16,
    repetitions: int = 5,
    seed: int = 0,
) -> BenchReport:
    """Median wall time per batch of acceptance queries, per configuration.

    Inputs are generated sequences (half positive, half negative) rendered
    to probabilities by the fixed reference extractor, so both engines see
    identical numbers and the accuracy column reflects thresholded
    acceptance against exact labels.
    """
    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
    sizes = [("length", n) for n in lengths]
    for name, value in sizes + [("batch_size", batch_size), ("repetitions", repetitions)]:
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    rows = []
    for pattern in patterns:
        for length in lengths:
            data = generate_dataset(
                pattern, length, (batch_size + 1) // 2, batch_size // 2, seed=seed
            )
            feats = np.stack([s.features for s in data.sequences])
            labels = np.array([s.label for s in data.sequences], dtype=bool)
            ps = reference_probabilities(feats)
            for engine in engines:
                if engine == "compiled":
                    compiled = pattern.compiled

                    def run() -> np.ndarray:
                        return acceptance_batch(compiled, ps)

                else:
                    enum = EnumerativeEngine(pattern.sfa)

                    def run() -> np.ndarray:
                        return np.array([enum.acceptance(seq) for seq in ps])

                times = []
                outputs = None
                for _ in range(repetitions):
                    start = time.perf_counter()
                    outputs = run()
                    times.append((time.perf_counter() - start) * 1000.0)
                accuracy = float(((outputs >= 0.5) == labels).mean())
                rows.append(
                    BenchRow(
                        pattern.name,
                        pattern.num_states,
                        pattern.num_symbols,
                        length,
                        engine,
                        float(np.median(times)),
                        accuracy,
                        seed,
                    )
                )
    return BenchReport(rows)
