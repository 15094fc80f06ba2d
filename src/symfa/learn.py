"""Symbol extraction and gradient training against automaton losses.

The extractor maps an m-dimensional observation to one probability per
vocabulary symbol through independent logistic units. Both kinds of
label train one loss, the cross entropy of the mass alpha_t holds on a
labeled set of states. Inside the log that mass is capped at 1 - 1e-7,
and only a mass of exactly 0 is raised to 1e-7, so a label whose mass
is tiny but positive still has a gradient. A sequence label labels the
last step only: the accepting states for 1, the rest for 0, so
log P(reject) is read from the rejecting mass, never as
log(1 - P(accept)). Training keeps one row code per labeled step, an
index into a small table of 0/1 masks over the states, not a mask per
step. The loss is differentiated exactly through the circuit evaluations
and the state recursion, so training is plain gradient descent; no
sampling or approximation is involved anywhere.

Training runs each minibatch as one packed batch, whatever its lengths:
sorted longest first by a stable sort, so sequences of one length keep
their order, with step t's rows those of the n_t sequences longer than
t. One layout of that batch (automaton._Packed) is made from its
lengths, and everything after reads it. Its (R, m) feature rows are
gathered step-major with one np.concatenate per run of steps of one
width, each written in place into one array (_pack). Step labels read
their row codes from the flat codes through the layout's step-major
rule, sequence labels one code per sequence. Only the minibatch is
copied, never the whole dataset. The symbol probabilities are then
(V, R), from one product with the weights, and each block of the layout
is a view of them, so no step of training transposes. One forward and
one reverse recursion serve the minibatch, and dW is one product of the
logistic slope (V, R) with the feature rows (R, m).
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .automaton import CompiledSfa, _accepting_mask, _Packed, _run_backward, _run_forward
from .automaton import acceptance_batch  # noqa: F401  (perfbench/layers.py traces this name)
from .automaton import backward_gradient, forward_alphas  # noqa: F401  (traced there too)
from .errors import DivergenceError

LOG_CLAMP = 1e-7

# types no label has, sequence or step (see LabeledSequence)
_NOT_LABELS = (bool, np.bool_, float, np.floating)

CHECKPOINT_MAGIC = b"SYMF"


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; 1 / (1 + e) for x >= 0 and e / (1 + e)
    # for x < 0 are the stable forms, and the numerator exp(min(x, 0)) is
    # exactly 1 or e. Each of the two arrays is worked on in place, so no
    # third one of x's size is alive.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    out /= e
    return out


@dataclass
class LinearExtractor:
    """Per-symbol logistic units: p[i] = sigmoid(weights[i] . o + bias[i]).

    Scoring needs only extract(), so any model with the same contract can
    stand in for this class there. Training reads extract()'s
    (num_symbols, rows) layout and takes the logistic slope into `weights`
    and `bias` itself, in _batch_loss.
    """

    weights: np.ndarray  # (num_symbols, feature_dim)
    bias: np.ndarray  # (num_symbols,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (num_symbols, feature_dim), bias (num_symbols,)")

    @classmethod
    def init_random(cls, num_symbols: int, feature_dim: int, rng: np.random.Generator):
        return cls(
            rng.uniform(-0.1, 0.1, size=(num_symbols, feature_dim)),
            rng.uniform(-0.1, 0.1, size=num_symbols),
        )

    @property
    def num_symbols(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "LinearExtractor":
        return LinearExtractor(self.weights.copy(), self.bias.copy())

    def extract(self, features):
        """Symbol probabilities for observations of shape (..., feature_dim).

        The units run on the rows as columns, one product weights @ rows.T
        of shape (num_symbols, rows), and the result is a transposed view
        of it, so training reads it as (num_symbols, rows) without a copy.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1] != self.feature_dim:
            raise ValueError(
                f"feature dimension {features.shape[-1]} != extractor's {self.feature_dim}"
            )
        lead = features.shape[:-1]
        rows = features.reshape(math.prod(lead), self.feature_dim)
        # overflowing logits give 0 or 1, inf − inf a NaN the caller refuses
        with np.errstate(over="ignore", invalid="ignore"):
            logits = self.weights @ rows.T
            logits += self.bias[:, None]
            return _sigmoid(logits).T.reshape(lead + (self.num_symbols,))


# what a refused array holds, by numpy dtype kind
_NOT_NUMBERS = {"b": "booleans", "U": "strings", "O": "null, objects or integers beyond 64 bits"}


def float_array(value, what: str) -> np.ndarray:
    """`value` as a float64 array; ValueError unless it holds numbers only.

    numpy would parse "0.5" and read true as 1.0, so the dtype numpy infers
    must be an integer or float one. A boolean beside numbers still reads
    as 0 or 1, because numpy promotes it.
    """
    try:
        array = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"{what} must hold numbers only ({exc})") from None
    if array.dtype.kind not in "iuf":
        kind = _NOT_NUMBERS.get(array.dtype.kind, array.dtype.name)
        raise ValueError(f"{what} must hold numbers only, not {kind}")
    return array.astype(np.float64, copy=False)


@dataclass
class LabeledSequence:
    """Observations plus either a binary sequence label or per-step labels.

    Exactly one of `label` (0/1 for the whole sequence) and `step_labels`
    (one entry per observation; None entries mark unlabeled steps) is set.
    No label is a bool or a float.
    """

    features: np.ndarray  # (steps, feature_dim)
    label: int | None = None
    step_labels: Sequence[int | None] | None = None

    def __post_init__(self):
        self.features = float_array(self.features, "features")
        if self.features.ndim != 2:
            raise ValueError("features must be a (steps, feature_dim) array")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.step_labels is not None:
            if self.label is not None:
                raise ValueError("set exactly one of label / step_labels")
            if isinstance(self.step_labels, str) or not isinstance(
                self.step_labels, (Sequence, np.ndarray)
            ):
                raise ValueError(
                    f"step labels must be a list, got {type(self.step_labels).__name__}"
                )
            if len(self.step_labels) != len(self.features):
                raise ValueError("need one step label (or None) per observation")
        elif isinstance(self.label, _NOT_LABELS) or self.label not in (0, 1):
            raise ValueError(f"sequence label must be 0 or 1, got {self.label!r}")
        elif len(self.features) == 0:
            raise ValueError("a sequence label needs at least one observation")


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    optimizer: str = "adam"  # "adam" | "sgd"
    batch_size: int = 16
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch size and max epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    metric: float  # training accuracy


def _clamped_log_grad(prob: float | np.ndarray):
    """log of a clamped probability and d/dprob of that log (0 when clamped).

    The cap at 1 - LOG_CLAMP applies as before, but only a mass of exactly 0
    is raised to LOG_CLAMP: a positive mass below it, which a long sequence
    reaches easily, keeps its own log and gradient.
    """
    clamped = np.where(prob > 0, np.minimum(prob, 1.0 - LOG_CLAMP), LOG_CLAMP)
    inside = (prob > 0) & (prob < 1.0 - LOG_CLAMP)
    return np.log(clamped), np.where(inside, 1.0 / clamped, 0.0)


def _symbol_probs(extractor, rows) -> np.ndarray:
    """Symbol probabilities (V, R) of feature rows (R, m), as extract lays them out."""
    probs = extractor.extract(rows).T
    if not np.isfinite(probs).all():
        raise DivergenceError("extractor produced non-finite symbol probabilities")
    return probs


def _hashable(label) -> bool:
    """Whether `label` can be a dict key."""
    try:
        hash(label)
    except TypeError:
        return False
    return True


def _targets(c: CompiledSfa, data: Sequence[LabeledSequence], state_to_label):
    """Every sequence's labels as row codes into one table of 0/1 state masks.

    Row 0 of the (K, Q) table is empty: it codes an unlabeled step. A
    sequence label codes its last step, 1 (the rejecting states) for
    label 0 and 2 (the accepting states) for label 1. Step labels code
    every step through one row per distinct label in `state_to_label`,
    by one dict lookup each. A bool, float or unhashable label matches no
    state: == makes True, False and 1.0 equal to 1, 0 and 1, but they are
    not labels, and it makes a list equal to no state label.
    Returns (table, codes, offsets, missing): codes is one flat int array,
    sequence k's codes start at offsets[k] (so offsets is arange(n) for
    sequence labels), and `missing` is None or (k, message) for the first
    step label that matches no state.
    """
    if data[0].label is not None:
        accepting = _accepting_mask(c)
        table = np.stack([np.zeros(c.num_states), 1.0 - accepting, accepting])
        return table, np.array([seq.label + 1 for seq in data]), np.arange(len(data)), None
    states = {}
    for q in range(c.num_states):
        states.setdefault(state_to_label[q], []).append(q)
    states.pop(None, None)  # None marks an unlabeled step, never a state's label
    table = np.zeros((len(states) + 1, c.num_states))
    index = {None: 0}
    for row, (label, qs) in enumerate(states.items(), start=1):
        table[row, qs] = 1.0
        index[label] = row
    flat = list(chain.from_iterable(seq.step_labels for seq in data))
    # look at the label types first: a pass over every label slows long
    # tagging runs by several percent, and only these types can need one
    if any(
        issubclass(t, _NOT_LABELS + (tuple,)) or t.__hash__ is None for t in set(map(type, flat))
    ):
        absent = object()
        flat = [
            absent if isinstance(lab, _NOT_LABELS) or not _hashable(lab) else lab for lab in flat
        ]
    codes = np.fromiter(map(index.get, flat, repeat(-1)), dtype=np.intp, count=len(flat))
    offsets = np.cumsum([0] + [len(seq.step_labels) for seq in data[:-1]])
    missing = None
    unmatched = np.flatnonzero(codes < 0)
    if unmatched.size:
        # the last sequence starting at or before the step: zero-step ones hold none
        k = int(np.searchsorted(offsets, unmatched[0], side="right")) - 1
        t = int(unmatched[0] - offsets[k])
        missing = k, f"label {data[k].step_labels[t]!r} at step {t} matches no state"
    return table, codes, offsets, missing


def _batch_loss(c: CompiledSfa, extractor, rows, packed, table, codes, by_sequence=False):
    """Summed cross entropy of the alpha mass on labeled states, with gradients.

    rows (R, m) are the feature rows of a packed batch of sequences,
    longest first, and `packed` its layout (see automaton._Packed), so
    that they, the symbol probabilities (V, R) and the recursion cores'
    arrays share one order and nothing is transposed: both cores read the
    layout, and each block's probabilities are a view of them. `codes`
    label states with rows of `table`, 0/1 masks over the states (see
    _targets): a step costs -log of the mass alpha_t holds on its row,
    clamped inside the log, and code 0, the empty row, costs nothing.
    Per-step labels pass one code per row (R,); sequence labels pass
    `by_sequence` and one code per sequence (N,), for its last step, which
    reads its alpha at its own last row.
    Returns (loss, dW, db, correct), loss and gradients averaged over the
    batch. `correct` counts the sequences whose acceptance is on the
    label's side of 0.5 when `by_sequence`, else the labeled steps whose
    most probable state carries the step's label. One forward and one
    reverse recursion serve all four.
    """
    probs = _symbol_probs(extractor, rows)  # (V, R)
    # each block's probabilities, a view: a block's rows are contiguous
    packed_probs = packed, lambda t0, t1: probs[:, packed.first[t0] : packed.first[t1]]
    alphas = np.empty((len(rows), c.num_states))
    _run_forward(c, *packed_probs, alphas)
    # a sequence label reads each sequence's alpha at its own last row
    read = alphas[packed.last] if by_sequence else alphas
    masks = table[codes]
    active = codes != 0
    step_probs = (read * masks).sum(axis=-1)
    log_p, dlog_p = _clamped_log_grad(step_probs)
    dstep = -(dlog_p * active) / len(packed.lengths)
    masks *= dstep[:, None]  # now dLoss/dalpha of each labeled row
    dprobs = _run_backward(c, *packed_probs, alphas, masks, by_sequence)
    slope = probs * (1.0 - probs)  # the logistic slope, (V, R)
    slope *= dprobs
    lost = log_p * active
    if by_sequence:
        # acceptance >= 0.5 for label 1 (row 2); rejection > 0.5 for label 0
        correct = int(np.where(codes == 2, step_probs >= 0.5, step_probs > 0.5).sum())
    else:
        # summed per sequence over its steps, laid out (T, N) with 0 past its end
        by_step = np.zeros((len(packed.widths) - 1, len(packed.lengths)))
        by_step[np.arange(len(by_step))[:, None] < packed.lengths] = lost
        lost = by_step.sum(axis=0)
        correct = int(table[codes, read.argmax(axis=-1)][active].sum())
    return float((-lost).mean()), slope @ rows, slope.sum(axis=1), correct


def _sequence_loss(c: CompiledSfa, extractor, seq: LabeledSequence, state_to_label=None):
    """The loss of one sequence and its (dW, db)."""
    table, codes, _, missing = _targets(c, [seq], state_to_label)
    if missing is not None:
        raise ValueError(missing[1])
    packed = seq.features, _Packed([len(seq.features)])
    loss, dw, db, _ = _batch_loss(c, extractor, *packed, table, codes, seq.label is not None)
    return loss, (dw, db)


def sequence_loss(c: CompiledSfa, extractor, seq: LabeledSequence):
    """Binary cross entropy between acceptance probability and the label.

    Returns (loss, (dW, db)). The loss is -log of the last-step mass on
    the label's side: the accepting states for label 1, the rejecting
    states for label 0 (read directly, not as 1 - acceptance). That mass
    is capped at 1 - 1e-7 inside the log, and raised to 1e-7 only where
    it is exactly 0.
    """
    if seq.label is None:
        raise ValueError("sequence_loss needs a sequence-level binary label")
    return _sequence_loss(c, extractor, seq)


def tagging_loss(c: CompiledSfa, extractor, seq: LabeledSequence, state_to_label):
    """Per-step cross entropy on the state distribution.

    `state_to_label` maps each state index to its emitted label; the
    probability of the step's label is the summed mass of the matching
    states, clamped inside the log. Steps labeled None contribute nothing.
    Returns (loss, (dW, db)).
    """
    if seq.step_labels is None:
        raise ValueError("tagging_loss needs per-step labels")
    return _sequence_loss(c, extractor, seq, state_to_label)


# --- optimizers -------------------------------------------------------------

class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params, grads):
        for p, g in zip(params, grads):
            p -= self.lr * g


class _Adam:
    def __init__(self, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        for k, (p, g) in enumerate(zip(params, grads)):
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            mhat = self.m[k] / (1 - self.beta1**self.t)
            vhat = self.v[k] / (1 - self.beta2**self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _pack(features: list, packed: _Packed, m: int) -> np.ndarray:
    """(T_i, m) arrays, longest first, as the rows of one packed batch.

    Step t's rows are step t of the n_t arrays longer than t (see
    automaton._Packed). Each run of steps of one width over the whole
    batch, k steps of width n, read from the layout, is one
    np.concatenate of the n arrays' k-step slices side by side, written in
    place into its rows: reshaped (k, n·m), they are those rows.
    """
    rows = np.empty((packed.first[-1], m))
    for t, k, n, r in packed.runs(0, len(packed.widths) - 1):
        # a run of every step holds the whole of its n arrays: no slices
        parts = features[:n] if k == len(features[0]) else [f[t : t + k] for f in features[:n]]
        np.concatenate(parts, axis=1, out=rows[r : r + k * n].reshape(k, n * m))
    return rows


@dataclass
class TrainResult:
    extractor: LinearExtractor
    history: list[EpochRecord] = field(default_factory=list)


def train(
    c: CompiledSfa,
    data: Sequence[LabeledSequence],
    cfg: TrainConfig,
    state_to_label=None,
    init: LinearExtractor | None = None,
) -> TrainResult:
    """Gradient-descent training of the extractor on labeled sequences.

    All sequences must carry the same kind of label. Sequence-level labels
    train with BCE on acceptance; per-step labels with summed cross
    entropy (state_to_label defaults to the identity map). Training stops
    early when the epoch loss has not improved for `patience` epochs, and
    the parameters with the best training loss are returned. Everything is
    seeded: identical inputs give bitwise-identical results.
    """
    data = list(data)
    if not data:
        raise ValueError("training data is empty")
    kinds = {seq.label is None for seq in data}
    if len(kinds) != 1:
        raise ValueError("mix of sequence-level and per-step labels")
    if init is not None and init.num_symbols != len(c.vocab):
        raise ValueError(
            f"extractor emits {init.num_symbols} symbols, automaton has {len(c.vocab)}"
        )
    feature_dim = data[0].features.shape[1] if init is None else init.feature_dim
    if state_to_label is None:
        state_to_label = {q: q for q in range(c.num_states)}
    table, codes, offsets, missing = _targets(c, data, state_to_label)
    # the first failing sequence is reported, its feature width first
    last = len(data) - 1 if missing is None else missing[0]
    for k, seq in enumerate(data[: last + 1]):
        if seq.features.shape[1] != feature_dim:
            raise ValueError(
                f"sequence {k}: feature dimension {seq.features.shape[1]} != extractor's {feature_dim}"
            )
    if missing is not None:
        raise ValueError(f"sequence {missing[0]}: {missing[1]}")
    by_sequence = data[0].label is not None
    lengths = np.array([len(seq.features) for seq in data])

    rng = np.random.default_rng(cfg.seed)
    extractor = (init or LinearExtractor.init_random(len(c.vocab), feature_dim, rng)).copy()
    opt = _Adam(cfg.learning_rate) if cfg.optimizer == "adam" else _Sgd(cfg.learning_rate)

    best = extractor.copy()
    best_loss = np.inf
    stale = 0
    history: list[EpochRecord] = []

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(data))
        epoch_loss = 0.0
        correct = 0
        total = 0
        for start in range(0, len(data), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            # longest first; the sort is stable, so a length keeps its order
            batch = batch[np.argsort(-lengths[batch], kind="stable")]
            packed = _Packed(lengths[batch])
            rows = _pack([data[k].features for k in batch], packed, feature_dim)
            # a sequence label codes the sequence (offsets is arange(n));
            # step labels code each row, read step-major from the flat codes
            coded = codes[batch if by_sequence else packed.step_major(offsets[batch], packed.lengths)]
            loss, dw, db, hits = _batch_loss(c, extractor, rows, packed, table, coded, by_sequence)
            correct += hits
            total += int(np.count_nonzero(coded))
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}: {loss}")
            opt.step([extractor.weights, extractor.bias], [dw, db])
            if not (
                np.all(np.isfinite(extractor.weights)) and np.all(np.isfinite(extractor.bias))
            ):
                raise DivergenceError(f"non-finite parameters at epoch {epoch}")
            epoch_loss += loss * len(batch)
        epoch_loss /= len(data)
        history.append(EpochRecord(epoch, epoch_loss, correct / max(total, 1)))
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best = extractor.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return TrainResult(best, history)


# --- checkpoints -------------------------------------------------------------
#
# Byte layout (little endian):
#   0:4   magic  b"SYMF"
#   4:8   format version, uint32 (1 or 2)
#   8:12  num_symbols, uint32
#   12:16 feature_dim, uint32
#   16:   weights, float64 row-major (num_symbols * feature_dim values)
#   then  bias, float64 (num_symbols values)
#   version 2 only: the byte count of the names, uint32, then the symbol
#         names as a UTF-8 JSON list of num_symbols strings

def save_extractor(extractor: LinearExtractor, path, symbols: Sequence[str] | None = None) -> None:
    """Write a checkpoint, version 2 with `symbols`, the names of the
    automaton's symbols in vocabulary order, and version 1 without."""
    version, names = 1, b""
    if symbols is not None:
        if len(symbols) != extractor.num_symbols:
            raise ValueError(f"{len(symbols)} symbol names for {extractor.num_symbols} symbols")
        names = json.dumps(list(symbols)).encode("utf-8")
        version, names = 2, struct.pack("<I", len(names)) + names
    header = CHECKPOINT_MAGIC + struct.pack(
        "<III", version, extractor.num_symbols, extractor.feature_dim
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(extractor.weights, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(extractor.bias, dtype="<f8").tobytes())
        fh.write(names)


def load_extractor(path, symbols: Sequence[str] | None = None) -> LinearExtractor:
    """Read a checkpoint. Given `symbols`, the names a version-2 checkpoint
    stores must be the same, in the same order; version 1 stores none."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not an extractor checkpoint")
    if len(blob) < 16:
        raise ValueError(f"{path}: truncated checkpoint ({len(blob)} of 16 header bytes)")
    version, num_symbols, feature_dim = struct.unpack_from("<III", blob, 4)
    if version not in (1, 2):
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    w_end = 16 + 8 * num_symbols * feature_dim
    b_end = w_end + 8 * num_symbols
    expect = b_end + (4 if version == 2 else 0)
    if version == 2 and len(blob) >= expect:
        expect += struct.unpack_from("<I", blob, b_end)[0]
    if len(blob) != expect:
        raise ValueError(f"{path}: truncated checkpoint ({len(blob)} of {expect} bytes)")
    if version == 2 and symbols is not None:
        try:
            stored = json.loads(blob[b_end + 4 :])
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValueError(f"{path}: damaged symbol names ({exc})") from None
        if stored != list(symbols):
            raise ValueError(
                f"{path}: checkpoint symbols {stored} differ from the automaton's {list(symbols)}"
            )
    weights = np.frombuffer(blob[16:w_end], dtype="<f8").reshape(num_symbols, feature_dim)
    bias = np.frombuffer(blob[w_end:b_end], dtype="<f8")
    return LinearExtractor(weights.copy(), bias.copy())
