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

Every loss runs one minibatch step (_step): on each minibatch in
training, on one sequence in sequence_loss and tagging_loss, as one
packed batch whatever its lengths. Its layout (automaton._Packed), made
from the lengths in the caller's order, sorts them longest first by a
stable sort, so sequences of one length keep their order, with step t's
rows those of the n_t sequences longer than t, and packs the (R, m)
feature rows, one np.concatenate per run of steps of one width
(_Packed.pack). Step labels read their row codes from the flat codes
through the layout's step-major rule, sequence labels one code per
sequence in the layout's order. Only the minibatch is copied.
The symbol probabilities are then (V, R), from one product with the
weights, and each block of the layout is a view of them
(automaton._views), so no step of training transposes. The loss stops at
those probabilities: one forward and one reverse recursion serve the
minibatch and give dLoss/dp (V, R), and the extractor takes its own
gradient from it (LinearExtractor.backward), dW one product of the
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

from .automaton import PROB_RANGE_TOL, CompiledSfa, _accepting_mask, _Packed, _run_backward
from .automaton import _run_forward, _views
from .automaton import acceptance_batch  # noqa: F401  (perfbench/layers.py traces this name)
from .automaton import backward_gradient, forward_alphas  # noqa: F401  (traced there too)
from .errors import DivergenceError, LogitOverflowError

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

    Scoring needs only extract(), and training extract() and backward(),
    so any model with the same contract can stand in for this class. The
    automaton's loss ends at the symbol probabilities, laid out as
    extract() gives them (num_symbols, rows); backward() turns its
    gradient there into the gradient in `weights` and `bias`.
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
        A logit that is not finite is a LogitOverflowError.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1] != self.feature_dim:
            raise ValueError(
                f"feature dimension {features.shape[-1]} != extractor's {self.feature_dim}"
            )
        lead = features.shape[:-1]
        rows = features.reshape(math.prod(lead), self.feature_dim)
        # an overflowing term or sum makes a logit ±inf, or NaN where
        # infinities of both signs meet, and which one depends on the
        # product's summation path: every non-finite logit is refused
        with np.errstate(over="ignore", invalid="ignore"):
            logits = self.weights @ rows.T
            logits += self.bias[:, None]
        if not np.isfinite(logits).all():
            raise LogitOverflowError("symbol logits must be finite")
        return _sigmoid(logits).T.reshape(lead + (self.num_symbols,))

    def backward(self, rows, probs, dprobs):
        """(dW, db) of a loss whose gradient is `dprobs` in the probabilities
        `probs` extract() gave for the feature rows (R, feature_dim), both
        laid out (num_symbols, R): the logistic slope p(1 - p) times dprobs,
        one product with the rows for dW and one sum over them for db.
        """
        # one (V, R) temporary: (1 - p)·p is p·(1 - p) bitwise
        slope = 1.0 - probs
        slope *= probs
        slope *= dprobs
        return slope @ rows, slope.sum(axis=1)


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
    """Symbol probabilities (V, R) of feature rows (R, m), as extract lays them out.

    Training's rows are finite, so a logit extract() refuses comes from
    features or weights that overflow it: a divergence. So is a probability
    that is not finite or strays outside [0, 1] by more than PROB_RANGE_TOL,
    which a stand-in extractor may give: the guards' rows would still sum
    to 1, and training would run on it. Each minibatch is checked once.
    """
    try:
        probs = extractor.extract(rows).T
    except LogitOverflowError as exc:
        raise DivergenceError(f"extractor: {exc}") from None
    # NaN fails both comparisons, as in automaton._check_probs
    tol = PROB_RANGE_TOL
    if probs.size and not (probs.min() >= -tol and probs.max() <= 1.0 + tol):
        raise DivergenceError(
            f"extractor: symbol probabilities must be finite and within [0, 1] (±{tol:g})"
        )
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
    by one dict lookup each. A `state_to_label` of None maps each state q
    to label q, in train and in tagging_loss alike, and one that gives a
    state no label is a ValueError. A bool, float or unhashable label
    matches no state: == makes True, False and 1.0 equal to 1, 0 and 1,
    but they are not labels, and it makes a list equal to no state label.
    Returns (table, codes, offsets, missing): codes is one flat int array,
    sequence k's codes start at offsets[k] (so offsets is arange(n) for
    sequence labels), and `missing` is None or (k, message) for the first
    step label that matches no state.
    """
    if data[0].label is not None:
        accepting = _accepting_mask(c)
        table = np.stack([np.zeros(c.num_states), 1.0 - accepting, accepting])
        codes = np.array([seq.label + 1 for seq in data], dtype=np.int32)
        return table, codes, np.arange(len(data)), None
    states = {}
    for q in range(c.num_states):
        try:
            label = q if state_to_label is None else state_to_label[q]
        except (KeyError, IndexError):
            raise ValueError(f"state_to_label maps no label to state {q} ({c.states[q]})") from None
        states.setdefault(label, []).append(q)
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
    # int32: train() holds one code per labeled step for the whole call
    codes = np.fromiter(map(index.get, flat, repeat(-1)), dtype=np.int32, count=len(flat))
    offsets = np.cumsum([0] + [len(seq.step_labels) for seq in data[:-1]])
    missing = None
    unmatched = np.flatnonzero(codes < 0)
    if unmatched.size:
        # the last sequence starting at or before the step: zero-step ones hold none
        k = int(np.searchsorted(offsets, unmatched[0], side="right")) - 1
        t = int(unmatched[0] - offsets[k])
        missing = k, f"label {data[k].step_labels[t]!r} at step {t} matches no state"
    return table, codes, offsets, missing


def _batch_loss(c: CompiledSfa, probs, packed, table, codes, by_sequence=False):
    """Summed cross entropy of the alpha mass on labeled states, and its
    gradient in the symbol probabilities.

    probs (V, R) are the symbol probabilities of the rows of a packed
    batch of sequences, longest first, and `packed` its layout (see
    automaton._Packed), so that they and the recursion cores' arrays share
    one order and nothing is transposed: both cores read the layout, and
    each block's probabilities are a view of them. `codes` label states
    with rows of `table`, 0/1 masks over the states (see _targets): a step
    costs -log of the mass alpha_t holds on its row, clamped inside the
    log, and code 0, the empty row, costs nothing.
    Per-step labels pass one code per row (R,); sequence labels pass
    `by_sequence` and one code per sequence (N,), for its last step, which
    reads its alpha at its own last row.
    Returns (loss, dprobs, correct): the loss averaged over the batch's
    sequences, and dprobs (V, R) its gradient in each entry of probs; for
    sequence labels that is -dlog P(label)/dp over the batch size. How
    probs were made is the extractor's business: it turns dprobs into its
    own gradient (LinearExtractor.backward). `correct` counts the
    sequences whose acceptance is on the label's side of 0.5 when
    `by_sequence`, else the labeled steps whose most probable state
    carries the step's label. One forward and one reverse recursion serve
    all three. The reverse recursion reads dLoss/dalpha by code, row i's
    being dstep[i] · table[codes[i]] (automaton._run_backward), so no
    (R, Q) array of labels or gradients outlives the loss.
    """
    packed_probs = _views(packed, probs)
    alphas = np.empty((probs.shape[1], c.num_states))
    _run_forward(c, *packed_probs, alphas)
    # a sequence label reads each sequence's alpha at its own last row
    read = alphas[packed.last] if by_sequence else alphas
    labeled = table[codes]
    labeled *= read
    step_probs = labeled.sum(axis=-1)
    del labeled
    active = codes != 0
    log_p, dlog_p = _clamped_log_grad(step_probs)
    # dLoss/dalpha of row i is dstep[i] · table[codes[i]]
    dstep = -(dlog_p * active) / len(packed.lengths)
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
        del by_step
    # the reverse pass holds training's peak: the per-row arrays it does not
    # read are freed first
    del step_probs, log_p, dlog_p, active
    dprobs = _run_backward(c, *packed_probs, alphas, table, codes, dstep, by_sequence)
    return float((-lost).mean()), dprobs, correct


def _step(c: CompiledSfa, extractor, features, table, codes, starts, by_sequence):
    """One minibatch's loss, (dW, db) and correct count (see _batch_loss):
    `features` are its (T_k, m) arrays in the caller's order, and sequence
    k's codes in the flat `codes` start at starts[k] (see _targets)."""
    packed = _Packed([len(f) for f in features])
    rows = packed.pack(features)
    coded = codes[starts[packed.order] if by_sequence else packed.step_major(starts)]
    probs = _symbol_probs(extractor, rows)
    loss, dprobs, correct = _batch_loss(c, probs, packed, table, coded, by_sequence)
    return loss, extractor.backward(rows, probs, dprobs), correct


def _sequence_loss(c: CompiledSfa, extractor, seq: LabeledSequence, state_to_label=None):
    """The loss of one sequence and its (dW, db)."""
    table, codes, offsets, missing = _targets(c, [seq], state_to_label)
    if missing is not None:
        raise ValueError(missing[1])
    return _step(c, extractor, [seq.features], table, codes, offsets, seq.label is not None)[:2]


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

    `state_to_label` maps each state index to its emitted label (None:
    the identity map, as in train); the probability of the step's label is
    the summed mass of the matching states, clamped inside the log. Steps
    labeled None contribute nothing.
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
    # every sequence sits in one minibatch an epoch: its labeled steps count once
    total = max(int(np.count_nonzero(codes)), 1)

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
        for start in range(0, len(data), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            features, starts = [data[k].features for k in batch], offsets[batch]
            loss, grads, hits = _step(c, extractor, features, table, codes, starts, by_sequence)
            correct += hits
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}: {loss}")
            opt.step([extractor.weights, extractor.bias], grads)
            if not (
                np.all(np.isfinite(extractor.weights)) and np.all(np.isfinite(extractor.bias))
            ):
                raise DivergenceError(f"non-finite parameters at epoch {epoch}")
            epoch_loss += loss * len(batch)
        epoch_loss /= len(data)
        history.append(EpochRecord(epoch, epoch_loss, correct / total))
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
    stores must be the same, in the same order; version 1 stores none. A
    NaN or infinite weight or bias is a ValueError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not an extractor checkpoint")
    if len(blob) < 16:
        raise ValueError(f"{path}: truncated checkpoint ({len(blob)} of 16 header bytes)")
    version, num_symbols, feature_dim = struct.unpack_from("<III", blob, 4)
    if version not in (1, 2):
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    n_weights = num_symbols * feature_dim
    b_end = 16 + 8 * (n_weights + num_symbols)
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
    values = np.frombuffer(blob[16:b_end], dtype="<f8").copy()
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: non-finite weights or bias")
    return LinearExtractor(values[:n_weights].reshape(num_symbols, feature_dim), values[n_weights:])
