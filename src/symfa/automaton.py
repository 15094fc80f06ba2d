"""Symbolic automata: representation, validation, and probabilistic runs.

An automaton carries a propositional guard on each transition, compiled
to a reduced ordered decision diagram. Validation builds every guard once
into one decision-diagram table (circuit.DiagramTable) and checks that
the guards out of each state are pairwise disjoint and jointly exhaustive
by combining their node ids: equal functions share a node, so a
conjunction that is node 0 is unsatisfiable and a disjunction that is
node 1 is valid. Both checks are exact, and a counterexample is one walk
down the offending diagram. After validation the per-observation
transition matrix is row-stochastic, and the state distribution after
each observation follows the recursion

    alpha_0 = one-hot at the initial state
    alpha_{t+1} = alpha_t @ T(p_{t+1}),   T[i, j] = P(guard(i, j) | p)

Acceptance probability is the final alpha mass on accepting states, which
equals the probability-weighted sum over all accepted boolean traces.

Runs never build the dense matrices. A CompiledSfa keeps the one
decision-diagram table that validated it and each transition's node in
it. On first use it builds, and caches on itself, one evaluation plan of
the transitions that can carry mass: a transition whose guard is `false`
(node 0), or whose source the initial state cannot reach over guards
that are not, carries exactly 0 at every step, so the plan leaves it
out; the state arrays keep all Q columns, and a state no kept transition
enters reads 0.0. The plan is the kept transition list (src, dst) and
the nodes below their roots, read straight from that table into one
levelized circuit (circuit.Plan). Validation alone never pays for it;
transition_tensor builds a plan of every transition on each call, so
that every state's row is there to check. Both recursion cores run one
packed batch of any lengths, laid out once per batch (_Packed) and read
by both: the sequences sorted longest first, and step t's rows those of
the n_t sequences still running, a prefix of them, so a sequence ends
where n_t falls and reads its alpha there. The layout alone sorts a
batch, and holds the one rule that reads a record-major array in its row
order: `symfa infer` packs every record once into one such batch, and
training each minibatch. An equal-length batch is the case n_t = N. Each
block of about BLOCK_ROWS probability rows (whole steps, step-major) is
evaluated in one pass over the plan, giving every transition's guard
value W_t, and the recursion runs sparsely over the transitions:
alpha_t[j] = sum over transitions i -> j of alpha_{t-1}[i] · W_t. Each
direction is one step loop that carries one value per transition: the
forward loop carries alpha_{t-1}[src] and turns W_t into the flow
alpha_{t-1}[src] · W_t in place; the reverse loop carries the adjoint
read at each transition's target. Only the step that moves that array to
the next step has two forms. On short, narrow batches a step costs its
numpy calls, not its arithmetic, so automata of at most
FLOW_MAX_TRANSITIONS transitions move it with one product with the 0/1
matrix `next` (e ends where f starts), or its transpose; larger
automata, where that product costs more than a gather, sum it per state
and gather the sums, one call more per step.
acceptance_batch keeps only the running state, so scoring memory is
bounded by the block whatever T is. The gradient walks the blocks
backwards, with one reverse pass over the plan per block, and takes
dLoss/dalpha as row codes into a table of rows with a scale per row, so
training passes its few label masks, never an (R, Q) array. Both cores
hold one block at a time: a block's arrays are freed before the next
block's pass over the plan allocates, so past its inputs and outputs a
run holds one block's working set whatever T is.

Compiled automata are immutable apart from two first-use caches, the
plan and the extracted `guards`; nothing builds into a compiled
automaton's table after validation, and two threads that race to fill a
cache fill it with equal values, so forward runs and gradients stay pure
functions and safe to call concurrently.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import circuit
from .circuit import CompiledGuard
from .circuit import compile_guard, wmc_batch  # noqa: F401  (perfbench/layers.py traces these names)
from .errors import (
    ConsistencyError,
    IncompleteError,
    InputError,
    NonDeterministicError,
    SfaFileError,
)
from .logic import (
    Formula,
    Interpretation,
    Vocabulary,
    evaluate,
    f_not,
    f_or,
    format_formula,
    parse_formula,
)

ROW_SUM_RUNTIME_TOL = 1e-6
# how far outside [0, 1] a probability may stray: room for finite-difference
# steps of up to 1e-6 taken at 0 or 1
PROB_RANGE_TOL = 1e-6
BLOCK_ROWS = 1024
# Automata with at most this many transitions run the recursions in flow
# form (see _Plan.next). A flow step makes one numpy call fewer than a
# gather step but costs n_trans² multiply-adds per row, so the crossover
# falls as the rows per step grow. Median flow / gather time of a forward
# plus a reverse pass on 31 automata of 8–512 transitions, interleaved,
# one BLAS thread: at 256–4,096 rows per step 1.01 up to 32 transitions,
# 1.07 at 37–64 and 1.16 at 76–156; at 16 rows 0.77, 0.92 and 1.24; at
# 1 row, below 1 up to 156. So the bound is the crossover of wide
# batches. The number of states does not move it: at 64 transitions and
# 256 rows, 8, 16 and 32 states read 1.16, 1.09 and 1.11.
FLOW_MAX_TRANSITIONS = 32


@dataclass(frozen=True)
class Sfa:
    """Raw symbolic automaton, prior to validation.

    `transitions` is sparse: an absent (source, target) pair means the
    guard `false`. State references are indices into `states`.
    """

    vocab: Vocabulary
    states: tuple[str, ...]
    initial: int
    transitions: Mapping[tuple[int, int], Formula]
    accepting: frozenset[int]

    def __post_init__(self):
        n = len(self.states)
        if len(set(self.states)) != n:
            raise ValueError(f"duplicate state names: {self.states}")
        if not 0 <= self.initial < n:
            raise ValueError(f"initial state index {self.initial} out of range")
        if any(not 0 <= q < n for q in self.accepting):
            raise ValueError("accepting state index out of range")
        for src, dst in self.transitions:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"transition ({src}, {dst}) references unknown state")

    @property
    def num_states(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class CompiledSfa:
    """Validated automaton: its validation table and each transition's node in it.

    Only produced by validate_and_compile, so holders may assume the
    determinism and exhaustiveness invariants; `completed_states` lists
    states whose implicit self-loop was synthesized during validation.
    `table` is the decision-diagram table validation filled, and
    `roots[(src, dst)]` the transition's node in it; nothing builds into
    the table after validation, which drops its memos, and equality
    ignores it, so two validations of one automaton compare equal. Two
    caches are filled from it on first use and kept: `guards`, and
    `_plan` for the runs, which holds only the transitions that can carry
    mass (see _Plan); `roots` and `guards` keep every transition.
    """

    sfa: Sfa
    table: circuit.DiagramTable = field(compare=False)
    roots: Mapping[tuple[int, int], int]
    completed_states: tuple[str, ...]

    @property
    def vocab(self) -> Vocabulary:
        return self.sfa.vocab

    @property
    def states(self) -> tuple[str, ...]:
        return self.sfa.states

    @property
    def num_states(self) -> int:
        return self.sfa.num_states

    @property
    def accepting(self) -> frozenset[int]:
        return self.sfa.accepting

    @cached_property
    def guards(self) -> Mapping[tuple[int, int], CompiledGuard]:
        """Each transition's guard, extracted from `table` on first use and kept."""
        return {pair: self.table.guard(u) for pair, u in self.roots.items()}

    @cached_property
    def _plan(self) -> "_Plan":
        """Run plan of the transitions that can carry mass, read from `table` on first use and kept."""
        return _Plan(self)


def _targets(sfa: Sfa) -> list[list[int]]:
    """The target of every transition out of each state, in declaration order."""
    targets: list[list[int]] = [[] for _ in sfa.states]
    for src, dst in sfa.transitions:
        targets[src].append(dst)
    return targets


def complete_self_loops(
    sfa: Sfa, table: circuit.DiagramTable | None = None, roots: dict | None = None
) -> tuple[Sfa, tuple[str, ...]]:
    """Route unmatched interpretations into a self-loop, per state.

    For every state whose declared outgoing guards do not cover all
    interpretations, the uncovered remainder, the negation of their
    disjunction, is added to (or becomes) the state's self-loop guard.
    `roots` maps each transition to the node of its guard in `table`;
    without it every guard is built here, into `table` or a new one. The
    remainder and the new self-loop are node operations on those roots,
    and each synthesized self-loop's node is written into `roots`, so no
    guard is built twice. Returns the completed automaton, whose self-loops
    carry the formulas `existing | !(g1 | ... | gk)`, and the names of the
    states that were changed.
    """
    if table is None:
        table = circuit.DiagramTable(len(sfa.vocab))
    transitions = dict(sfa.transitions)
    changed = []
    with circuit.too_deep_is_size_error():
        if roots is None:
            roots = {pair: table.build(f) for pair, f in transitions.items()}
        for q, dsts in enumerate(_targets(sfa)):
            gap = table.conj(*map(table.neg, [roots[(q, dst)] for dst in dsts]))
            if gap == 0:
                continue
            formula = f_not(f_or(*(transitions[(q, dst)] for dst in dsts)))
            existing = transitions.get((q, q))
            if existing is not None:
                formula = f_or(existing, formula)
                gap = table.disj(roots[(q, q)], gap)
            transitions[(q, q)], roots[(q, q)] = formula, gap
            changed.append(sfa.states[q])
    completed = Sfa(sfa.vocab, sfa.states, sfa.initial, transitions, sfa.accepting)
    return completed, tuple(changed)


def validate_and_compile(sfa: Sfa, complete: bool = True) -> CompiledSfa:
    """Check determinism and exhaustiveness, compile every guard.

    Guards out of each state must be pairwise unsatisfiable in conjunction
    and their disjunction valid. Each declared guard is built once, into
    one decision-diagram table for the whole automaton (at most
    circuit.MAX_NODES nodes); completion, both checks and the runs' plan
    all read those roots, and no guard is extracted here. A conjunction
    is node 0, the disjunction node 1, and a counterexample is one walk
    down the offending diagram.
    With `complete` (the default) missing coverage becomes a self-loop
    first, made from node ids by complete_self_loops; without it,
    uncovered states raise IncompleteError.
    """
    table = circuit.DiagramTable(len(sfa.vocab))
    completed_states: tuple[str, ...] = ()
    with circuit.too_deep_is_size_error():
        roots = {pair: table.build(f) for pair, f in sfa.transitions.items()}
        if complete:
            sfa, completed_states = complete_self_loops(sfa, table, roots)

        for q, dsts in enumerate(_targets(sfa)):
            out = sorted((dst, roots[(q, dst)]) for dst in dsts)
            for a in range(len(out)):
                for b in range(a + 1, len(out)):
                    both = table.conj(out[a][1], out[b][1])
                    if both != 0:
                        witness = circuit.witness(table.guard(both), True)
                        raise NonDeterministicError(
                            sfa.states[q],
                            (sfa.states[out[a][0]], sfa.states[out[b][0]]),
                            witness.describe(sfa.vocab),
                        )
            cover = table.disj(*(root for _, root in out))
            if cover != 1:
                witness = circuit.witness(table.guard(cover), False)
                raise IncompleteError(sfa.states[q], witness.describe(sfa.vocab))

    # nothing builds into the table after validation: its memos would only be
    # kept memory
    table.drop_memos()
    # completion adds each new self-loop to `roots` and the transitions alike,
    # so both list the transitions in one order
    return CompiledSfa(sfa, table, roots, completed_states)


# --- probabilistic runs ----------------------------------------------------
#
# The recursion cores, _run_forward and _run_backward, read one packed
# layout of N sequences sorted longest first, a _Packed made once per
# batch from their lengths in the caller's order: step t holds the n_t
# sequences longer than t, a prefix of them, and its rows follow step
# t - 1's, so row first[t] + i is step t of packed sequence i. The layout
# is the only code that sorts a batch: it keeps each packed sequence's
# index in the caller's order, and one rule (step_major) that reads a
# record-major array in packed row order. It also holds the blocks both
# cores walk, each with its runs of steps of one width. The probability
# rows are (V, R), state arrays (the alphas and their gradients) (R, Q),
# and the reverse core's gradient comes back as (V, R). The forward core
# walks the blocks from the first step and the reverse core from the
# last, where a sequence joins the walk at its own last step. A core asks
# `rows` for each block's probability rows. An equal-length batch is the
# case n_t = N: pt (V, T, N) gives steps t0..t1-1 as
# pt[:, t0:t1].reshape(V, -1) (_dense), a view when pt is contiguous and
# one copy when pt is the transposed view of an (N, T, V) array, which
# the public functions pass. Any other batch is packed whole once, into
# one (V, R) array whose blocks are views (_views): the layout packs each
# training minibatch's feature rows (pack), and `symfa infer` gathers
# every record's probability rows through the layout's rule. A block holds
# whole steps, about BLOCK_ROWS rows, so a pass's working memory past its
# inputs and outputs is bounded by the block whatever T is.

def reachable_states(c: CompiledSfa) -> list[int]:
    """The states the initial state reaches over guards that are not `false`.

    A `false` guard is root node 0. Returns state indices in order.
    """
    after: list[list[int]] = [[] for _ in c.states]
    for (src, dst), root in c.roots.items():
        if root != 0:
            after[src].append(dst)
    seen, todo = {c.sfa.initial}, [c.sfa.initial]
    while todo:
        new = set(after[todo.pop()]) - seen
        seen |= new
        todo += new
    return sorted(seen)


class _Plan:
    """Transition list of a CompiledSfa and the circuit of its guards.

    The run plan (`trim`, as CompiledSfa._plan builds it) keeps only the
    transitions that can carry mass: those whose guard is not `false` out
    of a reachable state. Every other transition carries exactly 0 at
    every step, so the runs skip it, and a state no kept transition enters
    reads 0.0 in the Q state columns as before. Without `trim` the plan
    holds every declared transition, as transition_tensor needs.
    """

    def __init__(self, c: CompiledSfa, trim: bool = True):
        n = c.num_states
        # the states whose outgoing guards must sum to 1 on every row
        states = reachable_states(c) if trim else list(range(n))
        live = set(states)
        pairs = [
            pair for pair, root in c.roots.items() if not trim or (root != 0 and pair[0] in live)
        ]
        # every index of src and dst is checked to be a state here, so the
        # runs gather with them unchecked (np.take's mode="clip")
        if not all(0 <= q < n for pair in pairs for q in pair):
            raise ValueError(f"a transition references a state outside 0..{n - 1}")
        self.src = np.array([i for i, _ in pairs], dtype=np.intp)
        self.dst = np.array([j for _, j in pairs], dtype=np.intp)
        eye = np.eye(n)
        # (n_trans, Q) 0/1 matrices: x @ from_src sums per source state,
        # x @ into_dst per target state
        self.from_src = eye[self.src]
        self.into_dst = eye[self.dst]
        # (S, n_trans): the rows of from_src.T of the checked states
        self.out_of = self.from_src.T[states]
        # (n_trans, n_trans) 0/1 matrix, next[e, f] = 1 when e ends where f
        # starts: flow @ next is alpha_t[src] of the following step, in one
        # product where the gather form sums per state and gathers. None
        # above FLOW_MAX_TRANSITIONS, where the recursion steps gather.
        self.next = None
        if len(pairs) <= FLOW_MAX_TRANSITIONS:
            self.next = (self.dst[:, None] == self.src).astype(np.float64)
        self.circuit = circuit.Plan(c.table, [c.roots[pair] for pair in pairs])


def _check_probs(c: CompiledSfa, ps: np.ndarray, min_dims: int) -> np.ndarray:
    ps = np.asarray(ps, dtype=np.float64)
    if ps.ndim < min_dims or ps.shape[-1] != len(c.vocab):
        raise ValueError(
            f"expected probability array (..., steps, {len(c.vocab)}), got shape {ps.shape}"
        )
    # NaN fails both comparisons, so this one pass also rejects non-finite values
    tol = PROB_RANGE_TOL
    if ps.size and not (ps.min() >= -tol and ps.max() <= 1.0 + tol):
        raise InputError(f"symbol probabilities must be finite and within [0, 1] (±{tol:g})")
    return ps


class _Packed:
    """The packed layout of a batch of sequences of `lengths`, longest first.

    Made once per batch, and read by both recursion cores and by whatever
    packs rows for them or reads rows from them (see the comment above
    reachable_states). `lengths` are given in the caller's order and
    sorted longest first by a stable sort, so sequences of one length keep
    that order; the layout is the only code that sorts a batch. Packed
    sequence i is the caller's sequence order[i], and the caller's
    sequence k is packed sequence place[k]. `lengths` and `widths` are
    lists: the sorted lengths, and n_t, the number of sequences longer
    than t, for t = 0..T, so n_T = 0. `first` (T + 1,) is the row where
    each step starts, first[T] being the row count R, and `last` (N,) each
    packed sequence's last row; a zero-step sequence has none, and its
    entry is no row. `blocks` walk the steps in order, each as
    (t0, t1, lo, hi, runs): steps t0..t1-1, rows lo..hi-1, and its runs
    of steps of one width. A block takes BLOCK_ROWS // n_t0 steps from its
    first step t0, and at least one, so as widths do not grow it holds at
    most max(BLOCK_ROWS, n_t0) rows. runs() gives the runs of any span of
    steps; pack() reads the whole batch's.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.intp)
        self.order = np.argsort(-lengths, kind="stable")
        self.place = np.empty_like(self.order)
        self.place[self.order] = np.arange(len(lengths))
        lengths = lengths[self.order]
        widths = len(lengths) - np.cumsum(np.bincount(lengths, minlength=1))
        self.first = first = np.cumsum(widths) - widths
        self.last = self.row(np.arange(len(lengths)), lengths - 1)
        self.lengths, self.widths = lengths.tolist(), widths.tolist()
        self.blocks, t1 = [], 0
        while self.widths[t1]:
            t0, t1 = t1, min(t1 + max(1, BLOCK_ROWS // self.widths[t1]), len(widths) - 1)
            self.blocks.append((t0, t1, int(first[t0]), int(first[t1]), list(self.runs(t0, t1))))

    def runs(self, t0: int, t1: int):
        """Each run of steps of one width in t0..t1-1, as (t, k, n, r): k
        steps of n rows each from step t, r rows after step t0's first. A
        run of width n ends where the n-th longest sequence does."""
        t, r = t0, 0
        while t < t1:
            n = self.widths[t]
            k = min(self.lengths[n - 1], t1) - t
            yield t, k, n, r
            t, r = t + k, r + k * n

    def row(self, i, t):
        """The packed row of step t of packed sequence i."""
        return self.first[t] + i

    def pack(self, arrays) -> np.ndarray:
        """(T_k, m) arrays, in the caller's order, as the batch's packed rows
        (R, m): each run of k steps of width n is one np.concatenate of the
        n longest arrays' k-step slices side by side, written in place into
        its rows reshaped (k, n·m)."""
        arrays = [arrays[k] for k in self.order]
        rows = np.empty((self.first[-1], arrays[0].shape[1]))
        for t, k, n, r in self.runs(0, len(self.widths) - 1):
            # a run of every step holds the whole of its n arrays: no slices
            parts = arrays[:n] if k == len(arrays[0]) else [a[t : t + k] for a in arrays[:n]]
            np.concatenate(parts, axis=1, out=rows[r : r + k * n].reshape(k, -1))
        return rows

    def step_major(self, starts) -> np.ndarray:
        """Positions in a record-major array, in packed row order.

        The caller's sequence k has one entry per step, from starts[k] on.
        Packed row first[t] + i reads entry t of sequence order[i], so
        array[step_major(starts)] is the array's entries packed.
        """
        step = np.arange(len(self.widths) - 1)[:, None]
        return (np.asarray(starts, dtype=np.intp)[self.order] + step)[step < self.lengths]


def _check_row_sums(plan: _Plan, roots: np.ndarray) -> np.ndarray:
    """Each checked state's outgoing guard values must sum to 1 on every row.

    The run plan checks every reachable state, so one whose kept guards
    are all `false` (no kept transition at all) sums to 0 and fails.
    Returns `roots`.
    """
    sums = plan.out_of @ roots
    # NaN fails both comparisons, so a NaN guard value fails the check too;
    # no rows pass
    tol = ROW_SUM_RUNTIME_TOL
    if not (sums.max(initial=1.0) - 1.0 <= tol and 1.0 - sums.min(initial=1.0) <= tol):
        worst = float(np.abs(sums - 1.0).max())
        raise ConsistencyError(
            f"transition-matrix row sums off by {worst:.3e}; automaton was not validated correctly"
        )
    return roots


def transition_tensor(c: CompiledSfa, ps):
    """Stack of transition matrices for probability rows ps (..., num_vars).

    Returns (..., Q, Q) matrices from one evaluation on all rows, so its
    node buffer grows with the rows as the output does. Every declared
    transition is kept, so every state's row, reachable or not, is checked
    to sum to 1 within the runtime tolerance. The plan of all transitions
    is built on each call and not kept: no run calls this.
    """
    ps = _check_probs(c, ps, 1)
    plan = _Plan(c, trim=False)
    roots = _check_row_sums(plan, plan.circuit.forward(ps.reshape(-1, ps.shape[-1]).T))
    mats = np.zeros((roots.shape[1], c.num_states, c.num_states))
    mats[:, plan.src, plan.dst] = roots.T
    return mats.reshape(ps.shape[:-1] + (c.num_states, c.num_states))


def transition_matrix(c: CompiledSfa, p):
    """Single transition matrix T with T[i, j] = P(guard(i, j) | p)."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("transition_matrix expects one probability vector")
    return transition_tensor(c, p)


def _initial_alpha(c: CompiledSfa, lead_shape: tuple) -> np.ndarray:
    alpha = np.zeros(lead_shape + (c.num_states,))
    alpha[..., c.sfa.initial] = 1.0
    return alpha


def _dense(pt: np.ndarray):
    """The packed layout of pt (V, T, N), N sequences of T steps, and the
    rows of a block of steps t0..t1-1, pt[:, t0:t1] as (V, (t1 - t0)·N)."""
    return _Packed(np.full(pt.shape[2], pt.shape[1])), lambda t0, t1: pt[:, t0:t1].reshape(len(pt), -1)


def _views(packed: _Packed, probs: np.ndarray):
    """The layout and the rows of a block of steps t0..t1-1 of its packed
    rows probs (V, R): a view, since a block's rows are contiguous."""
    return packed, lambda t0, t1: probs[:, packed.first[t0] : packed.first[t1]]


def _run_forward(c: CompiledSfa, packed: _Packed, rows, out: np.ndarray | None = None):
    """The forward recursion over a packed batch of N sequences.

    `packed` is the batch's layout (_Packed): the sequences sorted longest
    first, step t running the n_t sequences longer than t, a prefix of
    them. rows(t0, t1) gives the probability rows (V, hi - lo) of the
    block of steps t0..t1-1, rows lo..hi-1, step-major: step t's n_t rows,
    then step t + 1's (_dense and _views make both). An equal-length
    batch is the case n_t = N.

    The flow of step t is the mass each transition carries,
    alpha_{t-1}[src] · W_t, where W_t holds the guard value of every
    transition at step t; alpha_t is the flow summed per target state. The
    loop carries incoming_t = alpha_t[src] and turns each step's weights
    into its flow in place (flow_t = W_t · incoming_{t-1}), on the prefix
    of the running sequences. Only the propagation to the next step
    depends on the plan's form: on automata of at most FLOW_MAX_TRANSITIONS
    transitions incoming_t is flow_t @ next, two calls per step, and a
    block's alphas come from one product of its flows with `into_dst`;
    larger automata take alpha_t = flow_t @ into_dst and gather
    alpha_t[src] from it, three calls per step. Each of the layout's runs
    of steps of one width is one (steps, n_t, ·) view, so a step makes no
    call more than on an equal-length batch. Given `out` (R, Q), every
    alpha_t is written to it, in the rows' order. Otherwise only the
    running state is kept, and the result is each packed sequence's alpha
    at its last step (N, Q), read where it ends: the initial one for a
    zero-step sequence.
    """
    plan = c._plan
    src, into_dst, nxt = plan.src, plan.into_dst, plan.next
    gather = nxt is None
    widths = packed.widths
    alpha = _initial_alpha(c, (len(packed.lengths),))
    incoming = alpha.take(src, axis=1, mode="clip")
    for t0, t1, lo, hi, runs in packed.blocks:
        # the block's weights, turned into its flows in place
        flow = np.ascontiguousarray(_check_row_sums(plan, plan.circuit.forward(rows(t0, t1))).T)
        # each run of k steps of one width n works on one (k, n, ·) view. The
        # products are ndarray.dot: np.dot enters a Python dispatcher on every
        # call, 10% of train-long's latency (numpy 2.4.6, 2 cores)
        for t, k, n, r in runs:
            inc, flows = incoming[:n], flow[r : r + k * n].reshape(k, n, -1)
            if gather:
                ats = [alpha[:n]] * k if out is None else out[lo + r :][: k * n].reshape(k, n, -1)
                for w, at in zip(flows, ats):
                    w *= inc
                    w.dot(into_dst, out=at).take(src, axis=1, out=inc, mode="clip")
            else:
                for w in flows:
                    w *= inc
                    w.dot(nxt, out=inc)
            # a flow run's last step: the sequences that end there read their alpha
            if out is None and not gather and widths[t + k] < n:
                w[widths[t + k] :].dot(into_dst, out=alpha[widths[t + k] : n])
        if out is not None and not gather:
            # a flow block's alphas, from one product of its flows
            flow.dot(into_dst, out=out[lo:hi])
        # the block's flows, and the step views that hold them, die before
        # the next block's pass allocates
        del flow, flows, w
    return alpha if out is None else None


def _at_dst(table, codes, scale, dst) -> np.ndarray:
    """The gradient rows scale[i] · table[codes[i]] read at `dst`, one
    product per entry: (len(codes), len(dst)). The rows are gathered before
    `dst`, so a dense table (R, Q) is read a block at a time."""
    grads = table.take(codes, axis=0).take(dst, axis=1, mode="clip")
    grads *= scale[:, None]
    return grads


def _run_backward(
    c: CompiledSfa, packed: _Packed, rows, alphas, table, codes, scale, at_last: bool = False
):
    """The reverse recursion over a packed batch; returns dLoss/drows (V, R).

    `packed` and `rows` are a batch's layout and the rows of its blocks,
    as _run_forward takes them, and `alphas` (R, Q) holds every alpha_t of
    its forward recursion, in the rows' order. dLoss/dalpha_t comes as row
    codes: row i's gradient is scale[i] · table[codes[i]], for every row
    (codes and scale (R,)), or with `at_last` for each packed sequence's
    last step only (N,). Training's table is its few label masks (see
    learn._targets); a caller with dense gradients (R, Q) passes them as
    their own table, with codes arange(R) and scale 1. Walking the
    layout's blocks from the last step back, the adjoint recursion
    abar_{t-1} = grads_{t-1} + (W_t · abar_t[dst]) summed per source state
    seeds each transition root with
    alpha_{t-1}[src] · abar_t[dst], read from `alphas` in place (the
    initial one-hot for t = 0), and one reverse pass over the merged
    circuit turns those seeds into dLoss/dp_t. The loop carries
    a_t = abar_t[dst] per transition: every grads_t[dst] of a block is
    gathered from its codes and scaled in one product (_at_dst), and each
    step adds the carry to it and moves W_t · a_t back, on the prefix
    of the n_t running sequences. A sequence joins the walk at its own
    last step, where its carry is still the one it started with: zero, or
    with `at_last` its gradient at `dst`. Only the move depends on the
    plan's form: on automata of at most FLOW_MAX_TRANSITIONS transitions
    it is one product with next.T, three calls per step; larger automata
    sum it per source state and gather the sums at `dst`, four calls per
    step. The core holds one block at a time: a block's guard weights die
    before its reverse pass over the circuit, which writes its (V, rows)
    gradient in place, and its tape and seeds before the next block's
    forward pass over the circuit allocates.
    """
    plan = c._plan
    src, dst, from_src, nxt = plan.src, plan.dst, plan.from_src, plan.next
    gather = nxt is None
    back = None if gather else nxt.T
    widths = packed.widths
    # the initial one-hot, read per transition
    initial_src = (src == c.sfa.initial).astype(np.float64)
    out = np.empty((len(c.vocab), len(alphas)))
    # abar_t[dst] − grads_t[dst], carried across steps and blocks:
    # W_{t+1} · a_{t+1} summed over the transitions leaving the state where
    # each one ends
    carry = _at_dst(table, codes, scale, dst) if at_last else np.zeros((widths[0], len(src)))
    moved = np.empty(carry.shape)
    # the per-state sums of a gather step
    abar = np.empty((len(carry), c.num_states))
    for t0, t1, lo, hi, runs in reversed(packed.blocks):
        block = rows(t0, t1)
        # the root values are the guard weights, (n_trans, rows)
        weights, tape = plan.circuit.forward(block, keep=True)
        weights = np.ascontiguousarray(weights.T)
        # the block's root seeds, grads[dst] of its rows to begin with
        if at_last:
            seeds = np.zeros(weights.shape)
        else:
            seeds = _at_dst(table, codes[lo:hi], scale[lo:hi], dst)
        # ndarray.dot, not np.dot, whose Python dispatcher (see _run_forward)
        # each step would enter
        for t, k, n, r in reversed(runs):
            run_seeds = seeds[r : r + k * n].reshape(k, n, -1)
            run_carry, run_moved, run_abar = carry[:n], moved[:n], abar[:n]
            for w, a in zip(weights[r : r + k * n].reshape(k, n, -1)[::-1], run_seeds[::-1]):
                a += run_carry
                np.multiply(w, a, out=run_moved)
                if gather:
                    run_moved.dot(from_src, out=run_abar)
                    run_abar.take(dst, axis=1, out=run_carry, mode="clip")
                else:
                    run_moved.dot(back, out=run_carry)
            # root seeds alpha_{t-1}[src] · abar_t[dst], alpha_{t-1} read from
            # `alphas` in place, or the initial one-hot for t = 0; step t's
            # sequences are a prefix of step t - 1's, whose rows end where
            # the run's start
            prev = alphas[lo + r - widths[t - 1] :][:n] if t else None
            run_seeds[0] *= prev.take(src, axis=1, mode="clip") if t else initial_src
            before = alphas[lo + r :][: (k - 1) * n].reshape(k - 1, n, alphas.shape[1])
            run_seeds[1:] *= before.take(src, axis=2, mode="clip")
        # the weights, and the step views that hold them, die before the
        # circuit's reverse pass; the tape and seeds before the next block's
        # forward pass
        del weights, w
        plan.circuit.backward(block, tape, seeds.T, out=out[:, lo:hi])
        del tape, seeds, run_seeds, a
    return out


def forward_alphas(c: CompiledSfa, ps) -> np.ndarray:
    """State distributions after each step, batched: (..., T, V) -> (..., T, Q).

    Memory grows with the output; acceptance_batch keeps only alpha_T.
    """
    ps = _check_probs(c, ps, 2)
    lead, steps = ps.shape[:-2], ps.shape[-2]
    width = math.prod(lead)
    out = np.empty((steps, width, c.num_states))
    _run_forward(c, *_dense(ps.reshape((width,) + ps.shape[-2:]).T), out.reshape(-1, c.num_states))
    return np.ascontiguousarray(out.transpose(1, 0, 2)).reshape(lead + (steps, c.num_states))


def one_sequence(ps, width: int) -> np.ndarray:
    """`ps` as one (steps, width) sequence; an empty list is the zero-step one.

    The one rule for a single sequence, shared by acceptance, forward,
    `symfa infer` and the enumerative engine.
    """
    ps = np.asarray(ps, dtype=np.float64)
    if ps.shape == (0,):
        return ps.reshape(0, width)
    if ps.shape[1:] != (width,):
        raise ValueError(f"probabilities must be a (steps, {width}) array, got shape {ps.shape}")
    return ps


def forward(c: CompiledSfa, ps) -> list[np.ndarray]:
    """State distribution after each observation of one sequence.

    `ps` is a (T, num_vars) array (or list of rows); the result is the list
    (alpha_1, ..., alpha_T). An empty sequence yields an empty list.
    """
    return list(forward_alphas(c, one_sequence(ps, len(c.vocab))))


def _accepting_mask(c: CompiledSfa) -> np.ndarray:
    mask = np.zeros(c.num_states)
    for q in c.accepting:
        mask[q] = 1.0
    return mask


def acceptance(c: CompiledSfa, ps) -> float:
    """Probability that the automaton accepts the probability sequence."""
    return float(acceptance_batch(c, one_sequence(ps, len(c.vocab))))


def acceptance_batch(c: CompiledSfa, ps) -> np.ndarray:
    """Acceptance probabilities for a batch of equal-length sequences.

    Only the running state is kept, so memory is bounded by the block
    whatever T is.
    """
    ps = _check_probs(c, ps, 2)
    lead = ps.shape[:-2]
    alpha = _run_forward(c, *_dense(ps.reshape((math.prod(lead),) + ps.shape[-2:]).T))
    return alpha.reshape(lead + (c.num_states,)) @ _accepting_mask(c)


def backward_gradient(c: CompiledSfa, ps, alpha_grads, alphas=None) -> np.ndarray:
    """Exact reverse-mode gradient of a loss through the state recursion.

    `ps` has shape (..., T, V); `alpha_grads` has shape (..., S, Q), S <= T,
    and holds dLoss/dalpha_t for each of the last S steps' distributions;
    the loss reads no earlier step, so their gradient is zero (S = T
    covers every step). `alphas`, when given, must be
    forward_alphas(c, ps); otherwise the forward pass is run here. The
    result is dLoss/dps, same shape as ps, from the reverse recursion of
    _run_backward.
    """
    ps = _check_probs(c, ps, 2)
    alpha_grads = np.asarray(alpha_grads, dtype=np.float64)
    lead, steps = ps.shape[:-2], ps.shape[-2]
    if (
        alpha_grads.ndim != ps.ndim
        or alpha_grads.shape[:-2] != lead
        or alpha_grads.shape[-2] > steps
        or alpha_grads.shape[-1] != c.num_states
    ):
        raise ValueError(
            f"alpha_grads shape {alpha_grads.shape} does not match sequence shape"
        )
    if alphas is None:
        alphas = forward_alphas(c, ps)
    elif np.shape(alphas) != lead + (steps, c.num_states):
        raise ValueError(f"alphas shape {np.shape(alphas)} does not match sequence shape")
    width, nq = math.prod(lead), c.num_states
    # the packed rows are step-major: (T, N, Q), and grads zero before the last S steps
    last = alpha_grads.shape[-2]
    grads = np.zeros((steps, width, nq))
    grads[steps - last :] = alpha_grads.reshape(width, last, nq).transpose(1, 0, 2)
    alphas = np.asarray(alphas, dtype=np.float64).reshape(width, steps, nq).transpose(1, 0, 2)
    pt = ps.reshape((width,) + ps.shape[-2:]).T
    # the dense rows are their own table: row i is code i, scaled by 1
    n = steps * width
    grad = _run_backward(
        c, *_dense(pt), alphas.reshape(n, nq), grads.reshape(n, nq), np.arange(n), np.ones(n)
    )
    return np.ascontiguousarray(grad.reshape(pt.shape).T).reshape(ps.shape)


# --- boolean runs ----------------------------------------------------------

def boolean_run(c: CompiledSfa, trace: Sequence[Interpretation]) -> list[int]:
    """State indices visited after each interpretation of a boolean trace."""
    state = c.sfa.initial
    path = []
    for omega in trace:
        out_of = ((dst, f) for (src, dst), f in c.sfa.transitions.items() if src == state)
        nxt = next((dst for dst, f in out_of if evaluate(f, omega)), None)
        if nxt is None:  # unreachable on a validated automaton
            raise ConsistencyError(
                f"no transition out of '{c.states[state]}' fires on {omega.describe(c.vocab)}"
            )
        state = nxt
        path.append(state)
    return path


def accepts_trace(c: CompiledSfa, trace: Sequence[Interpretation]) -> bool:
    """Boolean acceptance of a trace of interpretations."""
    path = boolean_run(c, trace)
    final = path[-1] if path else c.sfa.initial
    return final in c.accepting


# --- automaton description files -------------------------------------------
#
# vars: tired, blocked, fast      # ordered vocabulary
# states: q0, q1, q2              # ordered state names
# initial: q0
# accepting: q0, q1               # may be empty
# q0 -> q1 : tired | blocked      # one line per declared transition
#
# '#' starts a comment anywhere on a line; blank lines are ignored; the
# four header lines must each appear exactly once, before any use is made
# of them; transition lines may repeat (src, dst) pairs at most once.

# in the order a missing one is reported
_SFA_HEADERS = ("vars", "states", "initial", "accepting")


def parse_sfa(text: str) -> Sfa:
    # header -> its names, in file order; `initial` keeps its whole body as
    # one name
    headers: dict[str, list[str]] = {}
    vocab: Vocabulary | None = None
    # state name -> its index, from the states header
    index: dict[str, int] = {}
    transitions: dict[tuple[int, int], Formula] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # a header keyword decides first: a header's names may hold '->'
        head, sep, body = line.partition(":")
        key = head.strip().lower()
        if not sep or key not in _SFA_HEADERS:
            if "->" not in line:
                raise SfaFileError(f"unrecognized line {line!r}", lineno)
            if vocab is None or "states" not in headers:
                raise SfaFileError("transition listed before vars/states headers", lineno)
            if not body.strip():
                raise SfaFileError("transition needs ': <guard>'", lineno)
            src_name, _, dst_name = head.partition("->")
            src_name, dst_name = src_name.strip(), dst_name.strip()
            src, dst = index.get(src_name), index.get(dst_name)
            if src is None or dst is None:
                missing = src_name if src is None else dst_name
                raise SfaFileError(f"unknown state '{missing}'", lineno)
            if (src, dst) in transitions:
                raise SfaFileError(
                    f"duplicate transition {src_name} -> {dst_name}", lineno
                )
            try:
                transitions[(src, dst)] = parse_formula(body.strip(), vocab)
            except Exception as exc:
                raise SfaFileError(f"bad guard: {exc}", lineno) from exc
            continue
        if key in headers:
            raise SfaFileError(f"duplicate {key} header", lineno)
        if key == "initial":
            names = [body.strip()]
        else:
            names = [part.strip() for part in body.split(",") if part.strip()]
        if key in ("vars", "states") and not names:
            raise SfaFileError(f"{key} header needs at least one name", lineno)
        if key in ("vars", "states") and len(set(names)) < len(names):
            repeated = next(name for name, count in Counter(names).items() if count > 1)
            raise SfaFileError(f"{key} header lists '{repeated}' more than once", lineno)
        if key in ("initial", "accepting"):
            if "states" not in headers:
                raise SfaFileError(f"{key} header must follow states", lineno)
            for name in names:
                if name not in index:
                    raise SfaFileError(f"unknown {key} state '{name}'", lineno)
        headers[key] = names
        if key == "vars":
            for name in names:
                # a guard's variables are ASCII identifiers; true and false are its constants
                if not (name.isascii() and name.isidentifier()) or name in ("true", "false"):
                    raise SfaFileError(f"vars name '{name}' cannot be used in a guard", lineno)
            vocab = Vocabulary(tuple(names))
        elif key == "states":
            for name in names:
                # a transition line's first ':' ends its states, '->' splits them
                for mark in (":", "->"):
                    if mark in name:
                        raise SfaFileError(f"state name '{name}' holds '{mark}'", lineno)
            index = {name: i for i, name in enumerate(names)}

    for key in _SFA_HEADERS:
        if key not in headers:
            raise SfaFileError(f"missing {key} header", 0)
    initial = index[headers["initial"][0]]
    accepting = frozenset(index[name] for name in headers["accepting"])
    return Sfa(vocab, tuple(headers["states"]), initial, transitions, accepting)


def load_sfa(path) -> Sfa:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sfa(fh.read())


def format_sfa(sfa: Sfa) -> str:
    lines = [
        "vars: " + ", ".join(sfa.vocab.names),
        "states: " + ", ".join(sfa.states),
        "initial: " + sfa.states[sfa.initial],
        "accepting: " + ", ".join(sfa.states[q] for q in sorted(sfa.accepting)),
    ]
    for (src, dst) in sorted(sfa.transitions):
        guard = format_formula(sfa.transitions[(src, dst)], sfa.vocab)
        lines.append(f"{sfa.states[src]} -> {sfa.states[dst]} : {guard}")
    return "\n".join(lines) + "\n"
