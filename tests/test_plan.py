"""The merged guard plan and sparse recursions against a per-guard reference.

The reference evaluates every guard on its own (`wmc_batch`, value and
gradient), stacks dense (..., Q, Q) transition matrices and runs the
recursions with einsum, which is how runs were computed before guards
were merged into one plan.
"""

import dataclasses
import hashlib
import itertools
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symfa import (
    CompiledSfa,
    ConsistencyError,
    Sfa,
    Vocabulary,
    automaton,
    parse_formula,
    validate_and_compile,
)
from symfa.automaton import (
    BLOCK_ROWS,
    _accepting_mask,
    _check_row_sums,
    _initial_alpha,
    acceptance,
    acceptance_batch,
    backward_gradient,
    forward,
    forward_alphas,
    reachable_states,
    transition_matrix,
    transition_tensor,
)
from symfa.bench import random_pattern
from symfa.circuit import DiagramTable, Plan, witness, wmc_batch
from symfa.logic import Var, evaluate

TOL = 1e-12


def reference_matrices(c, ps):
    """Dense transition matrices and their gradients, one guard at a time."""
    nq = c.num_states
    mats = np.zeros(ps.shape[:-1] + (nq, nq))
    grads = np.zeros(ps.shape[:-1] + (nq, nq, ps.shape[-1]))
    for (i, j), g in c.guards.items():
        mats[..., i, j], grads[..., i, j, :] = wmc_batch(g, ps, want_gradient=True)
    return mats, grads


def reference_alphas(c, ps):
    mats, _ = reference_matrices(c, ps)
    alpha = _initial_alpha(c, ps.shape[:-2])
    out = np.zeros(ps.shape[:-1] + (c.num_states,))
    for t in range(ps.shape[-2]):
        alpha = np.einsum("...i,...ij->...j", alpha, mats[..., t, :, :])
        out[..., t, :] = alpha
    return out


def reference_gradient(c, ps, alpha_grads):
    mats, grads = reference_matrices(c, ps)
    alphas = reference_alphas(c, ps)
    initial = _initial_alpha(c, ps.shape[:-2])
    out = np.zeros(ps.shape)
    abar = np.zeros(ps.shape[:-2] + (c.num_states,))
    for t in range(ps.shape[-2] - 1, -1, -1):
        abar = abar + alpha_grads[..., t, :]
        before = alphas[..., t - 1, :] if t else initial
        # dLoss/dT_t[i, j] = alpha_{t-1}[i] * abar_t[j]
        out[..., t, :] = np.einsum("...i,...j,...ijv->...v", before, abar, grads[..., t, :, :, :])
        abar = np.einsum("...ij,...j->...i", mats[..., t, :, :], abar)
    return out


def assert_close(got, want):
    assert got.shape == want.shape
    if want.size:
        scale = max(1.0, float(np.abs(want).max()))
        assert float(np.abs(got - want).max()) <= TOL * scale


def shared_roots_sfa():
    """Transitions whose guards share roots in the merged plan.

    `c` guards two transitions (a repeated guard) and is also the hi
    branch of `a & c`; q3's self-loop is the constant `true`.
    """
    vocab = Vocabulary.of("a", "b", "c")

    def f(text):
        return parse_formula(text, vocab)

    transitions = {
        (0, 1): f("a & c"),
        (0, 2): f("!(a & c)"),
        (1, 0): f("c"),
        (1, 1): f("!c"),
        (2, 0): f("c"),
        (2, 3): f("!c & b"),
        (2, 2): f("!c & !b"),
        (3, 3): f("true"),
    }
    return Sfa(vocab, ("q0", "q1", "q2", "q3"), 0, transitions, frozenset({0, 3}))


@pytest.fixture(scope="module")
def automata(driving, events):
    return {
        "driving": driving.compiled,
        "events": events.compiled,
        "random:8x10:2": random_pattern(8, 10, 2).compiled,
        "shared-roots": validate_and_compile(shared_roots_sfa()),
        # 37 transitions, above FLOW_MAX_TRANSITIONS: the gather steps
        "random:16x6:0": random_pattern(16, 6, 0).compiled,
        "random:64x12:0": random_pattern(64, 12, 0).compiled,
    }


NAMES = ["driving", "events", "random:8x10:2", "shared-roots", "random:16x6:0"]


def check_against_reference(c, shape, seed):
    rng = np.random.default_rng(seed)
    ps = rng.uniform(size=shape + (len(c.vocab),))
    alpha_grads = rng.normal(size=shape + (c.num_states,))
    want = reference_alphas(c, ps)
    alphas = forward_alphas(c, ps)
    assert_close(alphas, want)
    if shape[-1]:
        assert_close(acceptance_batch(c, ps), want[..., -1, :] @ _accepting_mask(c))
    assert_close(backward_gradient(c, ps, alpha_grads, alphas), reference_gradient(c, ps, alpha_grads))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("shape", [(5,), (3, 0), (3, 1), (4, 6), (2, 3, 4)])
def test_matches_reference(automata, name, shape):
    check_against_reference(automata[name], shape, seed=len(shape) * 10 + shape[-1])


@pytest.mark.parametrize(
    "shape",
    [
        (BLOCK_ROWS - 1,),
        (BLOCK_ROWS,),
        (BLOCK_ROWS + 1,),
        (BLOCK_ROWS - 1, 1),
        (BLOCK_ROWS, 1),
        (BLOCK_ROWS + 1, 1),
        (3, 700),  # 341 steps per block, three blocks
        (BLOCK_ROWS + 1, 3),  # one step per block, carried across three blocks
    ],
)
@pytest.mark.parametrize("name", ["driving", "shared-roots", "random:8x10:2", "random:16x6:0"])
def test_block_boundaries(automata, name, shape):
    check_against_reference(automata[name], shape, seed=shape[0])


@pytest.mark.parametrize("name", ["driving", "events"])
def test_flow_and_gather_loops_agree(automata, monkeypatch, name):
    flow = automata[name]
    assert flow._plan.next is not None
    monkeypatch.setattr(automaton, "FLOW_MAX_TRANSITIONS", 0)
    # the plan is cached on the automaton, so the gather steps need a fresh copy
    gather = validate_and_compile(flow.sfa)
    assert gather._plan.next is None
    rng = np.random.default_rng(4)
    for shape in [(1, 1), (5, 40), (3, 700)]:
        ps = rng.uniform(size=shape + (len(flow.vocab),))
        alpha_grads = rng.normal(size=shape + (flow.num_states,))
        for run in (
            lambda c: forward_alphas(c, ps),
            lambda c: acceptance_batch(c, ps),
            lambda c: backward_gradient(c, ps, alpha_grads),
        ):
            want = run(gather)
            scale = max(1.0, float(np.abs(want).max()))
            assert float(np.abs(run(flow) - want).max()) <= 1e-13 * scale


@pytest.mark.parametrize("path", ["flow", "gather"])
@pytest.mark.parametrize("name", ["driving", "events"])
def test_acceptance_is_the_last_alpha_on_the_accepting_states(automata, monkeypatch, name, path):
    c = automata[name]
    if path == "gather":
        monkeypatch.setattr(automaton, "FLOW_MAX_TRANSITIONS", 0)
        c = validate_and_compile(c.sfa)
    assert (c._plan.next is None) == (path == "gather")
    rng = np.random.default_rng(9)
    for shape in [(1, 1), (5, 40), (3, 700), (40, 60), (7,), (4, 0)]:
        ps = rng.uniform(size=shape + (len(c.vocab),))
        # alpha_0 ahead of forward_alphas, so that T = 0 reads the initial state
        alpha_0 = _initial_alpha(c, shape[:-1])[..., None, :]
        alphas = np.concatenate([alpha_0, forward_alphas(c, ps)], axis=-2)
        want = alphas[..., -1, :] @ _accepting_mask(c)
        got = acceptance_batch(c, ps)
        assert np.shape(got) == np.shape(want)
        assert float(np.abs(got - want).max()) <= 1e-15


def test_acceptance_memory_is_bounded_by_the_block(driving):
    c = driving.compiled
    ps = np.random.default_rng(10).uniform(size=(8, 20000, len(c.vocab)))
    acceptance_batch(c, ps[:, :1])  # the plan is built outside the measurement
    tracemalloc.start()
    try:
        acceptance_batch(c, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    alphas_bytes = ps.shape[0] * ps.shape[1] * c.num_states * 8
    assert peak < alphas_bytes / 2


@pytest.mark.parametrize("name", NAMES)
def test_transition_tensor_matches_reference(automata, name):
    c = automata[name]
    for shape in [(2, 7), (3, 500)]:  # 14 rows, and more than BLOCK_ROWS
        ps = np.random.default_rng(3).uniform(size=shape + (len(c.vocab),))
        assert_close(transition_tensor(c, ps), reference_matrices(c, ps)[0])


@pytest.mark.parametrize("name", NAMES)
def test_plan_of_guards_compiled_one_by_one_is_the_same(automata, name):
    # the extracted diagram does not depend on what else its table holds, so
    # the run plan's guards built into a fresh table, in reverse order after
    # an unrelated conjunction, give the same plan arrays as the validation
    # table
    c = automata[name]
    kept = list(zip(c._plan.src.tolist(), c._plan.dst.tolist()))
    n = len(c.vocab)
    table = DiagramTable(n)
    table.conj(*(table.neg(table.build(Var(i))) for i in reversed(range(n))))
    roots = {pair: table.build(c.sfa.transitions[pair]) for pair in reversed(kept)}
    got, want = Plan(table, [roots[pair] for pair in kept]), c._plan.circuit
    assert np.array_equal(got.roots, want.roots)
    assert len(got.levels) == len(want.levels)
    for a, b in zip(got.levels, want.levels):
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


# the plan of every declared transition, which transition_tensor builds
PLAN_SHA256 = {
    "driving": "cb79821867183e591fbe499b15948cc9c5a38d207613b158319176d8274b0c78",
    "events": "acff78bf5a68fac8e3e4bb14e6fdaaafb7cb23225afbe8f98be3164e6ea8d85b",
    "random:8x10:2": "0bc993296e4c01bdd56f2b137885e60ac75f27fa79d2191d0d484bf783fb8734",
    "random:16x6:0": "5e0874416f1bb0fd5b25e9eed7f2fbf787dc03ce58fe18494371e04809c197a2",
    "random:64x12:0": "69b482a9377328bd7d7298d446067fe24d1312b73353a27e63e6305a57939fcb",
}

# the run plan; driving and events have nothing to trim
RUN_PLAN_SHA256 = {
    "driving": PLAN_SHA256["driving"],
    "events": PLAN_SHA256["events"],
    "random:8x10:2": "ef999aab51729e49de64e6f8a738697996f98ed1b3adf6ed1eb56efe1a0d6566",
    "random:16x6:0": "f8f46e05b0b49bc4251509788c662b161db028809e48a6d8205cf096cd96fbf0",
    "random:64x12:0": "cab54ee356563a2444a1394ef72bf9b515021df938ce5d04727b1bdb49191210",
}


def plan_digest(plan: Plan) -> str:
    # one digest over every plan array, with its dtype and shape, so that a
    # rewrite of the plan build is checked against the layout it replaces
    arrays = [plan.roots]
    for lev in plan.levels:
        arrays += [lev.var, lev.hi, lev.lo, lev.edge_src, lev.edge_weight, lev.edge_sum]
    arrays.append(plan._var_sum)
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", PLAN_SHA256)
def test_plan_arrays_are_pinned(automata, name):
    plan = automaton._Plan(automata[name], trim=False).circuit
    assert plan_digest(plan) == PLAN_SHA256[name]


@pytest.mark.parametrize("name", RUN_PLAN_SHA256)
def test_run_plan_arrays_are_pinned(automata, name):
    assert plan_digest(automata[name]._plan.circuit) == RUN_PLAN_SHA256[name]


def test_plan_is_built_on_first_run_only(driving):
    c = validate_and_compile(driving.sfa)
    assert "_plan" not in vars(c)
    forward_alphas(c, np.full((2, 3), 0.5))
    plan = vars(c)["_plan"]
    acceptance_batch(c, np.full((4, 2, 3), 0.5))
    assert c._plan is plan


def test_guards_are_extracted_on_first_read_and_kept(driving):
    c = validate_and_compile(driving.sfa)
    assert "guards" not in vars(c)
    assert c.guards is c.guards
    assert list(c.guards) == list(c.sfa.transitions)


def test_two_validations_of_one_automaton_compare_equal(driving, events):
    # events gets synthesized self-loops; its two validations build two tables
    for sfa in (driving.sfa, events.sfa, shared_roots_sfa()):
        a, b = validate_and_compile(sfa), validate_and_compile(sfa)
        assert a is not b and a == b


def test_validation_drops_the_table_memos(driving, events):
    for sfa in (driving.sfa, events.sfa, shared_roots_sfa()):
        c = validate_and_compile(sfa)
        table = c.table
        assert table._neg == {0: 1, 1: 0} and table._and == {}
        # `_unique` is kept: validation's own checks, done again in its
        # order, land on the same canonical nodes and add none
        size = len(table._nodes)
        for q, dsts in enumerate(automaton._targets(c.sfa)):
            roots = [c.roots[(q, dst)] for dst in sorted(dsts)]
            assert all(table.conj(u, v) == 0 for u, v in itertools.combinations(roots, 2))
            assert table.disj(*roots) == 1
        assert len(table._nodes) == size
        for pair, guard in c.guards.items():
            found = witness(guard, True)
            assert found is not None and evaluate(c.sfa.transitions[pair], found)
        ps = np.random.default_rng(11).uniform(size=(3, 5, len(c.vocab)))
        assert_close(forward_alphas(c, ps), reference_alphas(c, ps))
        assert c == validate_and_compile(sfa)


def test_unvalidated_automaton_fails_the_row_sum_check():
    vocab = Vocabulary.of("a", "b")
    guard = parse_formula("a", vocab)
    table = DiagramTable(2)
    sfa = Sfa(vocab, ("q0",), 0, {(0, 0): guard}, frozenset({0}))
    broken = CompiledSfa(sfa, table, {(0, 0): table.build(guard)}, ())
    with pytest.raises(ConsistencyError):
        forward_alphas(broken, np.full((3, 2), 0.5))


def unvalidated(states, transitions):
    """A CompiledSfa over a, b built without validation; q0 is initial and accepting."""
    vocab = Vocabulary.of("a", "b")
    guards = {pair: parse_formula(text, vocab) for pair, text in transitions.items()}
    table = DiagramTable(2)
    sfa = Sfa(vocab, states, 0, guards, frozenset({0}))
    return CompiledSfa(sfa, table, {pair: table.build(g) for pair, g in guards.items()}, ())


@pytest.mark.parametrize(
    "states, transitions",
    [
        # q1 is reachable, and its only guard is `false`: the run plan keeps
        # no transition out of it, and its row sums to 0
        (("q0", "q1"), {(0, 1): "true", (1, 1): "false"}),
        # the run plan keeps no transition at all
        (("q0",), {(0, 0): "false"}),
    ],
)
def test_a_reachable_state_with_only_false_guards_fails_the_row_sum_check(states, transitions):
    broken = unvalidated(states, transitions)
    ps = np.full((4, 3, 2), 0.5)
    with pytest.raises(ConsistencyError):
        forward_alphas(broken, ps)
    with pytest.raises(ConsistencyError):
        acceptance_batch(broken, ps)
    with pytest.raises(ConsistencyError):
        transition_matrix(broken, [0.5, 0.5])


def test_a_broken_row_of_an_unreachable_state_fails_only_the_matrix():
    # q1, whose row sums to P(a), cannot be reached: the runs step only q0,
    # and transition_matrix checks every state's row
    broken = unvalidated(("q0", "q1"), {(0, 0): "true", (1, 1): "a"})
    ps = np.full((4, 3, 2), 0.5)
    want = np.zeros((4, 3, 2))
    want[..., 0] = 1.0
    assert np.array_equal(forward_alphas(broken, ps), want)
    assert np.array_equal(acceptance_batch(broken, ps), np.ones(4))
    with pytest.raises(ConsistencyError):
        transition_matrix(broken, [0.5, 0.5])


def test_a_nan_guard_value_fails_the_row_sum_check(automata):
    plan = automata["driving"]._plan
    roots = plan.circuit.forward(np.full((3, 4), 0.5))
    _check_row_sums(plan, roots)
    roots[0, 1] = np.nan
    with pytest.raises(ConsistencyError, match="row sums off by nan"):
        _check_row_sums(plan, roots)


@pytest.mark.parametrize("name", ["driving", "random:8x10:2"])
def test_backward_leaves_its_tape_as_it_is(automata, name):
    # a second reverse pass over one tape gives the first one's gradient
    plan = automata[name]._plan.circuit
    rng = np.random.default_rng(3)
    p = rng.uniform(size=(plan.num_vars, 5))
    roots, tape = plan.forward(p, keep=True)
    kept = tape.copy()
    adjoints = rng.normal(size=roots.shape)
    first = plan.backward(p, tape, adjoints)
    assert np.array_equal(tape, kept)
    assert np.array_equal(plan.backward(p, tape, adjoints), first)


def test_empty_sequence_acceptance(automata):
    c = automata["shared-roots"]
    assert np.array_equal(acceptance_batch(c, np.zeros((4, 0, 3))), np.ones(4))
    assert acceptance(automata["events"], []) == 0.0  # its initial state rejects


def test_acceptance_takes_one_sequence(automata):
    c = automata["driving"]
    with pytest.raises(ValueError):
        acceptance(c, np.full(3, 0.5))
    with pytest.raises(ValueError):
        acceptance(c, np.full((2, 4, 3), 0.5))


@pytest.mark.parametrize("ps", [[[]], [[], []], np.zeros((0, 2))])
def test_only_an_empty_list_is_the_zero_step_sequence(automata, ps):
    c = automata["driving"]
    with pytest.raises(ValueError, match=r"must be a \(steps, 3\) array"):
        acceptance(c, ps)
    with pytest.raises(ValueError, match=r"must be a \(steps, 3\) array"):
        forward(c, ps)
    assert forward(c, np.zeros((0, 3))) == []


def test_shared_guards_are_merged(automata):
    c = automata["shared-roots"]
    plan = c._plan.circuit
    roots = dict(zip(c.guards, plan.roots))
    assert roots[(1, 0)] == roots[(2, 0)]
    assert roots[(3, 3)] == 1  # the constant-1 node
    # the bare leaf `c` is the hi branch of `a & c`
    node = roots[(0, 1)]
    level = next(lev for lev in plan.levels if lev.start <= node < lev.stop)
    assert level.hi[node - level.start] == roots[(1, 0)]


@pytest.mark.parametrize("name", NAMES)
def test_repeated_calls_are_bitwise_identical(automata, name):
    c = automata[name]
    rng = np.random.default_rng(8)
    ps = rng.uniform(size=(37, 11, len(c.vocab)))
    alpha_grads = rng.normal(size=(37, 11, c.num_states))
    alphas = forward_alphas(c, ps)
    assert np.array_equal(forward_alphas(c, ps), alphas)
    assert np.array_equal(acceptance_batch(c, ps), acceptance_batch(c, ps))
    grad = backward_gradient(c, ps, alpha_grads)
    assert np.array_equal(backward_gradient(c, ps, alpha_grads, alphas), grad)


@pytest.mark.parametrize("pattern", ["driving", "random:64x12:0"])
def test_gradients_of_the_last_steps_are_the_zero_padded_call(automata, pattern):
    # random:64x12:0 has 156 transitions, so it takes the gather steps
    c = automata[pattern]
    rng = np.random.default_rng(12)
    # 40 sequences of 60 steps: blocks of 25 steps, so S = 30 starts inside one
    ps = rng.uniform(size=(40, 60, len(c.vocab)))
    alphas = forward_alphas(c, ps)
    steps = ps.shape[1]
    for last in (1, steps // 2, steps):
        grads = rng.normal(size=(40, last, c.num_states))
        padded = np.zeros(alphas.shape)
        padded[:, steps - last :] = grads
        want = backward_gradient(c, ps, padded, alphas)
        assert np.array_equal(backward_gradient(c, ps, grads, alphas), want)
        assert np.array_equal(backward_gradient(c, ps, grads), want)
    with pytest.raises(ValueError, match="alpha_grads shape"):
        backward_gradient(c, ps, np.zeros((40, steps + 1, c.num_states)))


@pytest.mark.parametrize("name", ["driving", "random:16x6:0"])
def test_gradients_of_the_last_steps_match_the_reference(automata, name):
    # driving runs the flow steps, random:16x6:0 the gather steps. 20
    # sequences of 60 steps make blocks of 51 and 9 steps: S = 5 starts
    # inside the last block, S = 9 on its first step, S = 30 in the block
    # before it
    c = automata[name]
    rng = np.random.default_rng(13)
    ps = rng.uniform(size=(20, 60, len(c.vocab)))
    for last in (5, 9, 30):
        grads = rng.normal(size=(20, last, c.num_states))
        padded = np.zeros((20, 60, c.num_states))
        padded[:, 60 - last :] = grads
        assert_close(backward_gradient(c, ps, grads), reference_gradient(c, ps, padded))


# accepting state q2 has no incoming transition; completion adds q0's
# self-loop !a
UNREACHABLE_ACCEPTING_SFA = """\
vars: a, b
states: q0, q1, q2
initial: q0
accepting: q2
q0 -> q1 : a
q1 -> q1 : a | !a
q2 -> q2 : a | !a
"""

# name -> (reachable states, transitions the run plan keeps out of all)
TRIMMED = {
    "random:8x10:2": (4, 8, 19),
    "random:8x6:4": (1, 1, 19),
    "random:64x12:0": (53, 125, 156),
    # 37 transitions run in the gather form, the 27 kept in the flow form
    "random:16x6:0": (12, 27, 37),
    "unreachable-accepting": (2, 3, 4),
}


@pytest.mark.parametrize("name", TRIMMED)
def test_the_trimmed_runs_match_the_runs_of_every_transition(automata, name):
    if name in automata:
        c = automata[name]
    elif name == "random:8x6:4":
        c = random_pattern(8, 6, 4).compiled
    else:
        c = validate_and_compile(automaton.parse_sfa(UNREACHABLE_ACCEPTING_SFA))
    reachable = reachable_states(c)
    kept = [pair for pair, root in c.roots.items() if root != 0 and pair[0] in reachable]
    plan = c._plan
    assert list(zip(plan.src.tolist(), plan.dst.tolist())) == kept
    assert (len(reachable), len(kept), len(c.roots)) == TRIMMED[name]
    # the same automaton, run on the plan of every declared transition
    every = dataclasses.replace(c)
    vars(every)["_plan"] = automaton._Plan(c, trim=False)
    flow = len(kept) <= automaton.FLOW_MAX_TRANSITIONS
    assert (plan.next is not None) == flow
    rng = np.random.default_rng(14)
    for shape in [(64, 30), (3, 700)]:
        ps = rng.uniform(size=shape + (len(c.vocab),))
        alphas = forward_alphas(c, ps)
        assert np.array_equal(alphas, forward_alphas(every, ps))
        assert np.array_equal(acceptance_batch(c, ps), acceptance_batch(every, ps))
        for last in (shape[1], shape[1] // 3):
            grads = rng.normal(size=(shape[0], last, c.num_states))
            got = backward_gradient(c, ps, grads, alphas)
            want = backward_gradient(every, ps, grads, alphas)
            # a gather step sums over the kept transitions only: over six
            # seeds, random:64x12:0's gradient moved by at most 5.4e-16 of
            # its largest entry, and the others' not at all
            scale = max(1.0, float(np.abs(want).max()))
            assert float(np.abs(got - want).max()) <= 1e-15 * scale


# numpy's products sum a row in an order that may depend on how many rows
# the product has, once it sums more than a few terms: against their length
# groups' runs, the mixed-length runs of random:16x6:0 (27 transitions) and
# random:64x12:0 (125) moved by at most 4.4e-16 over six seeds, those of
# the automata of at most 8 transitions not at all
MIXED = {
    "driving": 0,
    "events": 0,
    "random:8x10:2": 0,
    "random:16x6:0": 1e-15,
    "random:64x12:0": 1e-15,
}


def _packed_batch(c, rng):
    """64 sequences in drawn order, drawn lengths with ties and zero-step
    ones, packed as `symfa infer` packs its records: joined record-major
    as (V, steps), then read in packed row order through the layout's
    rule. Returns the sequences, their layout and the packed rows (V, R)."""
    lengths = rng.permutation(rng.integers(0, 50, size=60).tolist() + [0, 0, 17, 17])
    seqs = [rng.uniform(size=(t, len(c.vocab))) for t in lengths]
    packed = automaton._Packed(lengths)
    joined = np.concatenate([np.empty((len(c.vocab), 0)), *(ps.T for ps in seqs)], 1)
    probs = joined.take(packed.step_major(np.cumsum(lengths) - lengths), axis=1)
    # the oracle: sequence k's step t is packed row first[t] + place[k]
    want = np.empty(probs.shape)
    for k, ps in enumerate(seqs):
        want[:, packed.row(packed.place[k], np.arange(len(ps)))] = ps.T
    assert np.array_equal(probs, want)
    return seqs, packed, probs


def _gather_form(c, monkeypatch, form, block_rows):
    """`c` as run, or recompiled to run the gather form; BLOCK_ROWS set."""
    if form == "gather":
        monkeypatch.setattr(automaton, "FLOW_MAX_TRANSITIONS", 0)
        c = validate_and_compile(c.sfa)
        assert c._plan.next is None
    monkeypatch.setattr(automaton, "BLOCK_ROWS", block_rows)
    return c


@pytest.mark.parametrize("block_rows", [BLOCK_ROWS, 16])
@pytest.mark.parametrize("form", ["as run", "gather"])
@pytest.mark.parametrize("name", MIXED)
def test_a_packed_batch_runs_like_its_length_groups(automata, monkeypatch, name, form, block_rows):
    c = _gather_form(automata[name], monkeypatch, form, block_rows)
    seqs, packed, probs = _packed_batch(c, np.random.default_rng(15))
    lengths = [len(ps) for ps in seqs]
    want = {t: forward_alphas(c, np.stack([ps for ps in seqs if len(ps) == t])) for t in lengths}
    alphas = np.empty((probs.shape[1], c.num_states))
    assert automaton._run_forward(c, *automaton._views(packed, probs), alphas) is None
    final = automaton._run_forward(c, *automaton._views(packed, probs))
    initial = _initial_alpha(c, ())
    for k, t in enumerate(lengths):
        # the sequences of one length keep their order, so k is that group's j-th
        j = sum(n == t for n in lengths[:k])
        got = alphas[packed.row(packed.place[k], np.arange(t))]
        assert float(np.abs(got - want[t][j]).max(initial=0)) <= MIXED[name]
        end = final[packed.place[k]]
        assert float(np.abs(end - (want[t][j, -1] if t else initial)).max()) <= MIXED[name]


# The reverse pass is bitwise alike across batch widths on none of these:
# Plan.backward's products sum in an order that depends on the rows of
# the block, so one sequence's gradient moves with the other sequences of
# its equal-length batch too (by up to 8.2e-17 of the largest entry on
# events, 5.5e-16 on random:16x6:0). Over 20 seeds, both forms and block
# sizes, the mixed-length runs moved against their length groups' by at
# most 1.6e-24 (driving), 3.2e-16 (events), 1.1e-16 (random:8x10:2),
# 1.1e-15 (random:16x6:0) and 9.8e-16 (random:64x12:0) of the largest
# entry.
MIXED_REVERSE = dict.fromkeys(MIXED, 1e-15) | {"random:16x6:0": 4e-15, "random:64x12:0": 4e-15}


@pytest.mark.parametrize("block_rows", [BLOCK_ROWS, 16])
@pytest.mark.parametrize("form", ["as run", "gather"])
@pytest.mark.parametrize("name", MIXED_REVERSE)
def test_a_packed_reverse_recursion_runs_like_its_length_groups(
    automata, monkeypatch, name, form, block_rows
):
    c = _gather_form(automata[name], monkeypatch, form, block_rows)
    rng = np.random.default_rng(16)
    seqs, packed, probs = _packed_batch(c, rng)
    lengths = [len(ps) for ps in seqs]
    # sequence k's rows, in step order
    rows_of = [packed.row(packed.place[k], np.arange(t)) for k, t in enumerate(lengths)]
    batch = automaton._views(packed, probs)
    alphas = np.empty((probs.shape[1], c.num_states))
    automaton._run_forward(c, *batch, alphas)
    grads = rng.normal(size=alphas.shape)
    # each sequence's last-step gradient, in file order, and in packed order
    ends = rng.normal(size=(len(lengths), c.num_states))
    every = automaton._run_backward(c, *batch, alphas, grads)
    last = automaton._run_backward(c, *batch, alphas, ends[packed.order], at_last=True)
    for t in set(lengths) - {0}:
        group = [k for k, n in enumerate(lengths) if n == t]
        ps = np.stack([seqs[k] for k in group])
        group_alphas = forward_alphas(c, ps)
        # every step's gradient, and the last step's only (S = 1)
        for got, upstream in (
            (every, np.stack([grads[rows_of[k]] for k in group])),
            (last, ends[group][:, None]),
        ):
            want = backward_gradient(c, ps, upstream, group_alphas)
            scale = max(1.0, float(np.abs(want).max()))
            for j, k in enumerate(group):
                diff = float(np.abs(got[:, rows_of[k]].T - want[j]).max())
                assert diff <= MIXED_REVERSE[name] * scale


def _layout_by_loop(lengths):
    """The packed rows of `lengths`, longest first, as (sequence, step) pairs in row order."""
    steps = max(lengths, default=0)
    return [(i, t) for t in range(steps) for i, n in enumerate(lengths) if t < n]


def _tiles(parts, start, end):
    """Whether (a, b) parts, none empty, cover start..end-1 once, in order."""
    edges = [start] + [b for _, b in parts]
    return [a for a, _ in parts] == edges[:-1] and edges[-1] == end and all(a < b for a, b in parts)


def _assert_runs(runs, widths, t0, t1):
    """`runs` tile steps t0..t1-1, one width each and a new width each,
    with r rows after step t0's first."""
    assert _tiles([(t, t + k) for t, k, _, _ in runs], t0, t1)
    assert all(set(widths[t : t + k]) == {n} for t, k, n, _ in runs)
    assert all(a[2] != b[2] for a, b in zip(runs, runs[1:]))
    assert [r for *_, r in runs] == [sum(widths[t0:t]) for t, *_ in runs]


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 40) | st.sampled_from([0, 7, 7, 20]), min_size=1, max_size=40),
    st.sampled_from([1024, 8]),
)
@example([0, 0, 0], 1024)  # no rows at all: R = 0
def test_the_packed_layout_matches_a_loop_over_the_steps(drawn, block_rows):
    with unittest.mock.patch.object(automaton, "BLOCK_ROWS", block_rows):
        packed = automaton._Packed(drawn)
    # the layout's order is the stable sort longest first: a length keeps
    # the caller's order, and place inverts it
    order = sorted(range(len(drawn)), key=lambda k: -drawn[k])
    assert packed.order.tolist() == order
    assert packed.place[packed.order].tolist() == list(range(len(drawn)))
    lengths = [drawn[k] for k in order]
    pairs = _layout_by_loop(lengths)
    row_of = {pair: row for row, pair in enumerate(pairs)}
    steps, total = max(lengths), len(pairs)
    widths = [sum(n > t for n in lengths) for t in range(steps + 1)]
    assert packed.lengths == lengths and packed.widths == widths
    assert packed.first.tolist() == [sum(widths[:t]) for t in range(steps + 1)]
    assert all(packed.row(i, t) == row for (i, t), row in row_of.items())
    with_steps = [i for i, n in enumerate(lengths) if n]
    assert packed.last[with_steps].tolist() == [row_of[i, lengths[i] - 1] for i in with_steps]
    # the blocks tile the steps and the rows once, in step order, each
    # holding at most max(BLOCK_ROWS, n_t0) rows
    blocks = packed.blocks
    assert _tiles([b[:2] for b in blocks], 0, steps) and _tiles([b[2:4] for b in blocks], 0, total)
    for t0, t1, lo, hi, runs in blocks:
        assert hi - lo == sum(widths[t0:t1]) <= max(block_rows, widths[t0])
        _assert_runs(runs, widths, t0, t1)
    _assert_runs(list(packed.runs(0, steps)), widths, 0, steps)
    # the index rule reads a record-major array in packed row order: entry
    # t of the caller's sequence k sits at starts[k] + t
    starts = np.cumsum(drawn) - drawn + 3
    want = [starts[order[i]] + t for i, t in pairs]
    assert packed.step_major(starts).tolist() == want
    # pack takes arrays in the caller's order, and its rows are those of
    # the loop, bit for bit: row first[t] + i is step t of array order[i]
    for m in (1, 3):
        arrays = [np.random.default_rng(k).normal(size=(n, m)) for k, n in enumerate(drawn)]
        rows = packed.pack(arrays)
        assert rows.shape == (total, m) and rows.dtype == np.float64
        want = np.array([arrays[order[i]][t] for i, t in pairs]).reshape(total, m)
        assert rows.tobytes() == want.tobytes()
