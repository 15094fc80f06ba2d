"""Automaton validation, transition matrices, forward runs, gradients, files."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfa import (
    CompiledSfa,
    Interpretation,
    Sfa,
    Vocabulary,
    acceptance,
    acceptance_batch,
    accepts_trace,
    complete_self_loops,
    format_sfa,
    forward,
    parse_formula,
    parse_sfa,
    transition_matrix,
    validate_and_compile,
)
from symfa.automaton import backward_gradient, boolean_run, forward_alphas
from symfa.bench import random_pattern
from symfa.circuit import DiagramTable
from symfa.errors import (
    ConsistencyError,
    IncompleteError,
    InputError,
    NonDeterministicError,
    SfaFileError,
)
from symfa.logic import Var, enumerate_models, evaluate, f_and, f_not, f_or

from conftest import alpha_by_trace_enumeration, assert_close_rel, random_formula, true_of

P1 = [0.8, 0.3, 0.6]
P2 = [0.7, 0.9, 0.3]

T1_EXPECTED = np.array([[0.14, 0.86, 0.0], [0.056, 0.344, 0.6], [0.0, 0.0, 1.0]])
T2_EXPECTED = np.array([[0.03, 0.97, 0.0], [0.021, 0.679, 0.3], [0.0, 0.0, 1.0]])


def single_state_sfa(accepting: bool) -> Sfa:
    vocab = Vocabulary.of("a")
    guard = parse_formula("true", vocab)
    return Sfa(vocab, ("q0",), 0, {(0, 0): guard}, frozenset([0] if accepting else []))


class TestValidation:
    def test_driving_pattern_validates_without_completion(self, driving):
        compiled = validate_and_compile(driving.sfa, complete=False)
        assert compiled.completed_states == ()

    def test_single_state_true_loop(self):
        compiled = validate_and_compile(single_state_sfa(accepting=True))
        rng = np.random.default_rng(0)
        for steps in (0, 1, 4):
            assert acceptance(compiled, rng.uniform(size=(steps, 1))) == pytest.approx(1.0)
        rejecting = validate_and_compile(single_state_sfa(accepting=False))
        assert acceptance(rejecting, rng.uniform(size=(3, 1))) == pytest.approx(0.0)

    def test_overlapping_guards_rejected_with_witness(self):
        vocab = Vocabulary.of("a", "b")
        sfa = Sfa(
            vocab,
            ("q0", "q1", "q2"),
            0,
            {
                (0, 1): parse_formula("a", vocab),
                (0, 2): parse_formula("a | b", vocab),
            },
            frozenset({1}),
        )
        with pytest.raises(NonDeterministicError) as err:
            validate_and_compile(sfa)
        assert err.value.state == "q0"
        assert err.value.witness == "{a}"

    def test_uncovered_state_without_completion(self):
        vocab = Vocabulary.of("a", "b")
        sfa = Sfa(
            vocab,
            ("q0", "q1"),
            0,
            {(0, 1): parse_formula("a & b", vocab)},
            frozenset({1}),
        )
        with pytest.raises(IncompleteError) as err:
            validate_and_compile(sfa, complete=False)
        assert err.value.state == "q0"
        gap = Interpretation(0, len(vocab))
        assert err.value.witness == gap.describe(vocab)

    def test_completion_synthesizes_self_loops(self, events):
        compiled = events.compiled
        assert set(compiled.completed_states) == {"no_event", "moving", "meeting"}
        # the synthesized loop routes exactly the uncovered interpretations
        completed, _ = complete_self_loops(events.sfa)
        for q in range(len(completed.states)):
            others = [
                f for (src, dst), f in completed.transitions.items()
                if src == q and dst != q
            ]
            loop = completed.transitions[(q, q)]
            n = len(completed.vocab)
            for mask in range(1 << n):
                omega = Interpretation(mask, n)
                fired = [f for f in others if evaluate(f, omega)]
                assert evaluate(loop, omega) == (not fired)

    def test_completion_preserves_declared_self_loop(self):
        vocab = Vocabulary.of("a")
        sfa = Sfa(
            vocab,
            ("q0", "q1"),
            0,
            {(0, 0): parse_formula("a", vocab)},
            frozenset({0}),
        )
        compiled = validate_and_compile(sfa)
        loop = compiled.sfa.transitions[(0, 0)]
        for mask in (0, 1):
            assert evaluate(loop, Interpretation(mask, 1))

    def test_verdicts_and_witnesses_match_the_enumeration_oracle(self):
        rng = random.Random(83)
        verdicts = set()
        for _ in range(200):
            sfa = perturbed_pattern(rng)
            for complete in (True, False):
                expected = oracle_verdict(sfa, complete)
                verdicts.add(expected[0])
                try:
                    validate_and_compile(sfa, complete=complete)
                    got = ("ok",)
                except NonDeterministicError as err:
                    got = ("overlap", err.state, err.targets)
                    guards = [
                        sfa.transitions[(sfa.states.index(err.state), sfa.states.index(t))]
                        for t in err.targets
                    ]
                    witness = witness_of(sfa, err.witness)
                    assert all(evaluate(f, witness) for f in guards)
                except IncompleteError as err:
                    got = ("gap", err.state)
                    q = sfa.states.index(err.state)
                    witness = witness_of(sfa, err.witness)
                    assert not any(
                        evaluate(f, witness)
                        for (src, _), f in sfa.transitions.items()
                        if src == q
                    )
                assert got == expected
        assert verdicts == {"ok", "overlap", "gap"}

    def test_structurally_broken_sfa_rejected(self):
        vocab = Vocabulary.of("a")
        with pytest.raises(ValueError):
            Sfa(vocab, ("q0",), 3, {}, frozenset())
        with pytest.raises(ValueError):
            Sfa(vocab, ("q0",), 0, {(0, 4): parse_formula("a", vocab)}, frozenset())


def perturbed_pattern(rng):
    """A random decision-list pattern with guards widened (overlaps),
    narrowed (gaps) or dropped."""
    num_vars = rng.randint(2, 5)
    sfa = random_pattern(rng.randint(2, 5), num_vars, rng.randrange(10**6)).sfa
    transitions = dict(sfa.transitions)
    for _ in range(rng.randint(0, 2)):
        pair = rng.choice(sorted(transitions))
        literal = Var(rng.randrange(num_vars))
        if rng.random() < 0.5:
            literal = f_not(literal)
        kind = rng.random()
        if kind < 0.4:
            transitions[pair] = f_or(transitions[pair], literal)
        elif kind < 0.8:
            transitions[pair] = f_and(transitions[pair], literal)
        elif len(transitions) > 1:
            del transitions[pair]
    return Sfa(sfa.vocab, sfa.states, sfa.initial, transitions, sfa.accepting)


def oracle_verdict(sfa, complete):
    """The first failure validation must report, found by enumerating models."""
    n = len(sfa.vocab)
    everything = set(range(1 << n))
    models = {
        pair: {w.mask for w in enumerate_models(f, n)}
        for pair, f in sfa.transitions.items()
    }
    if complete:
        for q in range(sfa.num_states):
            covered = set().union(*(m for (src, _), m in models.items() if src == q))
            if covered != everything:
                models[(q, q)] = models.get((q, q), set()) | (everything - covered)
    for q in range(sfa.num_states):
        out = sorted((dst, m) for (src, dst), m in models.items() if src == q)
        for a in range(len(out)):
            for b in range(a + 1, len(out)):
                if out[a][1] & out[b][1]:
                    targets = (sfa.states[out[a][0]], sfa.states[out[b][0]])
                    return ("overlap", sfa.states[q], targets)
        if set().union(*(m for _, m in out)) != everything:
            return ("gap", sfa.states[q])
    return ("ok",)


def witness_of(sfa, described):
    names = [name for name in described.strip("{}").split(", ") if name]
    return true_of(sfa.vocab, names)


class TestTransitionMatrix:
    def test_first_observation_matrix(self, driving):
        T = transition_matrix(driving.compiled, P1)
        assert np.abs(T - T1_EXPECTED).max() <= 1e-12

    def test_second_observation_matrix(self, driving):
        T = transition_matrix(driving.compiled, P2)
        assert np.abs(T - T2_EXPECTED).max() <= 1e-12

    def test_rows_sum_to_one_on_random_input(self, driving, events):
        rng = np.random.default_rng(8)
        for pattern in (driving, events):
            for _ in range(25):
                p = rng.uniform(size=len(pattern.sfa.vocab))
                T = transition_matrix(pattern.compiled, p)
                assert np.abs(T.sum(axis=1) - 1.0).max() <= 1e-9

    def test_row_sum_violation_raises(self, tbf_vocab):
        # bypass validation: the only declared transition covers half the mass
        guard = parse_formula("tired", tbf_vocab)
        sfa = Sfa(tbf_vocab, ("q0",), 0, {(0, 0): guard}, frozenset({0}))
        table = DiagramTable(3)
        broken = CompiledSfa(sfa, table, {(0, 0): table.build(guard)}, ())
        with pytest.raises(ConsistencyError):
            transition_matrix(broken, [0.5, 0.5, 0.5])


class TestForward:
    def test_worked_two_step_distribution(self, driving):
        alphas = forward(driving.compiled, [P1, P2])
        assert len(alphas) == 2
        assert np.abs(alphas[-1] - np.array([0.02226, 0.71974, 0.258])).max() <= 1e-4
        assert alphas[-1].sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_sequence(self, driving):
        assert forward(driving.compiled, []) == []
        assert acceptance(driving.compiled, []) == 1.0  # q0 is accepting

    def test_distributions_stay_normalized(self, driving):
        rng = np.random.default_rng(3)
        ps = rng.uniform(size=(30, 3))
        for alpha in forward(driving.compiled, ps):
            assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(alpha >= 0)

    def test_acceptance_worked_example(self, driving):
        assert abs(acceptance(driving.compiled, [P1, P2]) - 0.742) <= 1e-3

    def test_all_states_accepting_gives_one(self, driving):
        sfa = driving.sfa
        everything = Sfa(sfa.vocab, sfa.states, sfa.initial, sfa.transitions, frozenset(range(3)))
        compiled = validate_and_compile(everything)
        rng = np.random.default_rng(0)
        assert acceptance(compiled, rng.uniform(size=(6, 3))) == pytest.approx(1.0)

    def test_no_accepting_states_gives_zero(self, driving):
        sfa = driving.sfa
        nothing = Sfa(sfa.vocab, sfa.states, sfa.initial, sfa.transitions, frozenset())
        compiled = validate_and_compile(nothing)
        rng = np.random.default_rng(0)
        assert acceptance(compiled, rng.uniform(size=(6, 3))) == pytest.approx(0.0)

    def test_matches_trace_enumeration_on_random_automata(self):
        rng = random.Random(123)
        nprng = np.random.default_rng(123)
        for k in range(25):
            num_states = rng.randint(2, 5)
            num_vars = rng.randint(1, 4)
            pattern = random_pattern(num_states, num_vars, seed=k)
            steps = rng.randint(0, 4 if num_vars >= 3 else 5)
            ps = nprng.uniform(size=(steps, num_vars))
            expected = alpha_by_trace_enumeration(pattern.compiled, ps.tolist())
            alphas = forward(pattern.compiled, ps)
            got = alphas[-1] if alphas else np.eye(num_states)[pattern.sfa.initial]
            assert np.abs(got - expected).max() <= 1e-9

    def test_degenerate_probabilities_run_the_boolean_automaton(self, driving):
        rng = random.Random(9)
        compiled = driving.compiled
        for _ in range(50):
            steps = rng.randint(1, 8)
            masks = [rng.randrange(8) for _ in range(steps)]
            trace = [Interpretation(m, 3) for m in masks]
            ps = [[float(m >> i & 1) for i in range(3)] for m in masks]
            value = acceptance(compiled, ps)
            assert value in (0.0, 1.0)
            assert bool(value) == accepts_trace(compiled, trace)

    def test_boolean_run_follows_guards(self, driving):
        compiled = driving.compiled
        vocab = compiled.vocab
        trace = [
            true_of(vocab, ["tired"]),
            true_of(vocab, ["tired", "fast"]),
        ]
        assert boolean_run(compiled, trace) == [1, 2]
        assert not accepts_trace(compiled, trace)

    def test_batch_matches_per_sequence(self, driving):
        rng = np.random.default_rng(77)
        ps = rng.uniform(size=(5, 9, 3))
        batch = acceptance_batch(driving.compiled, ps)
        singles = [acceptance(driving.compiled, ps[i]) for i in range(5)]
        assert np.allclose(batch, singles, atol=0)

    def test_vocabulary_mismatch(self, driving):
        with pytest.raises(ValueError):
            forward(driving.compiled, np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_rejected(self, driving, bad):
        ps = np.array([[0.8, 0.3, 0.6], [bad, 0.2, 0.3]])
        with pytest.raises(InputError, match="finite"):
            acceptance(driving.compiled, ps)
        with pytest.raises(InputError, match="finite"):
            acceptance_batch(driving.compiled, ps[None])

    def test_out_of_range_probabilities_rejected(self, driving):
        ps = [[1.5, -0.3, 2.0], [0.2, 0.3, 0.4]]
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            acceptance(driving.compiled, ps)
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            forward_alphas(driving.compiled, np.array(ps)[None])

    @pytest.mark.parametrize("bad", [-2e-6, 1.0 + 2e-6])
    def test_just_outside_the_tolerance_rejected(self, driving, bad):
        with pytest.raises(InputError):
            acceptance(driving.compiled, [[0.8, bad, 0.6]])

    def test_finite_difference_steps_at_the_bounds_accepted(self, driving):
        h = 1e-6
        for ps in ([[0.0 - h, 0.3, 1.0 + h]], [[1.0 + h, 0.0 - h, 0.5]]):
            assert 0.0 <= acceptance(driving.compiled, ps) <= 1.0 + 1e-5


class TestBackwardGradient:
    def _fd_acceptance(self, compiled, ps, h=1e-6):
        ps = np.asarray(ps, dtype=float)
        grads = np.zeros_like(ps)
        for t in range(ps.shape[0]):
            for i in range(ps.shape[1]):
                up, down = ps.copy(), ps.copy()
                up[t, i] += h
                down[t, i] -= h
                grads[t, i] = (
                    acceptance(compiled, up) - acceptance(compiled, down)
                ) / (2 * h)
        return grads

    def _acceptance_upstream(self, compiled, steps):
        """dAcceptance/dalpha_t as a (T, Q) array: the accepting mask on the last step."""
        upstream = np.zeros((steps, compiled.num_states))
        for q in compiled.accepting:
            upstream[-1, q] = 1.0
        return upstream

    def test_acceptance_gradient_matches_finite_differences(self, driving):
        compiled = driving.compiled
        ps = np.array([P1, P2])
        grads = backward_gradient(compiled, ps, self._acceptance_upstream(compiled, 2))
        fd = self._fd_acceptance(compiled, ps)
        assert_close_rel(grads, fd, context="acceptance gradient")

    def test_zero_upstream_gradient_is_zero(self, driving):
        ps = np.array([P1, P2])
        grads = backward_gradient(driving.compiled, ps, np.zeros((2, 3)))
        assert np.all(grads == 0)

    def test_single_step_reduces_to_circuit_gradient(self, driving):
        from symfa import wmc

        sfa = driving.sfa
        only_q1 = Sfa(sfa.vocab, sfa.states, sfa.initial, sfa.transitions, frozenset({1}))
        compiled = validate_and_compile(only_q1)
        p = np.array([0.4, 0.55, 0.25])
        (grad,) = backward_gradient(compiled, p[None, :], self._acceptance_upstream(compiled, 1))
        guard_grad = wmc(compiled.guards[(0, 1)], p, want_gradient=True).gradient
        assert np.allclose(grad, guard_grad, atol=1e-12)

    def test_random_automata_against_finite_differences(self):
        rng = np.random.default_rng(55)
        for k in range(8):
            pattern = random_pattern(int(rng.integers(2, 5)), int(rng.integers(2, 4)), seed=100 + k)
            compiled = pattern.compiled
            steps = int(rng.integers(1, 5))
            ps = rng.uniform(0.1, 0.9, size=(steps, len(pattern.sfa.vocab)))
            grads = backward_gradient(compiled, ps, self._acceptance_upstream(compiled, steps))
            fd = self._fd_acceptance(compiled, ps)
            assert_close_rel(grads, fd, context=f"pattern {pattern.name}")

    def test_upstream_on_intermediate_steps(self, driving):
        # loss reads alpha_1 as well as alpha_2
        compiled = driving.compiled
        ps = np.array([P1, P2])
        weight = np.array([0.3, -0.2, 0.5])

        def value(x):
            alphas = forward(compiled, x)
            return float(alphas[0] @ weight + alphas[1] @ weight)

        grads = backward_gradient(compiled, ps, np.stack([weight, weight]))
        h = 1e-6
        for t in range(2):
            for i in range(3):
                up, down = ps.copy(), ps.copy()
                up[t, i] += h
                down[t, i] -= h
                fd = (value(up) - value(down)) / (2 * h)
                assert_close_rel(grads[t][i], fd, context=f"step {t} var {i}")


class TestSfaFiles:
    def test_parse_bundled_driving(self, driving):
        sfa = driving.sfa
        assert sfa.states == ("q0", "q1", "q2")
        assert sfa.vocab.names == ("tired", "blocked", "fast")
        assert sfa.initial == 0
        assert sfa.accepting == frozenset({0, 1})
        assert len(sfa.transitions) == 6

    def test_round_trip(self, driving, events):
        for pattern in (driving, events):
            text = format_sfa(pattern.sfa)
            again = parse_sfa(text)
            assert again == pattern.sfa

    @settings(max_examples=400)
    @given(
        num_states=st.integers(1, 5),
        num_symbols=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_of_random_specs(self, num_states, num_symbols, seed):
        rng = random.Random(seed)
        vocab = Vocabulary(tuple(f"v{i}" for i in range(num_symbols)))
        states = tuple(f"q{i}" for i in range(num_states))
        pairs = {(rng.randrange(num_states), rng.randrange(num_states)) for _ in range(8)}
        transitions = {pair: random_formula(rng, num_symbols) for pair in pairs}
        accepting = frozenset(q for q in range(num_states) if rng.random() < 0.5)
        specs = [Sfa(vocab, states, rng.randrange(num_states), transitions, accepting)]
        if num_states > 1:
            specs.append(random_pattern(num_states, num_symbols, seed).sfa)
        for sfa in specs:
            assert parse_sfa(format_sfa(sfa)) == sfa

    def test_comments_and_blank_lines(self):
        text = """
        # a comment
        vars: a , b # trailing comment
        states: s, t

        initial: s
        accepting: t
        s -> t : a & b
        """
        sfa = parse_sfa(text)
        assert sfa.vocab.names == ("a", "b")
        assert sfa.states == ("s", "t")

    @pytest.mark.parametrize(
        "text,fragment,line",
        [
            ("vars: a\nstates: s\ninitial: s\naccepting:\ns -> t : a", "unknown state 't'", 5),
            ("vars: a\nstates: s\ninitial: x\naccepting:", "unknown initial", 3),
            ("vars: a\nstates: s\ninitial: s\naccepting: s\ns -> s : a |", "bad guard", 5),
            ("vars: a\nvars: a\nstates: s\ninitial: s\naccepting:", "duplicate vars", 2),
            ("vars: a\nstates: s\ninitial: s\naccepting: s\nwhat is this", "unrecognized", 5),
            ("states: s\ninitial: s\naccepting: s\ns -> s : a", "before vars", 4),
            ("vars: a\nstates: s\ninitial: s\naccepting: s\ns -> s : a\ns -> s : a", "duplicate transition", 6),
            ("vars: a\nstates: s\nstates: s\ninitial: s\naccepting:", "duplicate states", 3),
            ("vars: a\nstates: s\ninitial: s\ninitial: s\naccepting:", "duplicate initial", 4),
            ("vars: a\nstates: s\ninitial: s\naccepting: s\naccepting:", "duplicate accepting", 5),
            ("vars: , \nstates: s\ninitial: s\naccepting:", "vars header needs at least one name", 1),
            ("vars: a\nstates:\ninitial: s\naccepting:", "states header needs at least one name", 2),
            ("vars: a\ninitial: s\nstates: s\naccepting:", "initial header must follow states", 2),
            ("vars: a\naccepting: s\nstates: s\ninitial: s", "accepting header must follow states", 2),
            ("vars: a\nstates: s, t\ninitial: s\naccepting: t, u", "unknown accepting state 'u'", 4),
            ("vars: a, b, a\nstates: s\ninitial: s\naccepting:", "vars header lists 'a' more than once", 1),
            ("vars: a\nstates: s, t, t\ninitial: s\naccepting:", "states header lists 't' more than once", 2),
            ("vars: true, a\nstates: s\ninitial: s\naccepting: s\ns -> s : true", "vars name 'true' cannot", 1),
            ("vars: a, false\nstates: s\ninitial: s\naccepting:", "vars name 'false' cannot", 1),
            ("vars: a b\nstates: s\ninitial: s\naccepting:", "vars name 'a b' cannot", 1),
            ("vars: 1a\nstates: s\ninitial: s\naccepting:", "vars name '1a' cannot", 1),
            ("vars: a)\nstates: s\ninitial: s\naccepting:", "vars name 'a)' cannot", 1),
            ("vars: \u00e9t\u00e9\nstates: s\ninitial: s\naccepting:", "vars name '\u00e9t\u00e9' cannot", 1),
            ("vars: a\nstates: q:0, q1\ninitial: q1\naccepting: q1\nq:0 -> q1 : a", "state name 'q:0' holds ':'", 2),
            # a header line that holds '->' is still a header
            ("vars: a\nstates: s, t->u\ninitial: s\naccepting:", "state name 't->u' holds '->'", 2),
            ("vars: a, b->c\nstates: s\ninitial: s\naccepting:", "vars name 'b->c' cannot", 1),
            ("vars: a\nstates: s, t\ninitial: s->t\naccepting:", "unknown initial state 's->t'", 3),
        ],
    )
    def test_malformed_files(self, text, fragment, line):
        with pytest.raises(SfaFileError) as err:
            parse_sfa(text)
        assert fragment in str(err.value)
        assert err.value.line == line

    def test_missing_header(self):
        with pytest.raises(SfaFileError) as err:
            parse_sfa("vars: a\nstates: s\ninitial: s")
        assert "missing accepting" in str(err.value)
