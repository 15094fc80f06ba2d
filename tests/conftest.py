"""Shared fixtures and independent oracles used across the test suite."""

import random
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from symfa import Interpretation, Vocabulary, evaluate
from symfa.bench import driving_pattern, events_pattern
from symfa.logic import Var, enumerate_models, f_and, f_not, f_or

# every property test replays the same examples and has no time limit, so a
# slow or busy host cannot fail one; each test bounds its own max_examples
settings.register_profile("symfa", derandomize=True, deadline=None)
settings.load_profile("symfa")


@pytest.fixture(scope="session")
def driving():
    return driving_pattern()


@pytest.fixture(scope="session")
def events():
    return events_pattern()


@pytest.fixture(scope="session")
def tbf_vocab():
    return Vocabulary.of("tired", "blocked", "fast")


def true_of(vocab: Vocabulary, names) -> Interpretation:
    """The interpretation under which exactly `names` are true."""
    return Interpretation(sum(1 << vocab.index(name) for name in names), len(vocab))


@contextmanager
def deadline(seconds: float):
    """Fail with TimeoutError if the block runs longer than `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_formula(rng: random.Random, num_vars: int, depth: int = 3):
    """Random AST built from the smart constructors (never degenerate)."""
    if depth == 0 or rng.random() < 0.3:
        v = Var(rng.randrange(num_vars))
        return f_not(v) if rng.random() < 0.5 else v
    kind = rng.random()
    a = random_formula(rng, num_vars, depth - 1)
    b = random_formula(rng, num_vars, depth - 1)
    if kind < 0.45:
        return f_and(a, b)
    if kind < 0.9:
        return f_or(a, b)
    return f_not(a)


def wmc_by_enumeration(f, num_vars: int, p) -> float:
    """Sum over models of the product of per-variable probabilities."""
    p = list(p)
    total = 0.0
    for omega in enumerate_models(f, num_vars):
        prob = 1.0
        for i in range(num_vars):
            prob *= p[i] if omega.truth(i) else 1.0 - p[i]
        total += prob
    return total


def alpha_by_trace_enumeration(compiled, ps) -> np.ndarray:
    """Per-state mass after the last step, by exhaustive trace enumeration.

    Walks every (2^V)^T boolean trace, runs the automaton on it, and adds
    the trace's probability to its end state. Deliberately ignorant of
    circuits and matrices.
    """
    n = len(compiled.vocab)
    nq = compiled.num_states
    steps = len(ps)
    successor = [[None] * (1 << n) for _ in range(nq)]
    for q in range(nq):
        for mask in range(1 << n):
            omega = Interpretation(mask, n)
            for (src, dst), f in compiled.sfa.transitions.items():
                if src == q and evaluate(f, omega):
                    successor[q][mask] = dst
                    break
    model_prob = []
    for row in ps:
        probs = []
        for mask in range(1 << n):
            prob = 1.0
            for i in range(n):
                prob *= row[i] if mask >> i & 1 else 1.0 - row[i]
            probs.append(prob)
        model_prob.append(probs)
    result = np.zeros(nq)

    def walk(t, q, prob):
        if t == steps:
            result[q] += prob
            return
        mp = model_prob[t]
        succ = successor[q]
        for mask in range(1 << n):
            walk(t + 1, succ[mask], prob * mp[mask])

    walk(0, compiled.sfa.initial, 1.0)
    return result


def assert_close_rel(actual, expected, rel=1e-5, floor=1e-8, context=""):
    """|actual - expected| within `rel` relative error or the absolute floor."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    diff = np.abs(actual - expected)
    scale = np.maximum(np.abs(actual), np.abs(expected))
    ok = (diff <= rel * scale) | (diff <= floor)
    assert np.all(ok), (
        f"{context}: max abs diff {diff.max():.3e} vs scale {scale.max():.3e}\n"
        f"actual={actual}\nexpected={expected}"
    )


# bytes a mutation writes: JSON's syntax and digits, and bytes that are
# not UTF-8
MUTATION_BYTES = b'0123456789.-+eE[]{},:" \n\tnulltrue\xff\xc3'
# up to four edits of a file's bytes, each (position, op, byte): "r"
# replaces the byte at the position, "d" deletes it, "i" inserts one there
BYTE_EDITS = st.lists(
    st.tuples(st.integers(0, 2**16), st.sampled_from("rdi"), st.sampled_from(MUTATION_BYTES)),
    min_size=1,
    max_size=4,
)


def mutate(blob: bytes, edits) -> bytes:
    """`blob` with BYTE_EDITS applied, positions taken modulo its length."""
    out = bytearray(blob)
    for pos, op, byte in edits:
        pos %= len(out) + 1
        if op == "r" and pos < len(out):
            out[pos] = byte
        elif op == "d" and pos < len(out):
            del out[pos]
        else:
            out.insert(pos, byte)
    return bytes(out)
