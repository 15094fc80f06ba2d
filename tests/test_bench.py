"""Dataset generation, the enumerative baseline, and timing."""

import collections
import hashlib
import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from symfa import (
    Interpretation,
    Sfa,
    acceptance,
    acceptance_batch,
    accepts_trace,
    validate_and_compile,
)
from symfa.bench import (
    BenchReport,
    EnumerativeEngine,
    generate_dataset,
    random_pattern,
    reference_probabilities,
    run_benchmark,
    write_dataset_jsonl,
)
from symfa.errors import UnsatisfiablePatternError, VocabularyTooLargeError

P1 = [0.8, 0.3, 0.6]
P2 = [0.7, 0.9, 0.3]


def chi_square_quantile(df: int, z: float) -> float:
    # Wilson-Hilferty approximation, accurate for the df sizes used here
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


class TestGenerateDataset:
    def test_counts_and_soundness(self, driving):
        data = generate_dataset(driving, length=10, n_pos=100, n_neg=100, seed=0)
        assert len(data.sequences) == 200
        assert sum(s.label for s in data.sequences) == 100
        vocab_size = len(driving.sfa.vocab)
        for seq in data.sequences:
            assert seq.features.shape == (10, 2 * vocab_size)
            trace = [
                Interpretation(sum(1 << i for i in range(vocab_size) if row[i]), vocab_size)
                for row in seq.clean_trace
            ]
            assert accepts_trace(driving.compiled, trace) == bool(seq.label)

    def test_unsatisfiable_class_detected(self, driving):
        sfa = driving.sfa
        rejecting = Sfa(sfa.vocab, sfa.states, sfa.initial, sfa.transitions, frozenset())
        pattern = type(driving)("no-accepting", rejecting)
        with pytest.raises(UnsatisfiablePatternError):
            generate_dataset(pattern, length=5, n_pos=1, n_neg=1, seed=0)

    def test_positive_traces_sampled_uniformly(self, driving):
        # enumerate all accepted length-3 traces, then chi-square the sample
        compiled = driving.compiled
        accepted = []

        def extend(prefix):
            if len(prefix) == 3:
                trace = [Interpretation(m, 3) for m in prefix]
                if accepts_trace(compiled, trace):
                    accepted.append(tuple(prefix))
                return
            for mask in range(8):
                extend(prefix + [mask])

        extend([])
        assert len(accepted) == 200  # 512 traces, 200 end in q0 or q1

        per_trace = 30
        data = generate_dataset(
            driving, length=3, n_pos=per_trace * len(accepted), n_neg=0, seed=5
        )
        seen = collections.Counter()
        for seq in data.sequences:
            masks = tuple(
                sum(1 << i for i in range(3) if row[i]) for row in seq.clean_trace
            )
            seen[masks] += 1
        assert set(seen) <= set(accepted)
        stat = sum(
            (seen[trace] - per_trace) ** 2 / per_trace for trace in accepted
        )
        # 0.999 quantile of chi-square with 199 degrees of freedom
        assert stat < chi_square_quantile(len(accepted) - 1, 3.090232)

    def test_noise_free_features_are_prototypes(self, driving):
        data = generate_dataset(driving, length=4, n_pos=3, n_neg=3, noise=0.0, seed=1)
        for seq in data.sequences:
            assert set(np.unique(seq.features)) <= {-1.0, 1.0}
            probs = reference_probabilities(seq.features)
            assert np.all((probs > 0.9) == seq.clean_trace)

    def test_generated_files_are_byte_identical_to_a_golden_digest(self, driving, events):
        # pins the sampler, the renderer and the file format together: any
        # change to the random streams or their order changes the digest
        digest = hashlib.sha256()
        for pattern in (driving, events, random_pattern(8, 10, 2), random_pattern(5, 6, 1)):
            for length in (3, 10, 30):
                out = io.StringIO()
                write_dataset_jsonl(generate_dataset(pattern, length, 20, 20, seed=3), out)
                digest.update(out.getvalue().encode())
        assert digest.hexdigest() == (
            "009656a732c68e51595220a65fdeb6afc72486fd4cd80d7bb9c94c63096a6834"
        )

    def test_generation_is_seeded(self, driving):
        a = generate_dataset(driving, length=6, n_pos=5, n_neg=5, seed=9)
        b = generate_dataset(driving, length=6, n_pos=5, n_neg=5, seed=9)
        for sa, sb in zip(a.sequences, b.sequences):
            assert np.array_equal(sa.features, sb.features)
            assert sa.label == sb.label


class TestEnumerativeEngine:
    def test_worked_example(self, driving):
        value = EnumerativeEngine(driving.sfa).acceptance([P1, P2])
        assert abs(value - 0.742) <= 1e-3

    def test_agrees_with_compiled_engine(self):
        rng = random.Random(99)
        nprng = np.random.default_rng(99)
        for k in range(30):
            pattern = random_pattern(rng.randint(2, 6), rng.randint(1, 8), seed=500 + k)
            engine = EnumerativeEngine(pattern.sfa)
            steps = rng.randint(0, 10)
            ps = nprng.uniform(size=(steps, len(pattern.sfa.vocab)))
            fast = acceptance(pattern.compiled, ps)
            slow = engine.acceptance(ps)
            assert abs(fast - slow) <= 1e-9

    @settings(max_examples=300)
    @given(
        num_states=st.integers(2, 5),
        num_symbols=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 4),
        steps=st.integers(0, 12),
        data=st.data(),
    )
    def test_batches_agree_with_the_compiled_engine(
        self, num_states, num_symbols, seed, batch, steps, data
    ):
        pattern = random_pattern(num_states, num_symbols, seed)
        shape = (batch, steps, num_symbols)
        ps = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
        engine = EnumerativeEngine(pattern.sfa)
        want = [engine.acceptance(seq) for seq in ps]
        assert np.abs(acceptance_batch(pattern.compiled, ps) - want).max() <= 1e-9

    def test_degenerate_input_is_the_boolean_run(self, driving):
        rng = random.Random(13)
        for _ in range(20):
            masks = [rng.randrange(8) for _ in range(6)]
            ps = [[float(m >> i & 1) for i in range(3)] for m in masks]
            trace = [Interpretation(m, 3) for m in masks]
            value = EnumerativeEngine(driving.sfa).acceptance(ps)
            assert value == float(accepts_trace(driving.compiled, trace))

    def test_empty_sequence_is_the_initial_state(self, driving, events):
        # the automata of the gate's engine-equivalence criterion, and two more
        rng = random.Random(77)
        patterns = [driving, events]
        for k in range(100):
            num_vars, num_states = rng.randint(1, 8), rng.randint(2, 6)
            patterns.append(random_pattern(num_states, num_vars, seed=4000 + k))
            rng.randint(0, 10)  # the gate's sequence length, drawn to keep the draws in step
        for pattern in patterns:
            engine = EnumerativeEngine(pattern.sfa)
            want = acceptance(pattern.compiled, [])
            assert want in (0.0, 1.0)
            assert engine.acceptance([]) == want
            assert engine.acceptance(np.zeros((0, len(pattern.sfa.vocab)))) == want

    @pytest.mark.parametrize("ps", [[[0.5] * 4], [0.5, 0.5, 0.5], [[P1]], [[]], [[], []]])
    def test_takes_one_sequence_of_the_vocabulary_width(self, driving, ps):
        with pytest.raises(ValueError, match=r"probabilities must be a \(steps, 3\) array"):
            EnumerativeEngine(driving.sfa).acceptance(ps)

    def test_vocabulary_cap(self):
        pattern = random_pattern(2, 13, seed=0)
        with pytest.raises(VocabularyTooLargeError):
            EnumerativeEngine(pattern.sfa)


class TestRandomPatterns:
    def test_generated_patterns_validate_without_completion(self):
        for k in range(10):
            pattern = random_pattern(k % 4 + 2, k % 3 + 2, seed=k)
            validate_and_compile(pattern.sfa, complete=False)  # raises if invalid

    def test_deterministic_in_seed(self):
        a = random_pattern(4, 3, seed=7)
        b = random_pattern(4, 3, seed=7)
        assert a.sfa == b.sfa


class TestRunBenchmark:
    def test_report_rows_and_csv(self, driving):
        report = run_benchmark([driving], [5], batch_size=4, repetitions=2, seed=3)
        assert len(report.rows) == 2
        engines = {row.engine for row in report.rows}
        assert engines == {"compiled", "enumerative"}
        for row in report.rows:
            assert row.batch_ms_median >= 0
            assert 0 <= row.accuracy <= 1
            assert row.states == 3 and row.symbols == 3 and row.length == 5
        csv = report.to_csv()
        assert csv.splitlines()[0] == BenchReport.CSV_HEADER
        assert len(csv.splitlines()) == 3

    def test_identical_sequences_identical_outputs(self, driving):
        data = generate_dataset(driving, length=4, n_pos=1, n_neg=0, seed=0)
        ps = reference_probabilities(data.sequences[0].features)
        batch = np.stack([ps, ps, ps])
        from symfa import acceptance_batch

        values = acceptance_batch(driving.compiled, batch)
        assert values[0] == values[1] == values[2]

    def test_unknown_engine_rejected(self, driving):
        with pytest.raises(ValueError):
            run_benchmark([driving], [3], engines=["compiled", "exact"], repetitions=1)
