"""Extractor, losses, end-to-end gradients, and the training loop."""

import math
import re
import struct
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symfa import (
    LabeledSequence,
    LinearExtractor,
    Sfa,
    TrainConfig,
    learn,
    load_extractor,
    save_extractor,
    sequence_loss,
    tagging_loss,
    train,
    validate_and_compile,
)
from symfa import acceptance, automaton, bench
from symfa.automaton import backward_gradient, forward_alphas
from symfa.bench import generate_dataset
from symfa.errors import DivergenceError
from symfa.learn import _sigmoid

from conftest import BYTE_EDITS, assert_close_rel, mutate


def make_extractor(rng, num_symbols, feature_dim):
    return LinearExtractor.init_random(num_symbols, feature_dim, rng)


def masked_sigmoid(x):
    """The stable sigmoid written with boolean masks, as the reference."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_is_bitwise_the_masked_formula():
    tiny = np.finfo(np.float64).tiny
    special = [800.0, -800.0, 0.0, -0.0, 5e-324, -5e-324, tiny / 3, -tiny / 3, tiny, -tiny]
    special += [np.inf, -np.inf]
    rng = np.random.default_rng(3)
    x = np.concatenate([special, rng.normal(scale=5.0, size=2000), rng.uniform(-750, 750, 500)])
    for shape in (x.shape, (50, 50)):
        xs = x[: np.prod(shape)].reshape(shape)
        assert np.array_equal(_sigmoid(xs).view(np.uint64), masked_sigmoid(xs).view(np.uint64))


class TestExtractor:
    def test_zero_parameters_give_half(self):
        ext = LinearExtractor(np.zeros((3, 4)), np.zeros(3))
        probs = ext.extract(np.random.default_rng(0).normal(size=(5, 4)))
        assert np.all(probs == 0.5)

    def test_large_bias_saturates_towards_one(self):
        ext = LinearExtractor(np.zeros((2, 3)), np.array([30.0, -30.0]))
        probs = ext.extract(np.ones(3))
        assert probs[0] > 1 - 1e-12
        assert probs[1] < 1e-12

    def test_outputs_bounded(self):
        rng = np.random.default_rng(4)
        ext = make_extractor(rng, 4, 6)
        probs = ext.extract(rng.normal(size=(10, 6)))
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_dimension_mismatch(self):
        ext = LinearExtractor(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            ext.extract(np.zeros(4))

    @pytest.mark.parametrize("rows", [1, 2])
    def test_an_overflowing_logit_is_refused(self, rows):
        # the logit 2·1e308 − 2·1e308 is 0, but its terms overflow: one row
        # alone extracted p = 0 and the same row in a batch of two p = 1
        ext = LinearExtractor([[0.0, 0.0], [2.0, -2.0], [0.0, 0.0]], np.zeros(3))
        with pytest.raises(ValueError, match="^symbol logits must be finite$"):
            ext.extract(np.full((rows, 2), 1e308))


def param_fd(loss_fn, extractor, h=1e-6):
    """Central finite differences of a scalar loss over (weights, bias)."""
    dw = np.zeros_like(extractor.weights)
    db = np.zeros_like(extractor.bias)
    for idx in np.ndindex(*extractor.weights.shape):
        up = extractor.copy()
        up.weights[idx] += h
        down = extractor.copy()
        down.weights[idx] -= h
        dw[idx] = (loss_fn(up) - loss_fn(down)) / (2 * h)
    for i in range(extractor.bias.shape[0]):
        up = extractor.copy()
        up.bias[i] += h
        down = extractor.copy()
        down.bias[i] -= h
        db[i] = (loss_fn(up) - loss_fn(down)) / (2 * h)
    return dw, db


class TestSequenceLoss:
    def test_worked_example_positive_label(self, driving):
        # features engineered so the extractor reproduces the worked example
        ext = LinearExtractor(np.eye(3), np.zeros(3))
        p = np.array([[0.8, 0.3, 0.6], [0.7, 0.9, 0.3]])
        features = np.log(p / (1 - p))  # inverse sigmoid
        seq = LabeledSequence(features, label=1)
        loss, _ = sequence_loss(driving.compiled, ext, seq)
        assert abs(loss - (-math.log(0.742))) <= 2e-3

    def test_always_accepting_label_one_is_free(self, driving):
        sfa = driving.sfa
        everything = Sfa(
            sfa.vocab, sfa.states, sfa.initial, sfa.transitions, frozenset(range(3))
        )
        compiled = validate_and_compile(everything)
        rng = np.random.default_rng(5)
        ext = make_extractor(rng, 3, 4)
        seq = LabeledSequence(rng.normal(size=(6, 4)), label=1)
        loss, (dw, db) = sequence_loss(compiled, ext, seq)
        assert loss == pytest.approx(0.0, abs=1e-6)
        assert np.all(dw == 0) and np.all(db == 0)  # clamped region

    def test_loss_nonnegative(self, driving):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ext = make_extractor(rng, 3, 6)
            seq = LabeledSequence(rng.normal(size=(4, 6)), label=int(rng.integers(2)))
            loss, _ = sequence_loss(driving.compiled, ext, seq)
            assert loss >= 0

    def test_gradients_match_finite_differences(self, driving):
        rng = np.random.default_rng(21)
        for k in range(5):
            ext = LinearExtractor(rng.normal(size=(3, 4)), rng.normal(size=3))
            seq = LabeledSequence(rng.normal(size=(3, 4)), label=int(k % 2))
            loss_fn = lambda e: sequence_loss(driving.compiled, e, seq)[0]
            _, (dw, db) = sequence_loss(driving.compiled, ext, seq)
            fd_w, fd_b = param_fd(loss_fn, ext)
            assert_close_rel(dw, fd_w, context="dW")
            assert_close_rel(db, fd_b, context="db")

    def test_label_zero_reads_the_reject_mass(self, driving):
        # log P(reject) comes from the rejecting states' mass at the last
        # step, not from 1 - P(accept), which cancels when acceptance is
        # near 1
        from symfa.automaton import forward_alphas

        compiled = driving.compiled
        reject_mask = np.array([0.0, 0.0, 1.0])  # q2 is the only rejecting state
        ext = LinearExtractor(np.eye(3), np.zeros(3))
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 80:
            p = rng.uniform(0.05, 0.95, size=(5, 3))
            p[:, 2] = 10.0 ** rng.uniform(-7, -3, size=5)  # rarely fast
            features = np.log(p / (1 - p))
            reject = float(forward_alphas(compiled, ext.extract(features))[-1] @ reject_mask)
            if not 1e-7 < reject < 1e-3:
                continue
            loss, _ = sequence_loss(compiled, ext, LabeledSequence(features, label=0))
            assert abs(loss - -math.log(reject)) <= 1e-14 * -math.log(reject), (loss, reject)
            checked += 1

    @pytest.mark.parametrize("label", [True, False, 1.0, np.float64(0.0), np.True_, None, 2])
    def test_sequence_label_is_the_integer_0_or_1(self, label):
        with pytest.raises(ValueError, match="0 or 1"):
            LabeledSequence(np.zeros((2, 6)), label=label)

    def test_requires_binary_label(self, driving):
        rng = np.random.default_rng(1)
        seq = LabeledSequence(rng.normal(size=(2, 3)), step_labels=[0, 1])
        ext = make_extractor(rng, 3, 3)
        with pytest.raises(ValueError):
            sequence_loss(driving.compiled, ext, seq)

    def test_sequence_label_needs_an_observation(self, driving):
        with pytest.raises(ValueError, match="at least one observation"):
            LabeledSequence(np.zeros((0, 6)), label=1)
        # per-step labels on zero steps still work and contribute nothing
        ext = make_extractor(np.random.default_rng(0), 3, 6)
        seq = LabeledSequence(np.zeros((0, 6)), step_labels=[])
        loss, (dw, db) = tagging_loss(driving.compiled, ext, seq, {0: 0, 1: 1, 2: 2})
        assert loss == 0.0 and not dw.any() and not db.any()


class TestTaggingLoss:
    def test_deterministic_run_with_matching_labels_is_free(self, driving):
        # saturated extractor reproduces a clean boolean trace exactly
        big = 200.0
        ext = LinearExtractor(big * np.eye(3), np.full(3, -big / 2))
        features = np.array([[1, 0, 0], [1, 0, 1]], dtype=float)  # {tired}, {tired, fast}
        seq = LabeledSequence(features, step_labels=[1, 2])
        loss, _ = tagging_loss(driving.compiled, ext, seq, {0: 0, 1: 1, 2: 2})
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_single_step_worked_example(self, driving):
        ext = LinearExtractor(np.eye(3), np.zeros(3))
        p = np.array([0.8, 0.3, 0.6])
        features = np.log(p / (1 - p))[None, :]
        seq = LabeledSequence(features, step_labels=[1])
        loss, _ = tagging_loss(driving.compiled, ext, seq, {0: 0, 1: 1, 2: 2})
        assert abs(loss - (-math.log(0.86))) <= 1e-9

    def test_unlabeled_steps_are_skipped(self, driving):
        from symfa import forward

        rng = np.random.default_rng(3)
        ext = make_extractor(rng, 3, 6)
        features = rng.normal(size=(4, 6))
        seq = LabeledSequence(features, step_labels=[None, 1, None, 0])
        loss, _ = tagging_loss(driving.compiled, ext, seq, {0: 0, 1: 1, 2: 2})
        alphas = forward(driving.compiled, ext.extract(features))
        expected = -math.log(alphas[1][1]) - math.log(alphas[3][0])
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_sequence_loss_on_final_step_indicator(self, driving):
        # labeling only the last step with the accepting indicator is the
        # same objective as BCE on acceptance, computed by the same code
        rng = np.random.default_rng(9)
        accepting_label = {0: 1, 1: 1, 2: 0}  # q0, q1 accepting
        for label in (0, 1):
            ext = make_extractor(rng, 3, 5)
            features = rng.normal(size=(4, 5))
            tag_seq = LabeledSequence(features, step_labels=[None, None, None, label])
            cls_seq = LabeledSequence(features, label=label)
            tag_loss, (tw, tb) = tagging_loss(
                driving.compiled, ext, tag_seq, accepting_label
            )
            cls_loss, (cw, cb) = sequence_loss(driving.compiled, ext, cls_seq)
            assert tag_loss == cls_loss
            assert np.array_equal(tw, cw)
            assert np.array_equal(tb, cb)

    def test_gradients_match_finite_differences(self, events):
        rng = np.random.default_rng(31)
        mapping = {0: 0, 1: 1, 2: 2}
        for _ in range(3):
            ext = LinearExtractor(rng.normal(size=(7, 5)), rng.normal(size=7))
            features = rng.normal(size=(3, 5))
            labels = [int(rng.integers(3)) for _ in range(3)]
            seq = LabeledSequence(features, step_labels=labels)
            loss_fn = lambda e: tagging_loss(events.compiled, e, seq, mapping)[0]
            _, (dw, db) = tagging_loss(events.compiled, ext, seq, mapping)
            fd_w, fd_b = param_fd(loss_fn, ext)
            assert_close_rel(dw, fd_w, context="dW")
            assert_close_rel(db, fd_b, context="db")

    def test_label_matching_no_state_rejected(self, driving):
        rng = np.random.default_rng(2)
        ext = make_extractor(rng, 3, 3)
        seq = LabeledSequence(rng.normal(size=(2, 3)), step_labels=[0, 7])
        with pytest.raises(ValueError):
            tagging_loss(driving.compiled, ext, seq, {0: 0, 1: 1, 2: 2})

    def test_no_map_is_the_identity_map(self, driving):
        # as train() reads it
        rng = np.random.default_rng(2)
        ext = make_extractor(rng, 3, 3)
        seq = LabeledSequence(rng.normal(size=(4, 3)), step_labels=[0, 2, None, 1])
        loss, (dw, db) = tagging_loss(driving.compiled, ext, seq, None)
        want, (want_dw, want_db) = tagging_loss(driving.compiled, ext, seq, {0: 0, 1: 1, 2: 2})
        assert loss == want
        assert np.array_equal(dw, want_dw) and np.array_equal(db, want_db)

    @pytest.mark.parametrize("mapping", [{0: 0, 2: 2}, [0]])
    def test_a_state_with_no_label_is_named(self, driving, mapping):
        ext = make_extractor(np.random.default_rng(2), 3, 3)
        seq = LabeledSequence(np.zeros((2, 3)), step_labels=[0, 0])
        message = r"^state_to_label maps no label to state 1 \(q1\)$"
        with pytest.raises(ValueError, match=message):
            tagging_loss(driving.compiled, ext, seq, mapping)
        with pytest.raises(ValueError, match=message):
            train(driving.compiled, [seq], TrainConfig(max_epochs=1), state_to_label=mapping)

    @pytest.mark.parametrize("label", [True, False, 1.0, np.float64(0.0), np.True_])
    def test_bool_or_float_label_matches_no_state(self, driving, label):
        # == makes each of these equal to a state index
        ext = make_extractor(np.random.default_rng(2), 3, 3)
        seq = LabeledSequence(np.zeros((2, 3)), step_labels=[0, label])
        message = f"label {label!r} at step 1 matches no state"
        with pytest.raises(ValueError, match=re.escape(message)):
            tagging_loss(driving.compiled, ext, seq, {0: 0, 1: 1, 2: 2})

    def test_numpy_integer_labels_match(self, driving):
        ext = make_extractor(np.random.default_rng(2), 3, 3)
        features = np.random.default_rng(3).normal(size=(2, 3))
        losses = [
            tagging_loss(driving.compiled, ext, LabeledSequence(features, step_labels=labels),
                         {0: 0, 1: 1, 2: 2})[0]
            for labels in ([0, 1], np.array([0, 1]))
        ]
        assert losses[0] == losses[1]


def dense_step_labels(c, state_to_label, step_labels, num_steps):
    """Per-step 0/1 masks over the states matching each label, and the
    labeled steps, built densely with ==: the oracle for learn._targets.

    None rows stay 0. A bool or float label matches no state, although ==
    makes True, False and 1.0 equal to 1, 0 and 1.
    """
    active = np.array([lab is not None for lab in step_labels], dtype=bool).reshape(num_steps)
    labels = np.fromiter(step_labels, dtype=object, count=num_steps)
    sel = np.zeros((num_steps, c.num_states))
    for q in range(c.num_states):
        sel[:, q] = labels == state_to_label[q]
    sel[~active] = 0.0
    sel[[isinstance(lab, (bool, np.bool_, float, np.floating)) for lab in step_labels]] = 0.0
    missing = np.flatnonzero(active & ~sel.any(axis=1))
    if missing.size:
        t = int(missing[0])
        raise ValueError(f"label {step_labels[t]!r} at step {t} matches no state")
    return sel, active


def assert_targets_match_the_oracle(c, state_to_label, label_lists):
    """learn._targets on sequences with these step labels against the dense oracle."""
    data = [LabeledSequence(np.zeros((len(labels), 1)), step_labels=labels) for labels in label_lists]
    table, codes, offsets, missing = learn._targets(c, data, state_to_label)
    for k, labels in enumerate(label_lists):
        try:
            sel, active = dense_step_labels(c, state_to_label, labels, len(labels))
        except ValueError as exc:
            assert missing == (k, str(exc))
            return
        own = codes[offsets[k] : offsets[k] + len(labels)]
        assert np.array_equal(table[own], sel)
        assert np.array_equal(own != 0, active)
    assert missing is None


IDENTITY = {0: 0, 1: 1, 2: 2}
SHARED = {0: "idle", 1: "busy", 2: "busy"}


class TestStepLabelCodes:
    @pytest.mark.parametrize(
        "state_to_label, label_lists",
        [
            (IDENTITY, [[None, None], [0, None, 2, 1]]),
            (IDENTITY, [[np.int64(2), 1, np.int32(0)], np.array([0, 1, 2])]),
            (SHARED, [["busy", None, "idle"], ["idle", "busy"]]),
            (IDENTITY, [[0, True]]),
            (IDENTITY, [[0, np.True_]]),
            (IDENTITY, [[1.0]]),
            (IDENTITY, [[None, np.float64(0.0)]]),
            (SHARED, [["idle", 0.0]]),
            (IDENTITY, [[0, [1]]]),
            (IDENTITY, [[{"a": 1}, 0]]),
            (IDENTITY, [[0, (1, [2])]]),
            (IDENTITY, [[(0, 1), 2]]),
            (IDENTITY, [[0, 7]]),
            (SHARED, [["idle", "off"]]),
            # the first sequence with a label matching no state is reported
            (IDENTITY, [[0, 1], [2, None, 1.0, 9], [5]]),
            (IDENTITY, [[0], [None, 3], [True]]),
        ],
    )
    def test_agrees_with_the_dense_masks(self, driving, state_to_label, label_lists):
        assert_targets_match_the_oracle(driving.compiled, state_to_label, label_lists)

    def test_table_has_an_empty_row_and_one_per_label(self, driving):
        data = [LabeledSequence(np.zeros((3, 1)), step_labels=["busy", None, "idle"])]
        table, codes, offsets, missing = learn._targets(driving.compiled, data, SHARED)
        assert missing is None
        assert table.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 1]]
        assert offsets.tolist() == [0]
        assert codes.tolist() == [2, 0, 1]

    @settings(max_examples=150)
    @given(
        shared=st.booleans(),
        label_lists=st.lists(
            st.lists(
                st.one_of(
                    st.none(),
                    st.integers(-1, 3),
                    st.sampled_from(
                        ["idle", "busy", "off", True, False, 1.0, 0.0, np.True_,
                         np.float64(1.0), np.int64(2), [1], {"a": 1}, (0, 1), (1, [2])]
                    ),
                ),
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_random_labels_agree_with_the_dense_masks(self, driving, shared, label_lists):
        state_to_label = SHARED if shared else IDENTITY
        assert_targets_match_the_oracle(driving.compiled, state_to_label, label_lists)


@pytest.fixture(scope="module")
def small_data(driving):
    return generate_dataset(driving, length=5, n_pos=30, n_neg=30, seed=42).labeled()


class TestTraining:
    def test_loss_decreases_on_separable_data(self, driving, small_data):
        cfg = TrainConfig(learning_rate=0.05, max_epochs=6, seed=0)
        result = train(driving.compiled, small_data, cfg)
        losses = [r.loss for r in result.history]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_zero_learning_rate_keeps_parameters(self, driving, small_data):
        cfg = TrainConfig(learning_rate=0.0, max_epochs=3, seed=1)
        result = train(driving.compiled, small_data, cfg)
        fresh = LinearExtractor.init_random(3, 6, np.random.default_rng(1))
        assert np.array_equal(result.extractor.weights, fresh.weights)
        assert np.array_equal(result.extractor.bias, fresh.bias)

    def test_seeded_runs_are_bitwise_identical(self, driving, small_data):
        cfg = TrainConfig(learning_rate=0.05, max_epochs=8, seed=3)
        a = train(driving.compiled, small_data, cfg)
        b = train(driving.compiled, small_data, cfg)
        assert [r.loss for r in a.history] == [r.loss for r in b.history]
        assert np.array_equal(a.extractor.weights, b.extractor.weights)
        assert np.array_equal(a.extractor.bias, b.extractor.bias)

    def test_sgd_also_supported(self, driving, small_data):
        cfg = TrainConfig(learning_rate=0.5, optimizer="sgd", max_epochs=5, seed=0)
        result = train(driving.compiled, small_data, cfg)
        assert result.history[-1].loss < result.history[0].loss

    def test_early_stopping_respects_patience(self, driving, small_data):
        cfg = TrainConfig(learning_rate=0.0, max_epochs=50, patience=4, seed=0)
        result = train(driving.compiled, small_data, cfg)
        # constant loss: first epoch is the best, then patience more epochs
        assert len(result.history) == 5

    def test_divergence_aborts_with_diagnostic(self, driving, small_data):
        bad = LinearExtractor(np.full((3, 6), np.nan), np.zeros(3))
        cfg = TrainConfig(learning_rate=0.05, max_epochs=3, seed=0)
        with pytest.raises(DivergenceError):
            train(driving.compiled, small_data, cfg, init=bad)

    @pytest.mark.parametrize("weights", [[[0.0, 0.0], [2.0, -2.0], [0.0, 0.0]], np.ones((3, 2))])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_overflowing_logits_diverge(self, driving, weights, rows):
        init = LinearExtractor(weights, np.zeros(3))
        data = [LabeledSequence(np.full((rows, 2), 1e308), label=1)]
        with pytest.raises(DivergenceError, match="^extractor: symbol logits must be finite$"):
            train(driving.compiled, data, TrainConfig(max_epochs=1), init=init)

    @pytest.mark.parametrize("value", [np.nan, 1.5])
    def test_a_stand_in_extractors_bad_probabilities_diverge(self, driving, small_data, value):
        # the guards' rows sum to 1 whatever the probabilities are, so 1.5
        # would train on; NaN would be blamed on the automaton's validation
        class StandIn(LinearExtractor):
            def extract(self, features):
                probs = super().extract(features)
                probs[..., 1] = value
                return probs

            def copy(self):
                return StandIn(self.weights.copy(), self.bias.copy())

        init = StandIn(np.zeros((3, 6)), np.zeros(3))
        message = r"^extractor: symbol probabilities must be finite and within \[0, 1\] \(±1e-06\)$"
        with pytest.raises(DivergenceError, match=message):
            train(driving.compiled, small_data, TrainConfig(max_epochs=1, seed=0), init=init)

    def test_mixed_label_kinds_rejected(self, driving):
        data = [
            LabeledSequence(np.zeros((2, 6)), label=1),
            LabeledSequence(np.zeros((2, 6)), step_labels=[0, 1]),
        ]
        with pytest.raises(ValueError):
            train(driving.compiled, data, TrainConfig())

    def test_per_sequence_errors_name_the_sequence(self, driving):
        cfg = TrainConfig(max_epochs=1)
        wide = LabeledSequence(np.zeros((2, 6)), label=1)
        narrow = LabeledSequence(np.zeros((2, 3)), label=0)
        with pytest.raises(ValueError, match="^sequence 1: feature dimension 3 != extractor's 6$"):
            train(driving.compiled, [wide, narrow], cfg)
        init = LinearExtractor(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="^sequence 0: feature dimension 6 != extractor's 3$"):
            train(driving.compiled, [wide, narrow], cfg, init=init)
        tagged = [LabeledSequence(np.zeros((2, 6)), step_labels=[0, lab]) for lab in (1, 1.0)]
        with pytest.raises(ValueError, match="^sequence 1: label 1.0 at step 1 matches no state$"):
            train(driving.compiled, tagged, cfg)

    def test_first_failing_sequence_is_reported_feature_width_first(self, driving):
        cfg = TrainConfig(max_epochs=1)

        def seq(width, label):
            return LabeledSequence(np.zeros((2, width)), step_labels=[0, label])

        cases = [
            ([seq(6, 1), seq(6, 7), seq(3, 1)], "^sequence 1: label 7 at step 1"),
            ([seq(6, 1), seq(3, 1), seq(6, 7)], "^sequence 1: feature dimension 3"),
            ([seq(6, 1), seq(3, 7)], "^sequence 1: feature dimension 3"),
        ]
        for data, message in cases:
            with pytest.raises(ValueError, match=message):
                train(driving.compiled, data, cfg)

    def test_empty_dataset_rejected(self, driving):
        with pytest.raises(ValueError):
            train(driving.compiled, [], TrainConfig())

    def test_tagging_training_improves(self, events):
        # per-step supervision on the bundled event pattern
        rng = np.random.default_rng(0)
        pattern = events
        compiled = pattern.compiled
        n = len(pattern.sfa.vocab)
        data = []
        from symfa.automaton import boolean_run
        from symfa.bench import encode_trace, truth_table
        from symfa import Interpretation
        import random as pyrandom

        struct = pyrandom.Random(0)
        for _ in range(40):
            masks = [struct.randrange(1 << n) for _ in range(6)]
            trace = [Interpretation(m, n) for m in masks]
            labels = boolean_run(compiled, trace)
            feats = encode_trace(truth_table(masks, n), 0.3, rng)
            data.append(LabeledSequence(feats, step_labels=labels))
        cfg = TrainConfig(learning_rate=0.05, max_epochs=15, seed=0)
        result = train(compiled, data, cfg)
        assert result.history[-1].loss < result.history[0].loss
        assert result.history[-1].metric > 0.8

    @staticmethod
    def _tagging_data(rng, labels, lengths=(5, 7)):
        data = []
        for k in range(24):
            steps = lengths[k % len(lengths)]
            step_labels = [labels[int(rng.integers(len(labels)))] for _ in range(steps)]
            data.append(LabeledSequence(rng.normal(size=(steps, 4)), step_labels=step_labels))
        return data

    def test_tagging_metric_with_shared_labels(self, events):
        # two states emit "busy": accuracy asks whether the most probable
        # state carries the step's label, not whether it is one given state
        from symfa import forward

        compiled = events.compiled
        state_to_label = {0: "idle", 1: "busy", 2: "busy"}
        rng = np.random.default_rng(17)
        data = self._tagging_data(rng, ["idle", "busy", None])
        init = make_extractor(rng, len(compiled.vocab), 4)
        cfg = TrainConfig(learning_rate=0.0, max_epochs=1, batch_size=5, seed=2)
        result = train(compiled, data, cfg, state_to_label=state_to_label, init=init)
        correct = total = 0
        for seq in data:
            alphas = forward(compiled, init.extract(seq.features))
            for alpha, lab in zip(alphas, seq.step_labels):
                if lab is not None:
                    total += 1
                    correct += state_to_label[int(np.argmax(alpha))] == lab
        assert 0 < correct < total
        assert result.history[0].metric == correct / total

    def test_sequence_metric_is_acceptance_on_the_label_side(self, driving):
        # a sequence counts as correct when its acceptance is >= 0.5 for
        # label 1 and < 0.5 for label 0
        from symfa import acceptance, parse_sfa

        compiled = driving.compiled
        rng = np.random.default_rng(23)
        data = [
            LabeledSequence(rng.normal(size=(3 + k % 3, 4)), label=k % 2) for k in range(30)
        ]
        init = make_extractor(rng, 3, 4)
        cfg = TrainConfig(learning_rate=0.0, max_epochs=1, batch_size=7, seed=4)
        result = train(compiled, data, cfg, init=init)
        accepts = [acceptance(compiled, init.extract(seq.features)) for seq in data]
        correct = sum((p >= 0.5) == bool(seq.label) for p, seq in zip(accepts, data))
        assert 0 < correct < len(data)
        assert result.history[0].metric == correct / len(data)

        # acceptance exactly 0.5 is on the accepting side
        last_a = validate_and_compile(
            parse_sfa(
                "vars: a\nstates: q0, q1\ninitial: q0\naccepting: q1\n"
                "q0 -> q1 : a\nq0 -> q0 : !a\nq1 -> q1 : a\nq1 -> q0 : !a\n"
            )
        )
        ties = [LabeledSequence(np.ones((2, 3)), label=label) for label in (0, 1)]
        half = LinearExtractor(np.zeros((1, 3)), np.zeros(1))
        cfg = TrainConfig(learning_rate=0.0, max_epochs=1, seed=0)
        assert acceptance(last_a, half.extract(ties[0].features)) == 0.5
        assert train(last_a, ties, cfg, init=half).history[0].metric == 0.5

    def test_seeded_tagging_runs_are_bitwise_identical(self, events):
        compiled = events.compiled
        data = self._tagging_data(np.random.default_rng(5), [0, 1, 2, None])
        cfg = TrainConfig(learning_rate=0.05, max_epochs=4, batch_size=7, seed=3)
        a = train(compiled, data, cfg)
        b = train(compiled, data, cfg)
        assert [(r.loss, r.metric) for r in a.history] == [(r.loss, r.metric) for r in b.history]
        assert np.array_equal(a.extractor.weights, b.extractor.weights)
        assert np.array_equal(a.extractor.bias, b.extractor.bias)

    @pytest.mark.parametrize("tagging", [False, True])
    def test_one_forward_recursion_per_group(self, driving, monkeypatch, tagging):
        # the group is the whole minibatch, whatever its lengths
        from symfa import learn

        rng = np.random.default_rng(8)
        data = []
        for k in range(12):
            # two lengths repeated, and distinct ones
            feats = rng.normal(size=((3, 4)[k % 2] if k < 8 else 5 + k, 6))
            if tagging:
                data.append(LabeledSequence(feats, step_labels=[0] * len(feats)))
            else:
                data.append(LabeledSequence(feats, label=k % 2))
        calls, layouts = [], []
        for core in ("_run_forward", "_run_backward"):
            real = getattr(learn, core)
            monkeypatch.setattr(
                learn, core, lambda *a, core=core, real=real: calls.append((core, a[1])) or real(*a)
            )
        init = automaton._Packed.__init__
        monkeypatch.setattr(
            automaton._Packed, "__init__", lambda p, n: layouts.append(p) or init(p, n)
        )

        def forbidden(*args):
            raise AssertionError("train() must reuse the loss's forward pass")

        monkeypatch.setattr(learn, "acceptance_batch", forbidden)
        cfg = TrainConfig(max_epochs=3, batch_size=5, seed=0)
        train(driving.compiled, data, cfg)
        # one layout, one forward and one reverse recursion per minibatch, 3
        # minibatches, 3 epochs; both recursions read the minibatch's layout
        assert [core for core, _ in calls] == ["_run_forward", "_run_backward"] * 3 * 3
        assert len(layouts) == 3 * 3
        assert all(packed is layouts[k // 2] for k, (_, packed) in enumerate(calls))

    @pytest.mark.parametrize("tagging", [False, True])
    @pytest.mark.parametrize("batch_size", [1, 7, 25])
    def test_loss_gets_each_length_group_stacked(self, driving, monkeypatch, tagging, batch_size):
        # a minibatch's length groups are stacked into one packed batch:
        # per minibatch, _symbol_probs gets its sequences sorted longest
        # first (a length keeps the minibatch's order), their feature rows
        # step-major, and _batch_loss the probabilities of those rows, their
        # lengths and one code per row (per-step labels) or per sequence
        # (sequence labels)
        rng = np.random.default_rng(9)
        data = []
        for k in range(20):
            feats = rng.normal(size=((3, 5, 9)[k % 3] if k < 14 else 10 + k, 4))
            if tagging:
                labels = [None if x == 3 else x for x in rng.integers(0, 4, len(feats)).tolist()]
                data.append(LabeledSequence(feats, step_labels=labels))
            else:
                data.append(LabeledSequence(feats, label=int(rng.integers(0, 2))))
        calls, made = [], []
        symbol_probs, loss = learn._symbol_probs, learn._batch_loss

        def recording_rows(extractor, rows):
            made.append((np.copy(rows), symbol_probs(extractor, rows)))
            return made[-1][1]

        def recording(c, probs, packed, table, codes, by_sequence):
            rows, made_probs = made.pop()
            assert probs is made_probs
            calls.append((rows, np.copy(packed.lengths), np.copy(codes)))
            return loss(c, probs, packed, table, codes, by_sequence)

        monkeypatch.setattr(learn, "_symbol_probs", recording_rows)
        monkeypatch.setattr(learn, "_batch_loss", recording)
        cfg = TrainConfig(max_epochs=2, batch_size=batch_size, seed=0)
        init = make_extractor(np.random.default_rng(1), 3, 4)
        train(driving.compiled, data, cfg, init=init)
        # given `init`, train draws nothing from its generator but the orders
        orders = np.random.default_rng(cfg.seed)
        want = []
        for _ in range(cfg.max_epochs):
            order = orders.permutation(len(data)).tolist()
            for start in range(0, len(data), batch_size):
                batch = order[start : start + batch_size]
                batch.sort(key=lambda k: -len(data[k].features))
                lengths = [len(data[k].features) for k in batch]
                steps = [(k, t) for t in range(lengths[0]) for k, n in zip(batch, lengths) if t < n]
                rows = np.array([data[k].features[t] for k, t in steps]).reshape(-1, 4)
                if tagging:  # the identity map codes label q as row q + 1
                    labels = [data[k].step_labels[t] for k, t in steps]
                    codes = np.array([0 if x is None else x + 1 for x in labels], dtype=np.intp)
                else:
                    codes = np.array([data[k].label + 1 for k in batch])
                want.append((rows, np.array(lengths), codes))
        assert len(calls) == len(want)
        for got, expected in zip(calls, want):
            for actual, wanted in zip(got, expected):
                assert actual.shape == wanted.shape and actual.dtype == wanted.dtype
                assert np.array_equal(actual, wanted)

    @pytest.mark.parametrize("tagging", [False, True])
    def test_no_minibatch_keeps_its_probabilities_alive(self, driving, monkeypatch, tagging):
        # a minibatch's symbol probabilities and their gradient, both (V, R),
        # are freed before the next minibatch's probabilities are made; kept
        # alive, they would add their size to the peak of the next step
        refs = []
        symbol_probs, loss = learn._symbol_probs, learn._batch_loss

        def made(extractor, rows):
            assert [ref() for ref in refs] == [None] * len(refs)
            probs = symbol_probs(extractor, rows)
            refs.append(weakref.ref(probs))
            return probs

        def lost(*args):
            result = loss(*args)
            refs.append(weakref.ref(result[1]))
            return result

        monkeypatch.setattr(learn, "_symbol_probs", made)
        monkeypatch.setattr(learn, "_batch_loss", lost)
        rng = np.random.default_rng(5)
        data = []
        for k in range(12):
            feats = rng.normal(size=((3, 5, 9)[k % 3], 4))
            if tagging:
                data.append(LabeledSequence(feats, step_labels=[k % 3] * len(feats)))
            else:
                data.append(LabeledSequence(feats, label=k % 2))
        train(driving.compiled, data, TrainConfig(max_epochs=2, batch_size=5, seed=0))
        # 3 minibatches in each of 2 epochs, two arrays each
        assert len(refs) == 2 * 3 * 2
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_invalid_configs_rejected(self):
        for rate in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^learning rate must be finite and >= 0"):
                TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="adagrad")
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            TrainConfig(seed=-1)


def reference_batch_loss(c, extractor, features, table, codes, by_sequence):
    """_batch_loss's results from the public extract and recursions.

    features (B, T, m) and codes (B, S), the layout the public functions
    take; the loss is the one _batch_loss documents.
    """
    batch, steps = features.shape[:2]
    probs = extractor.extract(features)
    alphas = forward_alphas(c, probs)
    read = alphas[:, steps - codes.shape[1] :]
    masks = table[codes]
    mass = (read * masks).sum(axis=-1)
    active = codes != 0
    # capped at 1 - LOG_CLAMP; only a mass of exactly 0 is raised to LOG_CLAMP
    cap = 1.0 - learn.LOG_CLAMP
    clamped = np.where(mass > 0, np.minimum(mass, cap), learn.LOG_CLAMP)
    loss = -(np.log(clamped) * active).sum(axis=-1).mean()
    dmass = -np.where(active & (mass > 0) & (mass < cap), 1.0 / clamped, 0.0) / batch
    dprobs = backward_gradient(c, probs, masks * dmass[..., None], alphas)
    slope = probs * (1.0 - probs) * dprobs
    dw = np.einsum("btv,btm->vm", slope, features)
    db = slope.sum(axis=(0, 1))
    if by_sequence:
        correct = np.where(codes[:, 0] == 2, mass[:, 0] >= 0.5, mass[:, 0] > 0.5).sum()
    else:
        correct = table[codes, read.argmax(axis=-1)][active].sum()
    return loss, dw, db, int(correct)


def assert_close_to_scale(actual, expected, rel=1e-12):
    """Every entry within `rel` of the largest magnitude in `expected`."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max(initial=0.0) <= rel * np.abs(expected).max(initial=0.0)


LAYOUT_PATTERNS = {
    # at most FLOW_MAX_TRANSITIONS transitions: the flow steps
    "driving": bench.driving_pattern,
    "events": bench.events_pattern,
    "random:8x10:2": lambda: bench.random_pattern(8, 10, 2),
    # 156 transitions: the gather steps
    "random:64x12:0": lambda: bench.random_pattern(64, 12, 0),
}


class TestLayoutContract:
    """Training runs the recursion cores on its own packed layout.

    _batch_loss takes the symbol probabilities of packed step-major
    feature rows (T·B, m) and codes, and hands the cores views of its
    arrays; the public functions take (B, T) arrays and pass transposed
    views. Both must give one loss and one gradient.
    """

    @pytest.mark.parametrize("pattern", list(LAYOUT_PATTERNS))
    @pytest.mark.parametrize(
        "tagging,batch,steps",
        # 40 × 60 crosses block boundaries; 0 steps is a tagging sequence only
        [(False, 40, 60), (False, 3, 7), (True, 40, 60), (True, 3, 7), (True, 4, 0)],
    )
    def test_batch_loss_matches_the_public_functions(self, pattern, tagging, batch, steps):
        c = LAYOUT_PATTERNS[pattern]().compiled
        rng = np.random.default_rng(batch * 100 + steps)
        features = rng.normal(size=(batch, steps, 5))
        ext = LinearExtractor(rng.normal(size=(len(c.vocab), 5)), rng.normal(size=len(c.vocab)))
        if tagging:
            # four labels over the states; label 4 marks an unlabeled step
            state_to_label = {q: q % 4 for q in range(c.num_states)}
            data = []
            for f in features:
                labels = [None if k == 4 else k for k in rng.integers(0, 5, steps).tolist()]
                data.append(LabeledSequence(f, step_labels=labels))
        else:
            state_to_label = None
            data = [LabeledSequence(f, label=int(rng.integers(0, 2))) for f in features]
        table, codes, offsets, _ = learn._targets(c, data, state_to_label)
        codes = codes[offsets[:, None] + np.arange(steps if tagging else 1)]
        # an equal-length packed batch: rows and row codes step-major
        rows = np.ascontiguousarray(features.transpose(1, 0, 2)).reshape(-1, 5)
        packed_codes = codes.T.ravel() if tagging else codes[:, 0]
        packed = automaton._Packed(np.full(batch, steps))
        probs = learn._symbol_probs(ext, rows)
        loss, dprobs, hits = learn._batch_loss(c, probs, packed, table, packed_codes, not tagging)
        got = (loss, *ext.backward(rows, probs, dprobs))
        want = reference_batch_loss(c, ext, features, table, codes, not tagging)
        for actual, expected in zip(got, want[:3]):
            assert_close_to_scale(actual, expected)
        assert hits == want[3]

    @pytest.mark.parametrize("tagging", [False, True])
    def test_train_evaluates_views_of_its_probabilities(self, driving, monkeypatch, tagging):
        # every block the plan evaluates is a view of the batch's symbol
        # probabilities, never a copy; 40 × 60 rows take three blocks
        from symfa import circuit

        made, views = [], []
        symbol_probs = learn._symbol_probs
        monkeypatch.setattr(
            learn, "_symbol_probs", lambda *a: made.append(symbol_probs(*a)) or made[-1]
        )
        forward = circuit.Plan.forward

        def checked(plan, p, keep=False):
            views.append(np.shares_memory(p, made[-1]))
            return forward(plan, p, keep)

        monkeypatch.setattr(circuit.Plan, "forward", checked)
        rng = np.random.default_rng(4)
        data = []
        for k in range(40):
            feats = rng.normal(size=(60, 6))
            if tagging:
                data.append(LabeledSequence(feats, step_labels=[k % 3] * 60))
            else:
                data.append(LabeledSequence(feats, label=k % 2))
        train(driving.compiled, data, TrainConfig(max_epochs=2, batch_size=40, seed=0))
        # per epoch, three blocks forward and three in the reverse pass
        assert len(views) == 2 * 6 and all(views)


# a central difference with step FD_STEP errs by about eps·|loss|/FD_STEP
# from rounding (a few 1e-9 here) plus FD_STEP²·|f'''|/6 from truncation;
# over six seeds of every case below the largest error was 2.5e-9 of the
# largest |dprobs|, so the bound is 1e-7 of it
FD_STEP = 1e-6
FD_TOL = 1e-7


class TestLossGradient:
    """_batch_loss's dprobs is the derivative of its loss in each symbol probability."""

    @pytest.mark.parametrize("pattern", ["driving", "random:64x12:0"])
    @pytest.mark.parametrize("tagging", [False, True])
    def test_dprobs_is_a_central_difference_of_the_loss(self, pattern, tagging):
        c = LAYOUT_PATTERNS[pattern]().compiled
        rng = np.random.default_rng(11)
        packed = automaton._Packed(np.array([6, 4, 4, 1]))
        # away from 0 and 1, so that no step of FD_STEP leaves (0, 1) or
        # reaches the clamp inside the log
        probs = rng.uniform(0.05, 0.95, size=(len(c.vocab), packed.first[-1]))
        if tagging:
            seq = LabeledSequence(np.zeros((1, 1)), step_labels=[0])
            table = learn._targets(c, [seq], {q: q % 3 for q in range(c.num_states)})[0]
            # one code per row, 0 (unlabeled) among them
            codes = rng.integers(0, len(table), size=packed.first[-1])
        else:
            table = learn._targets(c, [LabeledSequence(np.zeros((1, 1)), label=1)], None)[0]
            codes = rng.integers(1, 3, size=len(packed.lengths))
        _, dprobs, _ = learn._batch_loss(c, probs, packed, table, codes, not tagging)
        fd = np.empty_like(probs)
        for idx in np.ndindex(*probs.shape):
            up, down = probs.copy(), probs.copy()
            up[idx] += FD_STEP
            down[idx] -= FD_STEP
            up_loss = learn._batch_loss(c, up, packed, table, codes, not tagging)[0]
            down_loss = learn._batch_loss(c, down, packed, table, codes, not tagging)[0]
            fd[idx] = (up_loss - down_loss) / (2 * FD_STEP)
        assert np.abs(dprobs).max() > 0
        assert_close_to_scale(dprobs, fd, rel=FD_TOL)


# the packed loss sums in another order than the per-sequence calls do, and
# numpy's products sum in an order that depends on their row count: over
# six seeds of every case below, loss, dW and db moved by at most 1.9e-15
# of their largest entry (8.7 ulps), so the bound is 32 ulps
PACKED_TOL = 32 * np.finfo(np.float64).eps
PACKED_LENGTHS = {
    "mixed": [3, 5, 9] * 6,
    "distinct": list(range(1, 25)),
    "with zero steps": [0, 4, 0, 7, 7, 2, 0, 11] * 2,
}


class TestPackedLoss:
    """One packed minibatch of any lengths costs the mean of its sequences' losses."""

    @pytest.mark.parametrize("block_rows", [automaton.BLOCK_ROWS, 8])
    @pytest.mark.parametrize("form", ["as run", "gather"])
    @pytest.mark.parametrize("pattern", ["driving", "random:64x12:0"])
    @pytest.mark.parametrize(
        "tagging,case",
        [(False, "mixed"), (False, "distinct"), (True, "mixed"), (True, "distinct")]
        + [(True, "with zero steps")],
    )
    def test_packed_loss_is_the_mean_of_the_sequence_losses(
        self, monkeypatch, tagging, case, pattern, form, block_rows
    ):
        if form == "gather":
            monkeypatch.setattr(automaton, "FLOW_MAX_TRANSITIONS", 0)
        # compiled inside the override: the plan is built on first use
        c = validate_and_compile(LAYOUT_PATTERNS[pattern]().sfa)
        assert (c._plan.next is None) == (form == "gather" or pattern == "random:64x12:0")
        monkeypatch.setattr(automaton, "BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(len(case) + block_rows)
        ext = LinearExtractor(rng.normal(size=(len(c.vocab), 5)), rng.normal(size=len(c.vocab)))
        state_to_label = {q: q % 3 for q in range(c.num_states)}
        data = []
        for t in rng.permutation(PACKED_LENGTHS[case]).tolist():
            feats = rng.normal(size=(t, 5))
            if tagging:
                labels = [None if x == 3 else x for x in rng.integers(0, 4, t).tolist()]
                data.append(LabeledSequence(feats, step_labels=labels))
            else:
                data.append(LabeledSequence(feats, label=int(rng.integers(0, 2))))
        # the packed batch: longest first, then step t of each sequence longer than t
        data.sort(key=lambda seq: -len(seq.features))
        lengths = np.array([len(seq.features) for seq in data])
        steps = [(i, t) for t in range(lengths[0]) for i in range(len(data)) if t < lengths[i]]
        rows = np.array([data[i].features[t] for i, t in steps]).reshape(-1, 5)
        table, codes, offsets, _ = learn._targets(c, data, state_to_label)
        if tagging:
            codes = np.array([codes[offsets[i] + t] for i, t in steps], dtype=np.intp)
        packed = automaton._Packed(lengths)
        probs = learn._symbol_probs(ext, rows)
        loss, dprobs, hits = learn._batch_loss(c, probs, packed, table, codes, not tagging)
        dw, db = ext.backward(rows, probs, dprobs)

        losses, dws, dbs, want_hits = [], [], [], 0
        for seq in data:
            probs = ext.extract(seq.features)
            if tagging:
                one, (one_dw, one_db) = tagging_loss(c, ext, seq, state_to_label)
                best = forward_alphas(c, probs).argmax(axis=-1).tolist()
                want_hits += sum(
                    state_to_label[q] == x for q, x in zip(best, seq.step_labels) if x is not None
                )
            else:
                one, (one_dw, one_db) = sequence_loss(c, ext, seq)
                accept = acceptance(c, probs)
                want_hits += accept >= 0.5 if seq.label else accept < 0.5
            losses.append(one), dws.append(one_dw), dbs.append(one_db)
        assert hits == want_hits
        for got, want in ((loss, np.mean(losses)), (dw, np.mean(dws, 0)), (db, np.mean(dbs, 0))):
            assert_close_to_scale(got, want, rel=PACKED_TOL)


class TestOptimizers:
    """Each optimizer step against its textbook formula, over three steps."""

    # per step: the weights' gradient (1, 2) and the bias's (1,)
    GRADS = [([[0.5, -2.0]], [1.0]), ([[-1.0, -2.0]], [0.0]), ([[4.0, 0.0]], [-3.0])]

    def params(self):
        return np.array([[1.0, -1.0]]), np.array([0.5])

    def test_sgd_steps_against_the_gradient(self):
        weights, bias = self.params()
        opt = learn._Sgd(0.1)
        for gw, gb in self.GRADS:
            opt.step([weights, bias], [np.array(gw), np.array(gb)])
        # by hand: 1 - 0.1·(0.5 - 1 + 4), -1 - 0.1·(-2 - 2 + 0), 0.5 - 0.1·(1 + 0 - 3)
        np.testing.assert_allclose(weights, [[0.65, -0.6]], rtol=1e-15, atol=0)
        np.testing.assert_allclose(bias, [0.7], rtol=1e-15, atol=0)

    def test_adam_steps_are_bias_corrected(self):
        # Kingma & Ba, Adam: A Method for Stochastic Optimization, ICLR 2015,
        # Algorithm 1, one scalar at a time
        lr, beta1, beta2, eps = 0.1, 0.9, 0.999, 1e-8
        weights, bias = self.params()
        want = [1.0, -1.0, 0.5]
        m, v = [0.0] * 3, [0.0] * 3
        opt = learn._Adam(lr)
        for t, (gw, gb) in enumerate(self.GRADS, start=1):
            opt.step([weights, bias], [np.array(gw), np.array(gb)])
            for i, g in enumerate(gw[0] + gb):
                m[i] = beta1 * m[i] + (1 - beta1) * g
                v[i] = beta2 * v[i] + (1 - beta2) * g * g
                mhat, vhat = m[i] / (1 - beta1**t), v[i] / (1 - beta2**t)
                want[i] -= lr * mhat / (math.sqrt(vhat) + eps)
            got = np.concatenate([weights[0], bias])
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
            if t == 1:
                # by hand: corrected, the first step is lr·g / (|g| + eps),
                # lr against the sign of every gradient; uncorrected, it
                # would be lr·0.1·g / (sqrt(0.001)·|g| + eps), about 0.32·lr
                np.testing.assert_allclose(weights, [[0.9, -0.9]], rtol=1e-8, atol=0)
                np.testing.assert_allclose(bias, [0.4], rtol=1e-8, atol=0)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        ext = LinearExtractor(rng.normal(size=(4, 7)), rng.normal(size=4))
        path = tmp_path / "model.bin"
        save_extractor(ext, path)
        again = load_extractor(path)
        assert np.array_equal(ext.weights, again.weights)
        assert np.array_equal(ext.bias, again.bias)

    def test_symbol_names_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        ext = LinearExtractor(rng.normal(size=(3, 5)), rng.normal(size=3))
        path = tmp_path / "model.bin"
        save_extractor(ext, path, ("tired", "blocked", "fast"))
        assert struct.unpack_from("<I", path.read_bytes(), 4) == (2,)
        again = load_extractor(path, ("tired", "blocked", "fast"))
        assert np.array_equal(ext.weights, again.weights)
        assert np.array_equal(ext.bias, again.bias)
        assert np.array_equal(load_extractor(path).weights, ext.weights)
        for other in [("blocked", "tired", "fast"), ("a", "b", "c"), ("tired", "blocked")]:
            with pytest.raises(ValueError, match="'tired', 'blocked', 'fast'"):
                load_extractor(path, other)
        with pytest.raises(ValueError, match="2 symbol names for 3 symbols"):
            save_extractor(ext, path, ("tired", "blocked"))

    def test_version_1_blob_loads_without_a_name_check(self, tmp_path):
        weights, bias = np.arange(6.0).reshape(2, 3), np.array([-1.0, 0.5])
        path = tmp_path / "v1.bin"
        path.write_bytes(
            b"SYMF" + struct.pack("<III", 1, 2, 3) + weights.astype("<f8").tobytes()
            + bias.astype("<f8").tobytes()
        )
        for symbols in (None, ("a", "b"), ("x", "y", "z")):
            ext = load_extractor(path, symbols)
            assert np.array_equal(ext.weights, weights) and np.array_equal(ext.bias, bias)

    # a corrupted byte can make a weight or the bias NaN or infinite
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["weights", "bias"])
    @pytest.mark.parametrize("names", [None, ("a", "b")])
    def test_non_finite_parameters_rejected(self, tmp_path, bad, where, names):
        ext = LinearExtractor(np.ones((2, 3)), np.zeros(2))
        getattr(ext, where)[-1] = bad
        path = tmp_path / "model.bin"
        save_extractor(ext, path, names)
        with pytest.raises(ValueError) as err:
            load_extractor(path, names)
        assert str(err.value) == f"{path}: non-finite weights or bias"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_extractor(path)

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        ext = LinearExtractor(rng.normal(size=(2, 3)), rng.normal(size=2))
        path = tmp_path / "model.bin"
        save_extractor(ext, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError):
            load_extractor(path)

    # inside the header, inside the names' byte count, inside the names
    @pytest.mark.parametrize("cut", [6, 82, 93])
    def test_truncated_named_checkpoint_rejected(self, tmp_path, cut):
        ext = LinearExtractor(np.ones((2, 3)), np.zeros(2))
        path = tmp_path / "model.bin"
        save_extractor(ext, path, ("a", "b"))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_extractor(path, ("a", "b"))

    # the examples share tmp_path; each one rewrites the file it reads
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=BYTE_EDITS)
    def test_mutated_bytes_load_or_raise_value_error(self, tmp_path, edits):
        path, names = tmp_path / "model.bin", ("a", "b", "c")
        save_extractor(LinearExtractor(np.arange(6.0).reshape(3, 2), np.ones(3)), path, names)
        path.write_bytes(mutate(path.read_bytes(), edits))
        for symbols in (None, names):
            try:
                load_extractor(path, symbols)
            except ValueError:
                pass

    # names of the stored length that are not JSON, or not UTF-8
    @pytest.mark.parametrize("names", [b'["a" "b"]', b'["a", "\xff"]'], ids=["json", "utf-8"])
    def test_damaged_checkpoint_names_name_the_file(self, tmp_path, names):
        ext = LinearExtractor(np.ones((2, 3)), np.zeros(2))
        path = tmp_path / "model.bin"
        save_extractor(ext, path, ("a", "b"))
        path.write_bytes(path.read_bytes()[:80] + struct.pack("<I", len(names)) + names)
        with pytest.raises(ValueError) as err:
            load_extractor(path, ("a", "b"))
        assert str(err.value).startswith(f"{path}: damaged symbol names (")
