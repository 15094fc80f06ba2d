"""Training on long sequences, where the label's mass starts far below 1e-7."""

import numpy as np

from symfa import TrainConfig, acceptance_batch, train
from symfa.bench import generate_dataset


def test_sequence_labels_train_at_length_100(driving):
    # With the initial extractor the positives' acceptance is about 1e-18
    # at this length. A floor at 1e-7 on every small mass gave those
    # labels no gradient: training stopped after 12 epochs at 0.50.
    compiled = driving.compiled
    train_set = generate_dataset(driving, 100, 100, 100, seed=1)
    test_set = generate_dataset(driving, 100, 100, 100, seed=2)
    result = train(compiled, train_set.labeled(), TrainConfig(max_epochs=60))
    feats = np.stack([s.features for s in test_set.sequences])
    labels = np.array([s.label for s in test_set.sequences], dtype=bool)
    accept = acceptance_batch(compiled, result.extractor.extract(feats))
    accuracy = float(((accept >= 0.5) == labels).mean())
    assert accuracy > 0.9, f"test accuracy {accuracy:.2f} after {len(result.history)} epochs"
