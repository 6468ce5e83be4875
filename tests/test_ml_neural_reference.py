"""The fused flat-buffer Adam core against the per-array reference loops.

Each test trains one network with the production code and the same
network with the reference loops of ``tests/mlp_reference.py``, on the
same machine, and asserts bit-identical weights, biases and loss curves.
No hash is pinned: BLAS kernels differ between machines, so the only
portable statement is "the same as the reference, here".
"""

import numpy as np
import pytest

from mlp_reference import assert_same_network, use_reference
from repro.benchsuite import get_benchmark
from repro.core import TrainingConfig, evaluate_lopo, generate_training_data
from repro.machines import MC2
from repro.ml.neural import MLPClassifier, MLPRegressor


def _blobs(n, classes=3, d=5, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, size=n)
    X = rng.normal(size=(n, d)) + 1.5 * y[:, None]
    return X, y


def _both(train):
    """``train()`` with the production core, then with the reference."""
    fused = train()
    with pytest.MonkeyPatch.context() as mp:
        use_reference(mp)
        reference = train()
    return fused, reference


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize(
    "n,batch",
    [
        (120, 32),  # ragged last batch of 24
        (66, 32),  # ragged last batch of 2, the LOPO training-set shape
        (65, 32),  # a one-row last batch
        (20, 32),  # n < batch: one batch per epoch
        (64, 16),  # batches tile the set exactly
    ],
)
def test_classifier_matches_reference(activation, n, batch):
    X, y = _blobs(n)
    fused, reference = _both(
        lambda: MLPClassifier(
            hidden_layers=(12, 7),
            activation=activation,
            epochs=80,
            batch_size=batch,
            seed=3,
        ).fit(X, y)
    )
    assert len(fused.loss_curve_) > 1
    assert_same_network(fused, reference)
    assert np.array_equal(fused.predict_proba(X), reference.predict_proba(X))


def test_early_stopping_matches_reference():
    X, y = _blobs(66)
    fused, reference = _both(
        lambda: MLPClassifier(epochs=5000, patience=5, tol=1e-3, seed=1).fit(X, y)
    )
    assert len(fused.loss_curve_) < 5000
    assert_same_network(fused, reference)


def test_single_class_matches_reference():
    X = np.random.default_rng(0).normal(size=(20, 3))
    y = np.full(20, 7)
    fused, reference = _both(lambda: MLPClassifier(seed=0).fit(X, y))
    assert fused.loss_curve_ == [0.0]
    assert_same_network(fused, reference)
    assert np.array_equal(fused.predict(X), reference.predict(X))


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_continue_fit_matches_reference(activation):
    X, y = _blobs(66)
    X_new, y_new = _blobs(9, seed=5)

    def train():
        m = MLPClassifier(activation=activation, epochs=40, seed=2).fit(X, y)
        return m.continue_fit(X_new, y_new, epochs=25)

    fused, reference = _both(train)
    assert_same_network(fused, reference)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("n", [600, 100])  # ragged 256-row batches; n < batch
def test_regressor_matches_reference(activation, n):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(n, 4))
    y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 3.0
    fused, reference = _both(
        lambda: MLPRegressor(activation=activation, epochs=25, seed=6).fit(X, y)
    )
    assert fused.batch_size == 256
    assert_same_network(fused, reference)
    assert np.array_equal(fused.predict(X), reference.predict(X))


def test_lopo_predictions_match_reference():
    suite = tuple(
        get_benchmark(p) for p in ("vec_add", "mat_mul", "black_scholes", "hotspot")
    )
    db = generate_training_data(MC2, suite, TrainingConfig(max_sizes=3))
    fused, reference = _both(lambda: evaluate_lopo(MC2, db, "mlp", seed=0))

    def labels(evaluation):
        return [
            (p.program, s.size, s.predicted.label)
            for p in evaluation.programs
            for s in p.sizes
        ]

    assert len(labels(fused)) == len(db)
    assert labels(fused) == labels(reference)
    assert fused == reference
