"""Tests for offline model persistence (train once, deploy later)."""

import json

import numpy as np
import pytest

from repro.benchsuite import get_benchmark
from repro.core import (
    PartitioningModel,
    TrainingConfig,
    generate_training_data,
    load_model,
    save_model,
)
from repro.machines import MC2
from repro.ml import MLPClassifier

SUITE = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul", "hotspot"))


@pytest.fixture(scope="module")
def db():
    return generate_training_data(MC2, SUITE, TrainingConfig(max_sizes=3))


@pytest.mark.parametrize("kind", ["mlp", "knn", "majority"])
def test_round_trip_predictions_identical(kind, db, tmp_path):
    model = PartitioningModel(kind).fit(db)
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == kind
    assert loaded.feature_names_ == model.feature_names_
    original = [p.label for p in model.predict_many(db)]
    restored = [p.label for p in loaded.predict_many(db)]
    assert original == restored


def test_round_trip_single_prediction(db, tmp_path):
    model = PartitioningModel("mlp").fit(db)
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    feats = db.records[0].features
    assert loaded.predict_features(feats) == model.predict_features(feats)


def test_unfitted_model_rejected(tmp_path):
    with pytest.raises(RuntimeError):
        save_model(PartitioningModel("mlp"), tmp_path / "m.json")


def test_tree_models_not_supported(db, tmp_path):
    model = PartitioningModel("tree").fit(db)
    with pytest.raises(NotImplementedError):
        save_model(model, tmp_path / "t.json")


def test_schema_version_checked(db, tmp_path):
    model = PartitioningModel("majority").fit(db)
    path = tmp_path / "m.json"
    save_model(model, path)
    path.write_text(
        path.read_text().replace('"schema_version": 1', '"schema_version": 9')
    )
    with pytest.raises(ValueError, match="schema"):
        load_model(path)


def _relu_mlp(db):
    model = PartitioningModel("mlp", seed=3)
    # The classifier seed matches the model's, which is what a loaded
    # model's warm starts draw from.
    model.classifier = MLPClassifier(
        hidden_layers=(20, 6), activation="relu", epochs=200, seed=3
    )
    return model.fit(db)


def test_relu_mlp_round_trip_keeps_architecture_and_predictions(db, tmp_path):
    model = _relu_mlp(db)
    path = tmp_path / "relu.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.classifier.activation == "relu"
    assert loaded.classifier.hidden_layers == (20, 6)
    X, _, _ = db.matrices(model.feature_names_)
    Xs = model.scaler.transform(X)
    assert np.array_equal(
        loaded.classifier.predict_proba(Xs), model.classifier.predict_proba(Xs)
    )
    original = [p.label for p in model.predict_many(db)]
    assert [p.label for p in loaded.predict_many(db)] == original


def _corrupt(path, edit):
    doc = json.loads(path.read_text())
    edit(doc["classifier"])
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "edit,layer",
    [
        pytest.param(lambda c: c.update(hidden_layers=[20, 7]), 1, id="hidden"),
        pytest.param(lambda c: c["weights"][0].pop(), 0, id="input-row"),
        pytest.param(lambda c: c["biases"][2].pop(), 2, id="bias"),
        pytest.param(lambda c: c["classes"].pop(), 2, id="classes"),
        pytest.param(
            lambda c: (c["weights"].pop(), c["biases"].pop()), 2, id="missing-layer"
        ),
        pytest.param(
            lambda c: (c["weights"].append([[0.0]]), c["biases"].append([0.0])),
            3,
            id="extra-layer",
        ),
    ],
)
def test_corrupted_mlp_document_fails_on_load(db, tmp_path, edit, layer):
    path = tmp_path / "relu.json"
    save_model(_relu_mlp(db), path)
    _corrupt(path, edit)
    with pytest.raises(ValueError, match=f"saved MLP layer {layer}:"):
        load_model(path)


def test_unknown_activation_fails_on_load(db, tmp_path):
    path = tmp_path / "relu.json"
    save_model(_relu_mlp(db), path)
    _corrupt(path, lambda c: c.update(activation="swish"))
    with pytest.raises(ValueError, match="swish"):
        load_model(path)


def test_continue_fit_on_loaded_mlp_matches_the_original(db, tmp_path):
    model = _relu_mlp(db)
    path = tmp_path / "relu.json"
    save_model(model, path)
    loaded = load_model(path)
    X, y, _ = db.matrices(model.feature_names_)
    Xs = model.scaler.transform(X)
    model.classifier.continue_fit(Xs, y, epochs=15)
    loaded.classifier.continue_fit(Xs, y, epochs=15)
    for a, b in zip(model.classifier._weights, loaded.classifier._weights):
        assert np.array_equal(a, b)
    assert loaded.classifier.loss_curve_ == model.classifier.loss_curve_
    # The loaded weights were repacked into one flat training buffer.
    base = loaded.classifier._weights[0].base
    assert base is not None
    assert all(w.base is base for w in loaded.classifier._weights)
    assert all(b.base is base for b in loaded.classifier._biases)
