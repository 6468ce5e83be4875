"""The task-partitioning prediction model (§2.1 of the paper).

Wraps a from-scratch classifier behind the partitioning vocabulary:
training consumes a :class:`TrainingDatabase`, deployment consumes the
combined feature vector of a *new* program + problem size and returns
the predicted :class:`Partitioning`.

Two model shapes are provided:

* **classifier** (the paper's formulation) — predict the oracle label
  directly; limited to labels observed during training;
* **scorer** (extension) — predict the *relative cost* of every
  candidate partitioning and take the argmin, which generalizes to
  partitionings never optimal for any training program.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..benchsuite.base import Benchmark, ProblemInstance
from ..energy.objectives import MODEL_OBJECTIVES, Objective, coerce_objective
from ..ml.base import Classifier, MajorityClassifier
from ..ml.forest import RandomForestClassifier
from ..ml.knn import KNeighborsClassifier
from ..ml.neural import MLPClassifier, MLPRegressor
from ..ml.scaling import StandardScaler
from ..ml.tree import DecisionTreeClassifier
from ..partitioning import Partitioning
from .database import TrainingDatabase
from .features import combined_features, feature_vector

__all__ = [
    "make_classifier",
    "save_model",
    "load_model",
    "MODEL_KINDS",
    "PERSISTABLE_MODEL_KINDS",
    "PartitioningModel",
    "PartitioningScorerModel",
    "make_partitioning_model",
    "PartitioningPredictor",
]

#: Classifier families (``mlp`` is the paper-lineage default) plus the
#: scorer extensions.
MODEL_KINDS = ("mlp", "tree", "forest", "knn", "majority", "knn-scorer", "mlp-scorer")


def make_classifier(kind: str, seed: int = 0) -> Classifier:
    """Instantiate one of the supported model families."""
    if kind == "mlp":
        return MLPClassifier(hidden_layers=(48, 24), epochs=500, seed=seed)
    if kind == "tree":
        return DecisionTreeClassifier(max_depth=12, min_samples_leaf=1, seed=seed)
    if kind == "forest":
        return RandomForestClassifier(n_estimators=40, max_depth=14, seed=seed)
    if kind == "knn":
        return KNeighborsClassifier(k=5, weights="distance")
    if kind == "majority":
        return MajorityClassifier()
    raise ValueError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}")


class PartitioningModel:
    """Scaler + classifier over partitioning labels.

    Labels are the partition-space label strings (``"70/20/10"``), so a
    model can only ever predict partitionings it has seen as oracle
    labels — matching the paper's classification formulation.
    """

    def __init__(
        self,
        kind: str = "mlp",
        seed: int = 0,
        objective: "Objective | str" = Objective.MAKESPAN,
    ):
        self.kind = kind
        self.seed = seed
        self.objective = coerce_objective(objective)
        if self.objective not in MODEL_OBJECTIVES:
            raise ValueError(
                f"models train on {[o.value for o in MODEL_OBJECTIVES]}; "
                f"{self.objective.value!r} is a serve-time constraint"
            )
        self.scaler = StandardScaler()
        self.classifier = make_classifier(kind, seed)
        self.feature_names_: tuple[str, ...] | None = None
        self._fitted = False

    def fit(self, db: TrainingDatabase) -> "PartitioningModel":
        """Train on a database (typically one machine's records).

        The oracle label of each record is derived under this model's
        objective — the same sweep trains a makespan, energy or EDP
        predictor, only the labelling differs.
        """
        names = db.feature_names()
        X, y, _groups = db.matrices(names, objective=self.objective)
        Xs = self.scaler.fit_transform(X)
        self.classifier.fit(Xs, y)
        self.feature_names_ = names
        self._fitted = True
        return self

    #: Warm-start epochs per incremental MLP refit (a nudge, not a
    #: from-scratch schedule).
    INCREMENTAL_EPOCHS = 80

    def refit(
        self, db: TrainingDatabase, incremental: bool = True
    ) -> "PartitioningModel":
        """Re-train after the database changed (online adaptation path).

        ``incremental=True`` keeps the fitted feature statistics (the
        scaler) so the feature space stays stable under a handful of new
        records; an MLP warm-starts from its current weights for a
        shortened schedule (a new oracle label forces a full fit — the
        output layer changes shape).  Other classifier kinds re-fit
        from scratch, which for them is cheap and exact.  ``False`` is
        a full :meth:`fit`.
        """
        if not incremental or not self._fitted or self.feature_names_ is None:
            return self.fit(db)
        X, y, _groups = db.matrices(self.feature_names_, objective=self.objective)
        Xs = self.scaler.transform(X)
        if isinstance(self.classifier, MLPClassifier):
            try:
                self.classifier.continue_fit(Xs, y, epochs=self.INCREMENTAL_EPOCHS)
                return self
            except ValueError:
                pass  # unseen label: fall through to a full re-fit
        classifier = make_classifier(self.kind, self.seed)
        classifier.fit(Xs, y)
        self.classifier = classifier
        return self

    def predict_features(self, features: Mapping[str, float]) -> Partitioning:
        """Predict the partitioning for one combined feature dict."""
        return self.predict_features_many([features])[0]

    def predict_features_many(
        self, features: Sequence[Mapping[str, float]]
    ) -> list[Partitioning]:
        """Batched prediction: one classifier pass over many launches.

        The serving layer's ``submit_many`` funnels every cold key of a
        trace through here, so a whole batch costs one scaler transform
        and one classifier forward pass instead of per-row model calls.
        """
        if not self._fitted or self.feature_names_ is None:
            raise RuntimeError("model is not fitted")
        if not features:
            return []
        X = np.stack([feature_vector(f, self.feature_names_) for f in features])
        labels = self.classifier.predict(self.scaler.transform(X))
        return [Partitioning.from_label(str(l)) for l in labels]

    def predict_many(self, db: TrainingDatabase) -> list[Partitioning]:
        """Predict for every record of a database (evaluation helper)."""
        if not self._fitted or self.feature_names_ is None:
            raise RuntimeError("model is not fitted")
        X, _y, _groups = db.matrices(self.feature_names_)
        labels = self.classifier.predict(self.scaler.transform(X))
        return [Partitioning.from_label(str(l)) for l in labels]

    def accuracy_on(self, db: TrainingDatabase) -> float:
        """Exact-label accuracy against this objective's oracle labels."""
        predictions = self.predict_many(db)
        hits = sum(
            1
            for p, r in zip(predictions, db.records)
            if p.label == r.best_label_for(self.objective)
        )
        return hits / len(db.records)


class PartitioningScorerModel:
    """Argmin-over-candidates model (the unseen-label extension).

    ``knn-scorer``: the k nearest training records (in feature space)
    vote with their full measured sweeps — each candidate partitioning
    is scored by the mean of the neighbours' *relative* times (each
    normalized by that record's oracle time), and the argmin wins.

    ``mlp-scorer``: a regression network maps (features, shares) to the
    log relative time of the candidate; prediction scans all 66 points.
    """

    def __init__(
        self,
        kind: str = "knn-scorer",
        seed: int = 0,
        k: int = 5,
        objective: "Objective | str" = Objective.MAKESPAN,
    ):
        if kind not in ("knn-scorer", "mlp-scorer"):
            raise ValueError(f"unknown scorer kind {kind!r}")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.kind = kind
        self.seed = seed
        self.k = k
        self.objective = coerce_objective(objective)
        if self.objective not in MODEL_OBJECTIVES:
            raise ValueError(
                f"scorers train on {[o.value for o in MODEL_OBJECTIVES]}; "
                f"{self.objective.value!r} is a serve-time constraint"
            )
        self.scaler = StandardScaler()
        self.feature_names_: tuple[str, ...] | None = None
        self._labels: tuple[str, ...] = ()
        self._X: np.ndarray | None = None
        self._rel_times: np.ndarray | None = None
        self._log_rel: np.ndarray | None = None
        self._shares: np.ndarray | None = None
        self._regressor: MLPRegressor | None = None
        self._fitted = False

    def _candidate_shares(self) -> np.ndarray:
        """Candidate-share matrix, parsed once at fit time and cached."""
        if self._shares is None:
            self._shares = (
                np.array(
                    [Partitioning.from_label(l).shares for l in self._labels],
                    dtype=np.float64,
                )
                / 100.0
            )
        return self._shares

    def _objective_costs(self, record) -> dict[str, float]:
        """Per-label scalar cost of one record under this objective."""
        from ..energy.objectives import objective_cost

        if self.objective is Objective.MAKESPAN:
            return dict(record.timings)
        missing = set(record.timings) - set(record.energies)
        if missing:
            raise ValueError(
                f"objective {self.objective.value!r} needs energy sweeps; "
                f"record {record.program}@{record.size} has none for "
                f"{sorted(missing)[:3]}..."
            )
        return {
            label: objective_cost(
                self.objective, record.timings[label], record.energies[label]
            )
            for label in record.timings
        }

    def fit(self, db: TrainingDatabase) -> "PartitioningScorerModel":
        names = db.feature_names()
        X, _y, _groups = db.matrices(names)
        Xs = self.scaler.fit_transform(X)
        labels = tuple(sorted(db.records[0].timings))
        rel = np.empty((len(db.records), len(labels)))
        for i, r in enumerate(db.records):
            if tuple(sorted(r.timings)) != labels:
                raise ValueError("inconsistent partitioning sweeps across records")
            costs = self._objective_costs(r)
            best = min(costs.values())
            rel[i] = [costs[l] / best for l in labels]
        if labels != self._labels:
            self._shares = None  # candidate set changed: re-derive lazily
        self.feature_names_ = names
        self._labels = labels
        self._X = Xs
        self._rel_times = rel
        self._log_rel = np.log(rel)
        if self.kind == "mlp-scorer":
            shares = self._candidate_shares()
            n, d = Xs.shape
            m = len(labels)
            rows = np.empty((n * m, d + shares.shape[1]))
            rows[:, :d] = np.repeat(Xs, m, axis=0)
            rows[:, d:] = np.tile(shares, (n, 1))
            targets = self._log_rel.reshape(n * m)
            self._regressor = MLPRegressor(
                hidden_layers=(48, 24), epochs=60, seed=self.seed
            ).fit(rows, targets)
        self._fitted = True
        return self

    def refit(
        self, db: TrainingDatabase, incremental: bool = True
    ) -> "PartitioningScorerModel":
        """Re-train on the consistent-sweep subset of an updated database.

        Online records carry partial sweeps; scorers need uniform
        candidate sets, so the refit selects the dominant sweep shape
        (``incremental`` is accepted for interface parity — scorer fits
        are cheap enough to redo in full).
        """
        del incremental
        return self.fit(db.consistent_sweeps())

    def _scores_for(self, x_scaled: np.ndarray) -> np.ndarray:
        """Relative-cost score per candidate label for one launch."""
        return self._scores_matrix(x_scaled[None, :])[0]

    def _scores_matrix(self, X_scaled: np.ndarray) -> np.ndarray:
        """Relative-cost scores, all rows in one pass: (n, candidates).

        ``knn-scorer`` finds every row's neighbourhood from one pairwise
        distance matrix and gathers the (pre-logged) relative sweeps in
        a single fancy-indexing step; ``mlp-scorer`` evaluates all
        (row, candidate) pairs through one regressor forward pass.
        """
        assert self._X is not None and self._log_rel is not None
        if self.kind == "knn-scorer":
            k = min(self.k, self._X.shape[0])
            out = np.empty((len(X_scaled), self._log_rel.shape[1]))
            # Broadcast-difference distances, row-blocked to bound the
            # (block, train, features) intermediate.  Deliberately NOT
            # the x²-2xy+y² expansion: the difference form keeps every
            # d2 entry bit-identical to the historical per-row loop, so
            # vectorization cannot flip near-tied neighbour selections.
            block = 256
            for start in range(0, len(X_scaled), block):
                chunk = X_scaled[start : start + block]
                d2 = ((self._X[None, :, :] - chunk[:, None, :]) ** 2).sum(axis=2)
                nn = np.argpartition(d2, k - 1, axis=1)[:, :k]
                # Geometric mean over neighbours: robust to outlier sweeps.
                out[start : start + len(chunk)] = np.exp(
                    self._log_rel[nn].mean(axis=1)
                )
            return out
        assert self._regressor is not None
        shares = self._candidate_shares()
        n, d = X_scaled.shape
        m = len(shares)
        rows = np.empty((n * m, d + shares.shape[1]))
        rows[:, :d] = np.repeat(X_scaled, m, axis=0)
        rows[:, d:] = np.tile(shares, (n, 1))
        return self._regressor.predict(rows).reshape(n, m)

    def _argmin_partitionings(self, scores: np.ndarray) -> list[Partitioning]:
        return [
            Partitioning.from_label(self._labels[int(i)])
            for i in np.argmin(scores, axis=1)
        ]

    def predict_features(self, features: Mapping[str, float]) -> Partitioning:
        return self.predict_features_many([features])[0]

    def predict_features_many(
        self, features: Sequence[Mapping[str, float]]
    ) -> list[Partitioning]:
        """Batched prediction from assembled feature dicts (serving path)."""
        if not self._fitted or self.feature_names_ is None:
            raise RuntimeError("model is not fitted")
        if not features:
            return []
        X = np.stack([feature_vector(f, self.feature_names_) for f in features])
        return self._argmin_partitionings(self._scores_matrix(self.scaler.transform(X)))

    def predict_many(self, db: TrainingDatabase) -> list[Partitioning]:
        if not self._fitted or self.feature_names_ is None:
            raise RuntimeError("model is not fitted")
        X, _y, _groups = db.matrices(self.feature_names_)
        return self._argmin_partitionings(self._scores_matrix(self.scaler.transform(X)))

    def accuracy_on(self, db: TrainingDatabase) -> float:
        predictions = self.predict_many(db)
        hits = sum(
            1
            for p, r in zip(predictions, db.records)
            if p.label == r.best_label_for(self.objective)
        )
        return hits / len(db.records)


def make_partitioning_model(
    kind: str, seed: int = 0, objective: "Objective | str" = Objective.MAKESPAN
):
    """Factory over both model shapes (classifiers and scorers).

    ``objective`` selects what the model optimizes: the oracle labels
    (classifiers) or the relative-cost targets (scorers) are derived
    from the sweeps under that objective at fit time.
    """
    if kind in ("knn-scorer", "mlp-scorer"):
        return PartitioningScorerModel(kind, seed=seed, objective=objective)
    return PartitioningModel(kind, seed=seed, objective=objective)


class PartitioningPredictor:
    """Deployment-phase façade: program + problem size → partitioning.

    This is what the paper's runtime system consults before every
    launch: static features come from the compiled kernel, runtime
    features from the concrete launch, and the offline-trained model
    maps them to the partitioning the scheduler should use.
    """

    def __init__(self, model: PartitioningModel, machine_name: str):
        self.model = model
        self.machine_name = machine_name

    @property
    def objective(self) -> Objective:
        """What the underlying model optimizes (set at construction)."""
        return self.model.objective

    def features_for(
        self, bench: Benchmark, instance: ProblemInstance
    ) -> dict[str, float]:
        """Assemble the combined feature vector for a launch."""
        return combined_features(bench.compiled(instance), instance)

    def predict(self, bench: Benchmark, instance: ProblemInstance) -> Partitioning:
        """The partitioning to use for this launch."""
        return self.model.predict_features(self.features_for(bench, instance))

    def predict_features(self, features: Mapping[str, float]) -> Partitioning:
        """Predict from an already-assembled feature dict (serving path)."""
        return self.model.predict_features(features)

    def predict_features_many(
        self, features: Sequence[Mapping[str, float]]
    ) -> list[Partitioning]:
        """Batched prediction for many launches in one model pass."""
        return self.model.predict_features_many(features)

    def refit(
        self, db: TrainingDatabase, incremental: bool = True
    ) -> "PartitioningPredictor":
        """Incrementally refit the underlying model on an updated database.

        The serving layer calls this after online measurements land in
        the database, closing the paper's one-shot train→deploy loop.
        """
        self.model.refit(db.for_machine(self.machine_name), incremental=incremental)
        return self


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------
#
# The paper's deployment story requires an *offline-generated* model the
# runtime can load later; these helpers serialize the trained classifier
# models to JSON (no pickle, versioned) for exactly that workflow.

_MODEL_SCHEMA_VERSION = 1

#: Model kinds :func:`save_model` can serialize.  Tree ensembles are
#: cheap to refit from a saved :class:`TrainingDatabase` and scorers
#: carry their training set anyway, so neither is persisted.
PERSISTABLE_MODEL_KINDS = ("mlp", "knn", "majority")


def save_model(model: "PartitioningModel", path) -> None:
    """Serialize a trained classifier model to JSON.

    Supported kinds: ``mlp`` (weights), ``knn`` (training set),
    ``majority`` (label).  Tree ensembles are cheap to refit from a
    saved :class:`TrainingDatabase` and are intentionally not supported.
    """
    import json
    from pathlib import Path

    if not model._fitted or model.feature_names_ is None:
        raise RuntimeError("cannot save an unfitted model")
    clf = model.classifier
    doc: dict = {
        "schema_version": _MODEL_SCHEMA_VERSION,
        "kind": model.kind,
        "seed": model.seed,
        "objective": model.objective.value,
        "feature_names": list(model.feature_names_),
        "scaler": {
            "mean": model.scaler.mean_.tolist(),
            "scale": model.scaler.scale_.tolist(),
        },
    }
    if isinstance(clf, MLPClassifier):
        doc["classifier"] = {
            "classes": [str(c) for c in clf.classes_],
            "hidden_layers": list(clf.hidden_layers),
            "activation": clf.activation,
            "weights": [w.tolist() for w in clf._weights],
            "biases": [b.tolist() for b in clf._biases],
        }
    elif isinstance(clf, KNeighborsClassifier):
        doc["classifier"] = {
            "k": clf.k,
            "weights": clf.weights,
            "X": clf._X.tolist(),
            "y": [str(v) for v in clf._y],
        }
    elif isinstance(clf, MajorityClassifier):
        doc["classifier"] = {"label": str(clf._label)}
    else:
        raise NotImplementedError(
            f"persistence is not supported for model kind {model.kind!r}"
        )
    Path(path).write_text(json.dumps(doc))


def _restore_mlp(clf: MLPClassifier, state: dict, n_features: int) -> None:
    """Restore a saved MLP, checking that its layer shapes chain.

    Weights must map ``n_features`` through the saved hidden layers to
    one output per class; a ValueError names the first layer that does
    not.
    """
    hidden = tuple(state["hidden_layers"])
    # A fresh instance rejects an unknown activation or layer size.
    MLPClassifier(hidden_layers=hidden, activation=state["activation"])
    classes = np.asarray(state["classes"])
    weights = [np.asarray(w, dtype=np.float64) for w in state["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in state["biases"]]
    sizes = [n_features, *hidden, len(classes)]
    layers = len(sizes) - 1
    for i in range(max(layers, len(weights), len(biases))):
        want = ((sizes[i], sizes[i + 1]), (sizes[i + 1],)) if i < layers else None
        got = tuple(a[i].shape if i < len(a) else None for a in (weights, biases))
        if got != want:
            raise ValueError(
                f"saved MLP layer {i}: weight and bias shapes {got}, expected "
                f"{want} for {n_features} features, hidden layers {hidden} "
                f"and {len(classes)} classes"
            )
    clf.hidden_layers = hidden
    clf.activation = state["activation"]
    clf.classes_ = classes
    clf._weights = weights
    clf._biases = biases


def load_model(path) -> "PartitioningModel":
    """Load a model written by :func:`save_model`."""
    import json
    from pathlib import Path

    doc = json.loads(Path(path).read_text())
    version = doc.get("schema_version")
    if version != _MODEL_SCHEMA_VERSION:
        raise ValueError(f"model schema {version} != supported {_MODEL_SCHEMA_VERSION}")
    model = PartitioningModel(
        doc["kind"],
        seed=doc["seed"],
        # Models saved before the energy subsystem optimized makespan.
        objective=doc.get("objective", Objective.MAKESPAN.value),
    )
    model.feature_names_ = tuple(doc["feature_names"])
    model.scaler.mean_ = np.asarray(doc["scaler"]["mean"], dtype=np.float64)
    model.scaler.scale_ = np.asarray(doc["scaler"]["scale"], dtype=np.float64)
    state = doc["classifier"]
    clf = model.classifier
    if isinstance(clf, MLPClassifier):
        _restore_mlp(clf, state, len(model.feature_names_))
    elif isinstance(clf, KNeighborsClassifier):
        clf._X = np.asarray(state["X"], dtype=np.float64)
        clf._y = np.asarray(state["y"])
        clf.classes_ = np.unique(clf._y)
    elif isinstance(clf, MajorityClassifier):
        clf._label = state["label"]
        clf._fitted = True
    else:  # pragma: no cover - guarded by save_model
        raise NotImplementedError(doc["kind"])
    model._fitted = True
    return model
