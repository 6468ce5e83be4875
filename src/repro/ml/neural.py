"""Feed-forward neural networks (the paper-family model).

The Insieme task-partitioning line of work trains artificial neural
networks over static + runtime features; this is a small but complete
NumPy implementation: dense layers, tanh/ReLU hidden activations,
softmax cross-entropy (classifier) or MSE (regressor) losses, Adam
optimizer, mini-batching and early stopping — everything needed to
train reliably on a few hundred feature vectors with ~66 classes, or
on ~10k (features, partitioning) → time samples for the scorer model.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_Xy

__all__ = ["MLPClassifier", "MLPRegressor"]


def _tanh_grad(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.multiply(a, a, out=out)
    return np.subtract(1.0, out, out=out)


#: Hidden activations: ``(act(z, out), grad(a, out))``.  ``act`` maps the
#: pre-activation ``z``; ``grad`` writes the derivative in terms of the
#: activation ``a``.  Both write into ``out`` (``z`` itself, for ``act``).
_ACTIVATIONS = {
    "tanh": (np.tanh, _tanh_grad),
    "relu": (
        lambda z, out: np.maximum(z, 0.0, out=out),
        lambda a, out: np.greater(a, 0.0, out=out),
    ),
}


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of ``z``, in place."""
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=1, keepdims=True)
    return z


def _cross_entropy(
    z: np.ndarray, onehot: np.ndarray, y_idx: np.ndarray, delta: np.ndarray
) -> float:
    """Softmax cross-entropy head: batch loss, dLoss/dz into ``delta``."""
    probs = _softmax(z)
    picked = probs[np.arange(len(y_idx)), y_idx]
    loss = -float(np.add.reduce(np.log(picked + 1e-12)))
    np.subtract(probs, onehot, out=delta)
    np.divide(delta, len(y_idx), out=delta)
    return loss


def _squared_error(z: np.ndarray, y: np.ndarray, delta: np.ndarray) -> float:
    """Identity-output MSE head: batch loss, dLoss/dz into ``delta``."""
    err = delta[:, 0]
    np.subtract(z[:, 0], y, out=err)
    loss = float(err @ err)
    np.divide(err, len(y), out=err)
    return loss


def _layer_views(flat: np.ndarray, shapes: list) -> tuple[list, list]:
    """Per-layer weight and bias views into one flat buffer."""
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in shapes:
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


class _MLP:
    """Forward pass and Adam training shared by both MLPs."""

    def __init__(self):
        """Validate the hyperparameters a subclass has set; start unfitted."""
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden layer sizes must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        self.loss_curve_: list[float] = []

    def _init_params(self, d: int, n_out: int, rng: np.random.Generator) -> None:
        sizes = [d, *self.hidden_layers, n_out]
        self._weights = []
        self._biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            # Xavier/Glorot initialization.
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self._weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))

    def _forward(self, X: np.ndarray) -> np.ndarray:
        """Output-layer pre-activation (hidden layers activated)."""
        act, _ = _ACTIVATIONS[self.activation]
        a = X
        for i, (W, b) in enumerate(zip(self._weights, self._biases)):
            a = a @ W
            a += b
            if i < len(self._weights) - 1:
                act(a, a)
        return a

    def _adam(self, X, targets, epochs, rng, head) -> None:
        """Mini-batched Adam with early stopping over the current weights.

        Weights and biases are packed into one flat buffer (``_weights``
        and ``_biases`` become views of it), as are the gradients and
        both moments, so one step updates every layer with a dozen
        in-place ufuncs.  Every float operation keeps the order and
        operands of a per-array Adam update: training is bit-identical
        to one.  Each epoch permutes ``X`` and ``targets`` once.
        ``head(z, *target_batches, delta)`` returns a batch's loss from
        the output pre-activation ``z`` and writes dLoss/dz to ``delta``.
        """
        act, grad = _ACTIVATIONS[self.activation]
        shapes = [W.shape for W in self._weights]
        params = np.concatenate(
            [a.ravel() for W, b in zip(self._weights, self._biases) for a in (W, b)]
        )
        self._weights, self._biases = weights, biases = _layer_views(params, shapes)
        grads = np.empty_like(params)
        grad_W, grad_b = _layer_views(grads, shapes)
        m, v = np.zeros_like(params), np.zeros_like(params)
        s1, s2 = np.empty_like(params), np.empty_like(params)
        decay_W, _ = _layer_views(s1, shapes)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr, l2 = self.learning_rate, self.l2
        step = 0

        n = len(X)
        batch = min(self.batch_size, n)
        # Pre-activations (activated in place), deltas and activation
        # derivatives per layer, for each of the (at most two) batch sizes.
        buffers = {
            b: tuple([np.empty((b, W.shape[1])) for W in weights] for _ in range(3))
            for b in {min(batch, n - start) for start in range(0, n, batch)}
        }
        last = len(weights) - 1
        best_loss = np.inf
        stale = 0
        self.loss_curve_ = []
        for _epoch in range(epochs):
            order = rng.permutation(n)
            X_epoch = X[order]
            targets_epoch = [t[order] for t in targets]
            epoch_loss = 0.0
            for start in range(0, n, batch):
                stop = start + batch
                xb = X_epoch[start:stop]
                zs, deltas, da = buffers[len(xb)]
                a = xb
                for i in range(last + 1):
                    np.matmul(a, weights[i], out=zs[i])
                    zs[i] += biases[i]
                    if i < last:
                        act(zs[i], zs[i])
                    a = zs[i]
                epoch_loss += head(
                    zs[last], *(t[start:stop] for t in targets_epoch), deltas[last]
                )
                # l2 * W for every layer at once; s1 is free until the step.
                np.multiply(params, l2, out=s1)
                for i in range(last, -1, -1):
                    a = zs[i - 1] if i else xb  # the input of layer i
                    np.matmul(a.T, deltas[i], out=grad_W[i])
                    grad_W[i] += decay_W[i]
                    np.add.reduce(deltas[i], axis=0, out=grad_b[i])
                    if i:
                        np.matmul(deltas[i], weights[i].T, out=deltas[i - 1])
                        deltas[i - 1] *= grad(a, da[i - 1])
                step += 1
                corr1 = 1.0 - beta1**step
                corr2 = 1.0 - beta2**step
                # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g^2
                m *= beta1
                np.multiply(grads, 1 - beta1, out=s1)
                m += s1
                v *= beta2
                np.square(grads, out=s1)
                s1 *= 1 - beta2
                v += s1
                # params -= lr (m / corr1) / (sqrt(v / corr2) + eps)
                np.divide(v, corr2, out=s1)
                np.sqrt(s1, out=s1)
                s1 += eps
                np.divide(m, corr1, out=s2)
                s2 *= lr
                s2 /= s1
                params -= s2
            epoch_loss /= n
            self.loss_curve_.append(epoch_loss)
            if epoch_loss < best_loss - self.tol:
                best_loss = epoch_loss
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    break


class MLPClassifier(_MLP, Classifier):
    """Multi-layer perceptron with softmax output.

    Args:
        hidden_layers: sizes of the hidden layers.
        activation: ``"tanh"`` (paper-era default) or ``"relu"``.
        learning_rate: Adam step size.
        epochs: maximum training epochs.
        batch_size: mini-batch size (clamped to the dataset).
        l2: weight-decay coefficient.
        seed: RNG seed for init and shuffling.
        tol: early-stopping tolerance on the epoch loss.
        patience: epochs without ``tol`` improvement before stopping.
    """

    def __init__(
        self,
        hidden_layers: tuple[int, ...] = (32, 16),
        activation: str = "tanh",
        learning_rate: float = 0.01,
        epochs: int = 400,
        batch_size: int = 32,
        l2: float = 1e-4,
        seed: int = 0,
        tol: float = 1e-5,
        patience: int = 30,
    ):
        self.hidden_layers = tuple(hidden_layers)
        self.activation = activation
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.seed = seed
        self.tol = tol
        self.patience = patience
        super().__init__()
        self.classes_: np.ndarray | None = None

    # -- training ------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        X, y = check_Xy(X, y)
        assert y is not None
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        n_classes = len(self.classes_)
        rng = np.random.default_rng(self.seed)
        self._init_params(X.shape[1], n_classes, rng)

        if n_classes == 1:
            # Degenerate single-class training set.
            self.loss_curve_ = [0.0]
            return self

        self._train_loop(X, y_idx, self.epochs, rng)
        return self

    def continue_fit(
        self, X: np.ndarray, y: np.ndarray, epochs: int | None = None
    ) -> "MLPClassifier":
        """Warm start: keep the current weights, run more Adam epochs.

        The online refit path: a handful of new training records should
        nudge the converged network, not re-learn it from random
        initialization.  The labels must all be covered by the fitted
        ``classes_`` — a genuinely new label changes the output layer
        shape, which requires a full :meth:`fit` (raises ValueError).
        """
        if self.classes_ is None or not self._weights:
            raise RuntimeError("classifier is not fitted")
        X, y = check_Xy(X, y)
        assert y is not None
        if len(self.classes_) == 1:
            return self
        class_index = {c: i for i, c in enumerate(self.classes_)}
        unseen = sorted(set(map(str, y)) - set(map(str, self.classes_)))
        if unseen:
            raise ValueError(f"labels absent from the fitted classes: {unseen}")
        y_idx = np.array([class_index[v] for v in y])
        rng = np.random.default_rng(self.seed + 1)
        self._train_loop(X, y_idx, epochs if epochs is not None else self.epochs, rng)
        return self

    def _train_loop(
        self, X: np.ndarray, y_idx: np.ndarray, epochs: int, rng: np.random.Generator
    ) -> None:
        """Softmax cross-entropy training through the shared Adam core."""
        onehot = np.zeros((len(X), len(self.classes_)))
        onehot[np.arange(len(X)), y_idx] = 1.0
        self._adam(X, (onehot, y_idx), epochs, rng, _cross_entropy)

    # -- inference -------------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities (columns ordered like ``classes_``)."""
        if self.classes_ is None:
            raise RuntimeError("classifier is not fitted")
        X, _ = check_Xy(X)
        if len(self.classes_) == 1:
            return np.ones((len(X), 1))
        return _softmax(self._forward(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.classes_ is None:
            raise RuntimeError("classifier is not fitted")
        if len(self.classes_) == 1:
            X, _ = check_Xy(X)
            return np.full(len(X), self.classes_[0])
        probs = self.predict_proba(X)
        return self.classes_[np.argmax(probs, axis=1)]


class MLPRegressor(_MLP):
    """Multi-layer perceptron for scalar regression (MSE loss).

    Used by the scorer-style partitioning model, which regresses the
    (log) execution time of a candidate partitioning from the combined
    program features plus the candidate's shares, then picks the argmin
    over the whole partition space — sidestepping the classifier's
    inability to predict labels absent from the training set.
    """

    def __init__(
        self,
        hidden_layers: tuple[int, ...] = (64, 32),
        activation: str = "tanh",
        learning_rate: float = 0.005,
        epochs: int = 150,
        batch_size: int = 256,
        l2: float = 1e-5,
        seed: int = 0,
        tol: float = 1e-6,
        patience: int = 20,
    ):
        self.hidden_layers = tuple(hidden_layers)
        self.activation = activation
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.seed = seed
        self.tol = tol
        self.patience = patience
        super().__init__()
        self._y_mean = 0.0
        self._y_scale = 1.0
        self._fitted = False

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
            raise ValueError("X must be (n, d) and y must be (n,)")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("non-finite training data")
        # Standardize the target for stable optimization.
        self._y_mean = float(y.mean())
        self._y_scale = float(y.std()) or 1.0
        yz = (y - self._y_mean) / self._y_scale
        rng = np.random.default_rng(self.seed)
        self._init_params(X.shape[1], 1, rng)
        self._adam(X, (yz,), self.epochs, rng, _squared_error)
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("regressor is not fitted")
        X = np.asarray(X, dtype=np.float64)
        z = self._forward(X)[:, 0]
        return z * self._y_scale + self._y_mean
