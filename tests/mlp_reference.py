"""Reference MLP training loops: one Adam update per weight and bias array.

These are the straightforward per-array loops ``repro.ml.neural`` used
before it trained over one flat parameter buffer.  Every float operation
of the fused core must keep the order and operands of these loops, so
tests train the same network both ways and assert bit-identical weights,
biases and loss curves.  :func:`use_reference` swaps them in for the
production code through a pytest ``monkeypatch``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.neural import MLPClassifier, MLPRegressor

_ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: (a > 0.0).astype(a.dtype)),
}


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _forward(model, X: np.ndarray, softmax: bool) -> list[np.ndarray]:
    act, _ = _ACTIVATIONS[model.activation]
    a = X
    activations = [a]
    last = len(model._weights) - 1
    for i, (W, b) in enumerate(zip(model._weights, model._biases)):
        z = a @ W + b
        if i == last:
            a = _softmax(z) if softmax else z
        else:
            a = act(z)
        activations.append(a)
    return activations


def _backward(model, activations, y_onehot):
    _, dact = _ACTIVATIONS[model.activation]
    n = len(y_onehot)
    grads_W = [np.empty(0)] * len(model._weights)
    grads_b = [np.empty(0)] * len(model._biases)
    delta = (activations[-1] - y_onehot) / n
    for i in range(len(model._weights) - 1, -1, -1):
        grads_W[i] = activations[i].T @ delta + model.l2 * model._weights[i]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model._weights[i].T) * dact(activations[i])
    return grads_W, grads_b


def reference_train_loop(self, X, y_idx, epochs, rng) -> None:
    """Per-array ``MLPClassifier._train_loop``."""
    n = len(X)
    n_classes = len(self.classes_)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y_idx] = 1.0

    mW = [np.zeros_like(W) for W in self._weights]
    vW = [np.zeros_like(W) for W in self._weights]
    mb = [np.zeros_like(b) for b in self._biases]
    vb = [np.zeros_like(b) for b in self._biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    batch = min(self.batch_size, n)
    best_loss = np.inf
    stale = 0
    self.loss_curve_ = []
    for _epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            acts = _forward(self, X[idx], softmax=True)
            probs = acts[-1]
            epoch_loss += -float(
                np.sum(np.log(probs[np.arange(len(idx)), y_idx[idx]] + 1e-12))
            )
            gW, gb = _backward(self, acts, onehot[idx])
            step += 1
            corr1 = 1.0 - beta1**step
            corr2 = 1.0 - beta2**step
            for i in range(len(self._weights)):
                mW[i] = beta1 * mW[i] + (1 - beta1) * gW[i]
                vW[i] = beta2 * vW[i] + (1 - beta2) * gW[i] ** 2
                mb[i] = beta1 * mb[i] + (1 - beta1) * gb[i]
                vb[i] = beta2 * vb[i] + (1 - beta2) * gb[i] ** 2
                self._weights[i] -= (
                    self.learning_rate
                    * (mW[i] / corr1)
                    / (np.sqrt(vW[i] / corr2) + eps)
                )
                self._biases[i] -= (
                    self.learning_rate
                    * (mb[i] / corr1)
                    / (np.sqrt(vb[i] / corr2) + eps)
                )
        epoch_loss /= n
        self.loss_curve_.append(epoch_loss)
        if epoch_loss < best_loss - self.tol:
            best_loss = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= self.patience:
                break


def reference_regressor_fit(self, X, y):
    """Per-array ``MLPRegressor.fit``, Adam interleaved with backprop."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    self._y_mean = float(y.mean())
    self._y_scale = float(y.std()) or 1.0
    yz = (y - self._y_mean) / self._y_scale

    rng = np.random.default_rng(self.seed)
    sizes = [d, *self.hidden_layers, 1]
    self._weights = []
    self._biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        self._weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        self._biases.append(np.zeros(fan_out))

    _, dact = _ACTIVATIONS[self.activation]
    mW = [np.zeros_like(W) for W in self._weights]
    vW = [np.zeros_like(W) for W in self._weights]
    mb = [np.zeros_like(b) for b in self._biases]
    vb = [np.zeros_like(b) for b in self._biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    batch = min(self.batch_size, n)
    best_loss = np.inf
    stale = 0
    self.loss_curve_ = []
    for _epoch in range(self.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            acts = _forward(self, X[idx], softmax=False)
            pred = acts[-1][:, 0]
            err = pred - yz[idx]
            epoch_loss += float(err @ err)
            delta = (err / len(idx))[:, None]
            step += 1
            corr1 = 1.0 - beta1**step
            corr2 = 1.0 - beta2**step
            for i in range(len(self._weights) - 1, -1, -1):
                gW = acts[i].T @ delta + self.l2 * self._weights[i]
                gb = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ self._weights[i].T) * dact(acts[i])
                mW[i] = beta1 * mW[i] + (1 - beta1) * gW
                vW[i] = beta2 * vW[i] + (1 - beta2) * gW**2
                mb[i] = beta1 * mb[i] + (1 - beta1) * gb
                vb[i] = beta2 * vb[i] + (1 - beta2) * gb**2
                self._weights[i] -= (
                    self.learning_rate
                    * (mW[i] / corr1)
                    / (np.sqrt(vW[i] / corr2) + eps)
                )
                self._biases[i] -= (
                    self.learning_rate
                    * (mb[i] / corr1)
                    / (np.sqrt(vb[i] / corr2) + eps)
                )
        epoch_loss /= n
        self.loss_curve_.append(epoch_loss)
        if epoch_loss < best_loss - self.tol:
            best_loss = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= self.patience:
                break
    self._fitted = True
    return self


def use_reference(monkeypatch) -> None:
    """Make both MLPs train with the per-array reference loops."""
    monkeypatch.setattr(MLPClassifier, "_train_loop", reference_train_loop)
    monkeypatch.setattr(MLPRegressor, "fit", reference_regressor_fit)


def assert_same_network(a, b) -> None:
    """Bit-identical weights, biases and loss curves."""
    assert len(a._weights) == len(b._weights)
    for wa, wb in zip(a._weights, b._weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a._biases, b._biases):
        assert np.array_equal(ba, bb)
    assert np.array_equal(np.asarray(a.loss_curve_), np.asarray(b.loss_curve_))
