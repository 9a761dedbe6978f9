"""Perception model: a small feed-forward softmax classifier.

Maps raw fixed-length feature vectors to distributions over symbolic values
and is trained by SGD on pseudo-labels coming out of abduction.  Backprop is
hand-rolled on numpy; grad_check verifies it against central finite
differences.  fit runs each mini-batch as one fused step over flat parameter,
velocity and gradient buffers; grads() followed by _step() is its reference,
and the tests hold fit to it bit for bit.  PairModel wraps a 2-class net into
an antisymmetric scorer for the dyadic ordering relation.
"""

from __future__ import annotations

import struct
from typing import Iterable, Optional

import numpy as np

_MAGIC = b"ABDM"
_VERSION = 1


class PerceptionError(ValueError):
    pass


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class MLP:
    """One hidden rectifier layer, softmax output, SGD with momentum."""

    def __init__(
        self,
        n_in: int,
        n_classes: int,
        hidden: int = 64,
        seed: int = 0,
        lr: float = 0.05,
        momentum: float = 0.9,
    ):
        if n_in < 1 or n_classes < 2 or hidden < 1:
            raise PerceptionError("bad layer dimensions")
        self.n_in, self.n_classes, self.hidden = n_in, n_classes, hidden
        self.lr, self.momentum = lr, momentum
        rng = np.random.default_rng(seed)
        W1 = self._glorot(rng, n_in, hidden)
        W2 = self._glorot(rng, hidden, n_classes)
        # one flat buffer each for the parameters and their velocities, in the
        # order of params(); W1, b1, W2, b2 and _vel are views of them
        self._theta = np.concatenate([W1.ravel(), np.zeros(hidden), W2.ravel(), np.zeros(n_classes)])
        self._velocity = np.zeros_like(self._theta)
        self._bind()
        self._rng = np.random.default_rng(seed + 0x5EED)

    @staticmethod
    def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    def _views(self, flat: np.ndarray) -> "list[np.ndarray]":
        """W1, b1, W2, b2 shapes laid over one flat buffer."""
        a = self.n_in * self.hidden
        b = a + self.hidden
        c = b + self.hidden * self.n_classes
        return [
            flat[:a].reshape(self.n_in, self.hidden),
            flat[a:b],
            flat[b:c].reshape(self.hidden, self.n_classes),
            flat[c:],
        ]

    def _bind(self) -> None:
        self.W1, self.b1, self.W2, self.b2 = self._views(self._theta)
        self._vel = self._views(self._velocity)

    # a copy or an unpickled model rebuilds its views over its own buffers
    def __getstate__(self):
        state = dict(self.__dict__)
        for name in ("W1", "b1", "W2", "b2", "_vel"):
            del state[name]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind()

    def params(self) -> "list[np.ndarray]":
        return [self.W1, self.b1, self.W2, self.b2]

    # -- forward --------------------------------------------------------------

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_in:
            raise PerceptionError(f"input dim {X.shape[1]} != model dim {self.n_in}")
        return X

    def _forward(self, X: np.ndarray):
        h = np.maximum(X @ self.W1 + self.b1, 0.0)
        return h, h @ self.W2 + self.b2

    def predict(self, x) -> np.ndarray:
        """Class distribution(s); a vector in gives a vector out."""
        single = np.asarray(x).ndim == 1
        X = self._check(x)
        probs = _softmax(self._forward(X)[1])
        return probs[0] if single else probs

    def log_probs(self, x) -> np.ndarray:
        single = np.asarray(x).ndim == 1
        X = self._check(x)
        lp = _log_softmax(self._forward(X)[1])
        return lp[0] if single else lp

    def predict_label(self, x):
        """Argmax class; an int for one sample, an array for a batch."""
        out = np.argmax(self.predict(self._check(x)), axis=-1)
        return int(out[0]) if np.asarray(x).ndim == 1 else out

    # -- loss and gradients ----------------------------------------------------

    def loss(self, X, y) -> float:
        X = self._check(X)
        y = np.asarray(y, dtype=int)
        lp = _log_softmax(self._forward(X)[1])
        return float(-lp[np.arange(len(X)), y].sum() / len(X))

    def grads(self, X, y):
        X = self._check(X)
        y = np.asarray(y, dtype=int)
        if (y < 0).any() or (y >= self.n_classes).any():
            raise PerceptionError("label out of range")
        h, logits = self._forward(X)
        delta = _softmax(logits)
        delta[np.arange(len(X)), y] -= 1.0
        delta *= 1.0 / len(X)
        gW2 = h.T @ delta
        gb2 = delta.sum(axis=0)
        dh = (delta @ self.W2.T) * (h > 0)
        gW1 = X.T @ dh
        gb1 = dh.sum(axis=0)
        return [gW1, gb1, gW2, gb2]

    def _step(self, grads) -> None:
        for p, v, g in zip(self.params(), self._vel, grads):
            v *= self.momentum
            v -= self.lr * g
            p += v

    def fit(
        self,
        X,
        y,
        epochs: int = 1,
        batch_size: Optional[int] = None,
    ) -> float:
        """Mini-batch SGD on mean cross-entropy; returns the final loss.

        Each step is grads() then _step(), fused: the passes write into
        buffers made once per fit, the gradients into one flat buffer laid
        out as the parameters, and the momentum update is four whole-buffer
        operations.  Every float operation is one those two calls make, in
        their order, so the weights come out bit for bit as theirs.  Labels
        are checked before the first step: a rejected fit changes nothing.
        """
        X = self._check(X)
        y = np.asarray(y, dtype=int)
        n, k = len(X), self.n_classes
        if n == 0:
            raise PerceptionError("empty batch")
        if y.shape != (n,):
            raise PerceptionError(f"{y.size} labels for {n} rows")
        if (y < 0).any() or (y >= k).any():
            raise PerceptionError("label out of range")
        bs = n if batch_size is None else min(max(1, batch_size), n)
        # grads() subtracts 1.0 at each row's label; subtracting the one-hot
        # row also subtracts 0.0 elsewhere, which leaves every entry's bits
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0

        def buffers(m: int):  # h, dh, live (h > 0 as 1.0 or 0.0), out, row stat, 1 / m
            hid = (m, self.hidden)
            return np.empty(hid), np.empty(hid), np.empty(hid), np.empty((m, k)), np.empty((m, 1)), 1.0 / m

        full = buffers(bs)
        last = buffers(n % bs) if n % bs else full
        # each epoch's rows and targets in its order; a mini-batch is a slice
        X_ord, T_ord = np.empty((n, self.n_in)), np.empty((n, k))
        grad = np.empty_like(self._theta)
        gW1, gb1, gW2, gb2 = self._views(grad)
        W1, b1, W2, b2 = self.params()
        W2T = W2.T
        theta, vel, lr, momentum = self._theta, self._velocity, self.lr, self.momentum
        for _ in range(epochs):
            order = self._rng.permutation(n)
            X.take(order, axis=0, out=X_ord)
            onehot.take(order, axis=0, out=T_ord)
            for start in range(0, n, bs):
                x, t = X_ord[start : start + bs], T_ord[start : start + bs]
                h, dh, live, d, top, scale = full if len(x) == bs else last
                # forward: h = relu(x W1 + b1), d = softmax(h W2 + b2)
                np.matmul(x, W1, out=h)
                np.add(h, b1, out=h)
                np.maximum(h, 0.0, out=h)
                np.matmul(h, W2, out=d)
                np.add(d, b2, out=d)
                np.maximum.reduce(d, axis=1, keepdims=True, out=top)
                np.subtract(d, top, out=d)
                np.exp(d, out=d)
                np.add.reduce(d, axis=1, keepdims=True, out=top)
                np.divide(d, top, out=d)
                # backward: d becomes the output error over the batch mean
                np.subtract(d, t, out=d)
                np.multiply(d, scale, out=d)
                np.matmul(h.T, d, out=gW2)
                np.add.reduce(d, axis=0, out=gb2)
                np.matmul(d, W2T, out=dh)
                np.greater(h, 0, out=live)
                np.multiply(dh, live, out=dh)
                np.matmul(x.T, dh, out=gW1)
                np.add.reduce(dh, axis=0, out=gb1)
                # _step over all four parameters at once
                np.multiply(vel, momentum, out=vel)
                np.multiply(grad, lr, out=grad)
                np.subtract(vel, grad, out=vel)
                np.add(theta, vel, out=theta)
        final = self.loss(X, y)
        if not np.isfinite(final) or not np.isfinite(theta).all():
            raise PerceptionError(
                f"training diverged: loss={final}, lr={self.lr}; reduce the step size"
            )
        return final

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack(">IIII", _VERSION, self.n_in, self.hidden, self.n_classes))
            f.write(struct.pack(">dd", self.lr, self.momentum))
            f.write(self._theta.astype(">f8").tobytes())  # W1, b1, W2, b2 in order

    @classmethod
    def load(cls, path) -> "MLP":
        with open(path, "rb") as f:
            raw = f.read()
        if raw[:4] != _MAGIC:
            raise PerceptionError(f"{path}: not a model checkpoint (bad magic)")
        if len(raw) < 36:
            raise PerceptionError(f"{path}: truncated checkpoint")
        version, n_in, hidden, k = struct.unpack(">IIII", raw[4:20])
        if version != _VERSION:
            raise PerceptionError(f"{path}: unsupported checkpoint version {version}")
        # the header's sizes are checked against the file before any layer is built
        size = 36 + 8 * (n_in * hidden + hidden + hidden * k + k)
        if len(raw) != size:
            raise PerceptionError(f"{path}: {'truncated' if len(raw) < size else 'trailing bytes in'} checkpoint")
        lr, momentum = struct.unpack(">dd", raw[20:36])
        model = cls(n_in, k, hidden=hidden, lr=lr, momentum=momentum)
        model._theta[...] = np.frombuffer(raw, dtype=">f8", offset=36)
        return model


def grad_check(model: MLP, x, y, n_samples: int = 24, step: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between backprop and central differences."""
    X = model._check(x)
    y = np.asarray(y, dtype=int).reshape(-1)
    rng = np.random.default_rng(seed)
    analytic = model.grads(X, y)
    worst = 0.0
    params = model.params()
    for _ in range(max(n_samples, 20)):
        pi = rng.integers(len(params))
        flat = params[pi].reshape(-1)
        j = rng.integers(flat.size)
        keep = flat[j]
        flat[j] = keep + step
        up = model.loss(X, y)
        flat[j] = keep - step
        down = model.loss(X, y)
        flat[j] = keep
        numeric = (up - down) / (2 * step)
        a = analytic[pi].reshape(-1)[j]
        denom = max(abs(a) + abs(numeric), 1e-8)
        worst = max(worst, abs(a - numeric) / denom)
    return worst


def pretrain_few_shot(model: MLP, X, y, epochs: int = 200) -> float:
    """Fit on exactly one labeled instance per class."""
    y = np.asarray(y, dtype=int)
    if sorted(y.tolist()) != list(range(model.n_classes)):
        raise PerceptionError("few-shot pretraining needs exactly one example per class")
    return model.fit(X, y, epochs=epochs)


class PairModel:
    """Antisymmetric pairwise scorer built on a 2-class net.

    Only the canonically ordered pair (smaller content bytes first) is ever
    shown to the network; the other orientation is the complement, so
    p(a,b) + p(b,a) = 1 holds exactly and a self-pair scores 0.5.
    predict_pairs reads many pairs from one forward; predict_pair is its
    one-pair case.
    """

    def __init__(self, n_in: int, hidden: int = 64, seed: int = 0, lr: float = 0.05, momentum: float = 0.9):
        self.n_in = n_in
        self.net = MLP(2 * n_in, 2, hidden=hidden, seed=seed, lr=lr, momentum=momentum)

    @staticmethod
    def _key(a: np.ndarray) -> bytes:
        return np.ascontiguousarray(a, dtype=float).tobytes()

    def _canonical(self, a, b):
        """(first, second, swapped)."""
        return (a, b, False) if self._key(a) <= self._key(b) else (b, a, True)

    def predict_pair(self, a, b) -> float:
        return self.predict_pairs((a, b), ((0, 1),))[0]

    def predict_pairs(self, features, pairs) -> "list[float]":
        """p(a, b) for each index pair (a, b) into the rows of features.

        Each unordered pair of distinct contents is one row of a single
        forward, in canonical order; that orientation reads p and the other
        1 - p.  Equal contents read 0.5 and add no row.
        """
        X = np.asarray(features, dtype=float)
        keys = [self._key(x) for x in X]
        rows: "dict[tuple[int, int], int]" = {}  # canonical (first, second) -> row
        plan = []  # per pair: (row, swapped), or None for equal contents
        for a, b in pairs:
            if keys[a] == keys[b]:
                plan.append(None)
            elif keys[a] < keys[b]:
                plan.append((rows.setdefault((a, b), len(rows)), False))
            else:
                plan.append((rows.setdefault((b, a), len(rows)), True))
        p = []
        if rows:
            first, second = zip(*rows)
            p = self.net.predict(np.concatenate([X[list(first)], X[list(second)]], axis=1))[:, 1].tolist()
        return [0.5 if q is None else 1.0 - p[q[0]] if q[1] else p[q[0]] for q in plan]

    def fit_pairs(self, pairs: Iterable[tuple], epochs: int = 1, batch_size: Optional[int] = None) -> float:
        """pairs: (a, b, truth) triples; orientation is normalized here."""
        rows, labels = [], []
        size = 8 * self.n_in  # bytes of one side's float64 features
        for a, b, truth in pairs:
            ka, kb = self._key(a), self._key(b)
            if len(ka) != size or len(kb) != size:
                raise PerceptionError(f"pair features must have {self.n_in} values a side")
            if ka == kb:
                continue  # a self-pair carries no orientation signal
            swapped = kb < ka  # as _canonical orients the pair
            rows.append(kb + ka if swapped else ka + kb)
            labels.append(int(truth) ^ swapped)
        if not rows:
            return float("nan")
        X = np.frombuffer(b"".join(rows), dtype=float).reshape(len(rows), -1)
        return self.net.fit(X, np.array(labels), epochs=epochs, batch_size=batch_size)

    def save(self, path) -> None:
        self.net.save(path)

    @classmethod
    def load(cls, path) -> "PairModel":
        net = MLP.load(path)
        if net.n_in % 2 or net.n_classes != 2:
            raise PerceptionError(f"{path}: not a pair model (odd input dim or not 2 outputs)")
        out = cls.__new__(cls)
        out.n_in = net.n_in // 2
        out.net = net
        return out
