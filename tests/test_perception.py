"""Perception model tests: forward pass, backprop vs finite differences,
antisymmetric pair wrapper, checkpoint format."""

import copy
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdlearn.perception import (
    MLP,
    PairModel,
    PerceptionError,
    _log_softmax,
    _softmax,
    grad_check,
    pretrain_few_shot,
)


def toy_digits(rng, k=10, d=8, n_per=20, noise=0.05):
    protos = rng.uniform(0.2, 0.8, size=(k, d))
    X, y = [], []
    for c in range(k):
        for _ in range(n_per):
            X.append(np.clip(protos[c] + rng.normal(0, noise, d), 0, 1))
            y.append(c)
    return np.array(X), np.array(y), protos


def test_predict_normalizes():
    model = MLP(8, 10, seed=1)
    X = np.random.default_rng(0).uniform(size=(40, 8))
    probs = model.predict(X)
    assert probs.shape == (40, 10)
    assert np.all(probs >= 0)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_zero_weight_model_is_uniform():
    model = MLP(5, 4, seed=0)
    for p in model.params():
        p[...] = 0.0
    probs = model.predict(np.ones(5))
    assert np.abs(probs - 0.25).max() < 1e-12


def test_dimension_mismatch_rejected():
    model = MLP(5, 4)
    with pytest.raises(PerceptionError):
        model.predict(np.ones(6))


def test_fit_separable_toy():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(80, 2))
    y = (X[:, 0] > 0.5).astype(int)
    model = MLP(2, 2, seed=3)
    model.fit(X, y, epochs=200)
    acc = (model.predict_label(X) == y).mean()
    assert acc >= 0.95


def test_fit_memorizes_single_example():
    model = MLP(4, 3, seed=0)
    x = np.array([0.1, 0.9, 0.3, 0.7])
    model.fit(x[None, :], [2], epochs=300)
    assert model.predict(x)[2] > 0.99


def test_full_batch_descent():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(30, 6))
    y = rng.integers(0, 4, size=30)
    model = MLP(6, 4, seed=7, lr=0.01, momentum=0.0)
    before = model.loss(X, y)
    model.fit(X, y, epochs=1)
    assert model.loss(X, y) <= before


def _unit_weight_loss(model, X, y):
    """Reference: cross-entropy under per-sample weights, all one, divided by their sum."""
    w = np.ones(len(X))
    lp = _log_softmax(model._forward(X)[1])
    return float(-(w * lp[np.arange(len(X)), y]).sum() / w.sum())


def _unit_weight_grads(model, X, y):
    """Reference backward pass: the output error scaled row by row by w / w.sum()."""
    w = np.ones(len(X))
    h, logits = model._forward(X)
    delta = _softmax(logits)
    delta[np.arange(len(X)), y] -= 1.0
    delta *= (w / w.sum())[:, None]
    dh = (delta @ model.W2.T) * (h > 0)
    return [X.T @ dh, dh.sum(axis=0), h.T @ delta, delta.sum(axis=0)]


def test_mean_loss_and_grads_match_unit_weights_bit_for_bit():
    rng = np.random.default_rng(2024)
    for case in range(150):
        n_in, k, hidden, n = (int(v) for v in rng.integers((1, 2, 1, 1), (13, 11, 17, 41)))
        model = MLP(n_in, k, hidden=hidden, seed=case)
        X = rng.normal(size=(n, n_in))
        y = rng.integers(0, k, size=n)
        assert model.loss(X, y) == _unit_weight_loss(model, X, y)
        for got, want in zip(model.grads(X, y), _unit_weight_grads(model, X, y)):
            assert np.array_equal(got, want)


def test_fit_steps_match_unit_weight_reference():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(23, 6))
    y = rng.integers(0, 4, size=23)
    fitted, stepped = MLP(6, 4, seed=3), MLP(6, 4, seed=3)
    fitted.fit(X, y, epochs=4, batch_size=5)
    for _ in range(4):  # fit's own loop, on the reference gradients
        order = stepped._rng.permutation(len(X))
        for start in range(0, len(X), 5):
            idx = order[start : start + 5]
            stepped._step(_unit_weight_grads(stepped, X[idx], y[idx]))
    for a, b in zip(fitted.params(), stepped.params()):
        assert np.array_equal(a, b)


def _reference_fit(model, X, y, epochs, batch_size):
    """fit's loop, on the reference gradients and _step."""
    bs = len(X) if batch_size is None else batch_size
    for _ in range(epochs):
        order = model._rng.permutation(len(X))
        for start in range(0, len(X), bs):
            idx = order[start : start + bs]
            model._step(_unit_weight_grads(model, X[idx], y[idx]))
    return model.loss(X, y)


def _state(model):
    return [p.copy() for p in model.params() + model._vel]


def _equal(xs, ys):
    return all(np.array_equal(p, q) for p, q in zip(xs, ys))


def _same_state(a, b):
    return _equal(_state(a), _state(b))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fit_matches_reference_steps_over_shapes(data):
    n_in, k = data.draw(st.integers(1, 12)), data.draw(st.integers(2, 10))
    hidden, n = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 40))
    batch_size = data.draw(
        st.one_of(
            st.none(),
            st.just(1),
            st.integers(n + 1, n + 8),  # larger than n: one batch
            st.integers(1, n).filter(lambda b: n % b),  # a short last batch
            st.integers(1, n),
        )
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, n_in)) * data.draw(st.sampled_from([0.1, 1.0, 4.0]))
    y = rng.integers(0, k, size=n)
    seed = data.draw(st.integers(0, 1000))
    fitted, stepped = MLP(n_in, k, hidden=hidden, seed=seed), MLP(n_in, k, hidden=hidden, seed=seed)
    for _ in range(2):  # the second fit starts from the first's velocities
        epochs = data.draw(st.integers(1, 3))
        got = fitted.fit(X, y, epochs=epochs, batch_size=batch_size)
        assert got == _reference_fit(stepped, X, y, epochs, batch_size)
        assert _same_state(fitted, stepped)
        fitted.lr *= 0.9
        stepped.lr *= 0.9


def test_out_of_range_label_leaves_the_model_untouched():
    rng = np.random.default_rng(19)
    X = rng.uniform(size=(40, 6))
    y = rng.integers(0, 10, size=40)
    model = MLP(6, 10, seed=19)
    model.fit(X, y, epochs=1, batch_size=4)  # velocities are nonzero
    before = _state(model)
    for bad in (10, -1):
        y[-1] = bad  # the last mini-batch, or any other, holds it
        with pytest.raises(PerceptionError):
            model.fit(X, y, epochs=2, batch_size=4)
        assert _equal(before, _state(model))


def _copies(obj):
    return [copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]


def test_copied_model_fits_as_the_original_and_apart_from_it():
    rng = np.random.default_rng(31)
    X = rng.uniform(size=(30, 8))
    y = rng.integers(0, 10, size=30)
    original = MLP(8, 10, seed=31)
    original.fit(X, y, epochs=2, batch_size=7)  # velocities are nonzero
    before = _state(original)
    twins = _copies(original)
    losses = [twin.fit(X, y, epochs=3, batch_size=7) for twin in twins]
    assert _equal(before, _state(original))
    assert losses == [original.fit(X, y, epochs=3, batch_size=7)] * 2
    assert all(_same_state(twin, original) for twin in twins)


def test_copied_pair_model_fits_as_the_original_and_apart_from_it():
    rng = np.random.default_rng(37)
    X, labels, _ = toy_digits(rng, k=10, d=8, n_per=4)
    triples = [(X[i], X[j], labels[i] >= labels[j]) for i, j in rng.integers(0, len(X), size=(60, 2))]
    original = PairModel(8, seed=37)
    original.fit_pairs(triples, epochs=2, batch_size=16)
    before = _state(original.net)
    twins = _copies(original)
    losses = [twin.fit_pairs(triples, epochs=2, batch_size=16) for twin in twins]
    assert _equal(before, _state(original.net))
    assert losses == [original.fit_pairs(triples, epochs=2, batch_size=16)] * 2
    assert all(_same_state(twin.net, original.net) for twin in twins)


def test_grad_check_deployed_shapes():
    rng = np.random.default_rng(11)
    for n_in, k in ((8, 10), (16, 2), (8, 9)):
        model = MLP(n_in, k, seed=11)
        X = rng.uniform(size=(3, n_in))
        y = rng.integers(0, k, size=3)
        assert grad_check(model, X, y, n_samples=30) < 1e-4


def test_grad_check_deterministic():
    model = MLP(6, 5, seed=2)
    x = np.linspace(0, 1, 6)
    a = grad_check(model, x, [1], seed=5)
    b = grad_check(model, x, [1], seed=5)
    assert a == b


def test_label_out_of_range_rejected():
    model = MLP(4, 3)
    with pytest.raises(PerceptionError):
        model.grads(np.ones((1, 4)), [3])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_reported():
    model = MLP(3, 2, seed=0)
    model.W1[...] = np.inf
    with pytest.raises(PerceptionError):
        model.fit(np.ones((2, 3)), [0, 1], epochs=1)


def test_seeded_fit_is_bitwise_deterministic():
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(50, 8))
    y = rng.integers(0, 10, size=50)
    runs = []
    for _ in range(2):
        model = MLP(8, 10, seed=21)
        model.fit(X, y, epochs=3, batch_size=16)
        runs.append([p.copy() for p in model.params()])
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_pretrain_few_shot():
    rng = np.random.default_rng(17)
    X, y, protos = toy_digits(rng, n_per=5)
    shots_idx = [np.flatnonzero(y == c)[0] for c in range(10)]
    model = MLP(8, 10, seed=17)
    pretrain_few_shot(model, X[shots_idx], y[shots_idx], epochs=150)
    probs = model.predict(X)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    acc = (model.predict_label(X) == y).mean()
    assert acc > 0.3  # 3x the 10-class chance level
    with pytest.raises(PerceptionError):
        pretrain_few_shot(MLP(8, 10), X[shots_idx][:9], y[shots_idx][:9])


# ---------------------------------------------------------------------------
# Pair wrapper
# ---------------------------------------------------------------------------


def test_pair_antisymmetry_exact():
    pm = PairModel(4, seed=1)
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rng.uniform(size=4), rng.uniform(size=4)
        assert pm.predict_pair(a, b) + pm.predict_pair(b, a) == 1.0


def test_pair_self_is_half():
    pm = PairModel(3, seed=0)
    a = np.array([0.2, 0.4, 0.6])
    assert pm.predict_pair(a, a.copy()) == 0.5


def _ref_predict_pair(pm, a, b):
    """Reference: predict_pair's body before predict_pairs, one pair, one row."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if pm._key(a) == pm._key(b):
        return 0.5
    x, y, swapped = pm._canonical(a, b)
    p = float(pm.net.predict(np.concatenate([x, y]))[1])
    return 1.0 - p if swapped else p


def _fitted_pair_model(seed=7):
    rng = np.random.default_rng(seed)
    X, y, _ = toy_digits(rng, k=10, d=8, n_per=6)
    pm = PairModel(8, seed=seed)
    pairs = [(X[i], X[j], y[i] >= y[j]) for i, j in rng.integers(0, len(X), size=(300, 2))]
    pm.fit_pairs(pairs, epochs=3, batch_size=32)
    return pm, X


class _CountingNet:
    """Wraps a net and counts its forwards."""

    def __init__(self, net):
        self.net, self.calls = net, 0

    def predict(self, x):
        self.calls += 1
        return self.net.predict(x)


def test_predict_pairs_is_one_forward():
    pm, X = _fitted_pair_model()
    spy = pm.net = _CountingNet(pm.net)
    pairs = [(a, b) for a in range(6) for b in range(6)]
    assert len(pm.predict_pairs(X[:6], pairs)) == len(pairs)
    assert spy.calls == 1
    # every pair of equal contents: no rows, so no forward
    same = np.stack([X[0], X[1], X[0].copy()])
    assert pm.predict_pairs(same, [(0, 0), (0, 2), (2, 0), (1, 1)]) == [0.5] * 4
    assert pm.predict_pairs(X, []) == []
    assert spy.calls == 1


def test_predict_pairs_orientations_complement_bitwise():
    pm, X = _fitted_pair_model()
    pairs = [(a, b) for a in range(12) for b in range(12) if a != b]
    got = dict(zip(pairs, pm.predict_pairs(X[:12], pairs)))
    for a, b in pairs:
        if pm._key(X[a]) < pm._key(X[b]):  # (a, b) is the canonical orientation
            assert got[b, a] == 1.0 - got[a, b]


def test_predict_pairs_equal_contents_read_half():
    pm, X = _fitted_pair_model()
    feats = np.stack([X[3], X[5], X[3].copy()])
    assert pm.predict_pairs(feats, [(0, 0), (1, 1), (0, 2), (2, 0)]) == [0.5] * 4
    assert pm.predict_pairs(feats, [(0, 1)])[0] != 0.5


def test_predict_pairs_within_rounding_of_single_rows():
    pm, X = _fitted_pair_model()
    rng = np.random.default_rng(11)
    pairs = [tuple(map(int, ab)) for ab in rng.integers(0, len(X), size=(200, 2))]
    batched = pm.predict_pairs(X, pairs)
    for (a, b), p in zip(pairs, batched):
        assert abs(p - pm.predict_pair(X[a], X[b])) <= 1e-12


def test_predict_pair_matches_the_reference_bit_for_bit():
    pm, X = _fitted_pair_model()
    rng = np.random.default_rng(12)
    for a, b in rng.integers(0, len(X), size=(100, 2)):
        assert pm.predict_pair(X[a], X[b]).hex() == _ref_predict_pair(pm, X[a], X[b]).hex()
    assert pm.predict_pair(X[4], X[4].copy()) == _ref_predict_pair(pm, X[4], X[4]) == 0.5


def _reference_pair_rows(pm, pairs):
    """fit_pairs' rows and labels as _canonical orients each pair."""
    rows, labels = [], []
    for a, b, truth in pairs:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if pm._key(a) == pm._key(b):
            continue
        x, y, swapped = pm._canonical(a, b)
        rows.append(np.concatenate([x, y]))
        labels.append(int(truth) ^ int(swapped))
    return rows, labels


def _last_byte_twin(v, flip):
    """The same float64 bytes but the last (the last value's sign and top exponent bits)."""
    raw = bytearray(np.asarray(v, dtype=float).tobytes())
    raw[-1] ^= flip
    return np.frombuffer(bytes(raw))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fit_pairs_rows_match_canonical_reference(data):
    n_in = data.draw(st.integers(1, 4))
    value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324]) | st.floats(-2, 2)
    pool = [np.zeros(n_in), -np.zeros(n_in)]
    vectors = st.lists(st.lists(value, min_size=n_in, max_size=n_in), max_size=5)
    pool += [np.array(v) for v in data.draw(vectors)]
    pool += [_last_byte_twin(v, data.draw(st.sampled_from([0x80, 0x01]))) for v in pool[1:4]]
    pool += [v.copy() for v in pool]  # equal contents in other arrays
    index = st.integers(0, len(pool) - 1)
    picks = data.draw(st.lists(st.tuples(index, index, st.booleans()), min_size=1, max_size=30))
    pairs = [(pool[i], pool[j], truth) for i, j, truth in picks]
    seed, batch_size = data.draw(st.integers(0, 1000)), data.draw(st.sampled_from([None, 1, 4]))
    pm, ref = PairModel(n_in, hidden=4, seed=seed), PairModel(n_in, hidden=4, seed=seed)
    seen = []
    pm.net.fit = lambda X, y, **kw: seen.append((X, y)) or MLP.fit(pm.net, X, y, **kw)
    got = pm.fit_pairs(pairs, batch_size=batch_size)
    rows, labels = _reference_pair_rows(ref, pairs)
    if not rows:
        assert np.isnan(got) and not seen
        return
    (X, y), = seen
    assert X.tobytes() == np.stack(rows).tobytes()  # -0.0 and 0.0 apart
    assert y.tolist() == labels
    assert got == ref.net.fit(np.stack(rows), np.array(labels), batch_size=batch_size)
    assert _same_state(pm.net, ref.net)


def test_fit_pairs_rejects_sides_of_another_width():
    pm = PairModel(4, seed=0)
    before = _state(pm.net)
    for a, b in ((np.ones(3), np.zeros(5)), (np.ones(4), np.zeros(3))):
        with pytest.raises(PerceptionError):
            pm.fit_pairs([(np.zeros(4), np.ones(4), True), (a, b, True)])
    assert _equal(before, _state(pm.net))


def test_pair_training_learns_order():
    rng = np.random.default_rng(23)
    X, y, protos = toy_digits(rng, k=10, d=8, n_per=24, noise=0.03)
    pm = PairModel(8, seed=23)
    idx = rng.permutation(len(X))
    train, test = idx[:180], idx[180:]

    def pairs_of(ids, n):
        out = []
        ids = np.asarray(ids)
        while len(out) < n:
            i, j = rng.choice(ids, size=2, replace=False)
            if y[i] != y[j]:
                out.append((X[i], X[j], y[i] <= y[j]))
        return out

    pm.fit_pairs(pairs_of(train, 800), epochs=60, batch_size=64)
    test_pairs = pairs_of(test, 60)
    assert test_pairs
    correct = sum(
        ((pm.predict_pair(a, b) > 0.5) == truth) for a, b, truth in test_pairs
    )
    assert correct / len(test_pairs) >= 0.9


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(29)
    model = MLP(8, 10, seed=29, lr=0.02, momentum=0.8)
    model.fit(rng.uniform(size=(20, 8)), rng.integers(0, 10, 20), epochs=2)
    path = tmp_path / "model.bin"
    model.save(path)
    back = MLP.load(path)
    assert (back.n_in, back.hidden, back.n_classes) == (8, 64, 10)
    assert back.lr == model.lr and back.momentum == model.momentum
    for a, b in zip(model.params(), back.params()):
        assert np.array_equal(a, b)
    x = rng.uniform(size=8)
    assert np.array_equal(model.predict(x), back.predict(x))


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(PerceptionError):
        MLP.load(bad)
    model = MLP(4, 3)
    path = tmp_path / "trunc.bin"
    model.save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])
    with pytest.raises(PerceptionError):
        MLP.load(path)
    # a cut header, trailing bytes, and a header whose sizes the file cannot
    # hold (8 TiB of weights): each is refused before any layer is built
    huge = raw[:8] + struct.pack(">III", 2**20, 2**20, 3) + raw[20:]
    for cut in (raw[:10], raw + b"\x00" * 8, huge):
        path.write_bytes(cut)
        with pytest.raises(PerceptionError):
            MLP.load(path)


def test_pair_checkpoint_roundtrip(tmp_path):
    pm = PairModel(5, seed=3)
    path = tmp_path / "pair.bin"
    pm.save(path)
    back = PairModel.load(path)
    rng = np.random.default_rng(4)
    a, b = rng.uniform(size=5), rng.uniform(size=5)
    assert pm.predict_pair(a, b) == back.predict_pair(a, b)
