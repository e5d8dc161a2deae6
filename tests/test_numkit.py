import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fednoise.errors import ContractViolation, TrainingDiverged
from fednoise.numkit import (
    ModelParams,
    cosine_similarity,
    _softmax_and_log,
    init_params,
    mlp_backward,
    mlp_features,
    mlp_forward,
    sgd_step,
)


def tiny_params(rng, d_in=3, d_h=4, C=3) -> ModelParams:
    return init_params(d_in, d_h, C, rng)


def test_softmax_rows_sum_to_one(rng):
    z = rng.normal(size=(8, 5)) * 10
    p, _ = _softmax_and_log(z)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p >= 0).all()


def test_softmax_shift_invariant(rng):
    z = rng.normal(size=(4, 6))
    np.testing.assert_allclose(_softmax_and_log(z)[0], _softmax_and_log(z + 1000.0)[0], atol=1e-12)


def test_log_softmax_finite_for_extreme_logits():
    z = np.array([[1e4, 0.0, -1e4], [-1e4, -1e4, -1e4]])
    _, lp = _softmax_and_log(z)
    assert np.isfinite(lp).all()
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-12)


def test_log_softmax_matches_softmax(rng):
    z = rng.normal(size=(5, 4))
    p, lp = _softmax_and_log(z)
    np.testing.assert_allclose(np.exp(lp), p, atol=1e-12)


def test_init_params_shapes_and_zero_biases(rng):
    p = init_params(7, 5, 3, rng)
    assert p.W1.shape == (7, 5) and p.b1.shape == (5,)
    assert p.W2.shape == (5, 3) and p.b2.shape == (3,)
    assert (p.b1 == 0).all() and (p.b2 == 0).all()


def test_init_params_deterministic():
    from fednoise.seeds import STREAM_INIT, make_rng

    a = init_params(6, 4, 3, make_rng(9, STREAM_INIT))
    b = init_params(6, 4, 3, make_rng(9, STREAM_INIT))
    np.testing.assert_array_equal(a.W1, b.W1)
    np.testing.assert_array_equal(a.W2, b.W2)


def test_params_are_views_of_one_vector(rng):
    p = tiny_params(rng)
    assert p.theta.shape == (3 * 4 + 4 + 4 * 3 + 3,)
    flat = np.concatenate([p.W1.ravel(), p.b1, p.W2.ravel(), p.b2])
    np.testing.assert_array_equal(p.theta, flat)
    for block in (p.W1, p.b1, p.W2, p.b2):
        assert block.base is p.theta
    p.theta[0] = 42.0
    assert p.W1[0, 0] == 42.0
    p.b2[-1] = -7.0
    assert p.theta[-1] == -7.0
    p.W2[...] = 0.5
    assert p.W2.base is p.theta and (p.W2 == 0.5).all()
    with pytest.raises(AttributeError):
        p.W2 = 0.5  # a block cannot be detached from theta
    # sgd_step writes the same two buffers it was given and allocates no
    # new parameter or velocity buffer.
    theta, velocity = p.theta, np.zeros_like(p.theta)
    before = theta.copy()
    grads = rng.normal(size=theta.shape)
    assert sgd_step(p, grads, velocity, lr=0.1, momentum=0.5, weight_decay=0.1) is None
    assert p.theta is theta
    assert all(block.base is theta for block in (p.W1, p.b1, p.W2, p.b2))
    assert not np.array_equal(velocity, 0.0)
    np.testing.assert_array_equal(p.theta, before - 0.1 * velocity)


def test_forward_hand_computed():
    # Single example through a 2-2-2 net with fixed round-number weights.
    p = ModelParams.zeros(2, 2, 2)
    p.W1[...] = [[1.0, 0.0], [0.0, -1.0]]
    p.b1[...] = [0.5, 0.5]
    p.W2[...] = [[2.0, 0.0], [0.0, 2.0]]
    p.b2[...] = [0.0, 1.0]
    X = np.array([[1.0, 2.0]])
    rec = mlp_forward(p, X)
    h0 = math.tanh(1.0 + 0.5)
    h1 = math.tanh(-2.0 + 0.5)
    np.testing.assert_allclose(rec.hidden, [[h0, h1]], atol=1e-15)
    z0, z1 = 2 * h0, 2 * h1 + 1
    np.testing.assert_allclose(rec.hidden @ p.W2 + p.b2, [[z0, z1]], atol=1e-15)
    e = np.exp([z0, z1] - np.max([z0, z1]))
    np.testing.assert_allclose(rec.probs, (e / e.sum())[None, :], atol=1e-15)


def test_forward_dim_mismatch():
    p = ModelParams.zeros(3, 2, 2)
    with pytest.raises(ContractViolation):
        mlp_forward(p, np.zeros((4, 5)))
    with pytest.raises(ContractViolation):
        mlp_features(p, np.zeros((4, 5)))


def test_forward_record_fields_are_the_standalone_bits(rng):
    # The training loop reads logp off the record instead of recomputing
    # it, and the post-step pass asks for the features alone; both must
    # be the bits the standalone functions give.
    p = tiny_params(rng, 4, 5, 3)
    X = rng.normal(size=(7, 4)) * 10.0
    rec = mlp_forward(p, X)
    probs, logp = _softmax_and_log(rec.hidden @ p.W2 + p.b2)
    np.testing.assert_array_equal(rec.logp, logp)
    np.testing.assert_array_equal(rec.probs, probs)
    np.testing.assert_array_equal(mlp_features(p, X), rec.hidden)


def test_backward_matches_finite_differences_on_ce(rng):
    # Oracle: central differences of the mean cross-entropy, every coordinate.
    B, d_in, d_h, C = 5, 3, 4, 3
    p = tiny_params(rng, d_in, d_h, C)
    X = rng.normal(size=(B, d_in))
    y = rng.integers(0, C, size=B)

    def loss(q: ModelParams) -> float:
        r = mlp_forward(q, X)
        return float(-r.logp[np.arange(B), y].mean())

    rec = mlp_forward(p, X)
    onehot = np.zeros((B, C))
    onehot[np.arange(B), y] = 1.0
    grads = mlp_backward(p, X, rec, (rec.probs - onehot) / B, np.zeros((B, d_h)))

    assert grads.shape == p.theta.shape
    h = 1e-6
    for i in range(p.theta.size):
        keep = p.theta[i]
        p.theta[i] = keep + h
        up = loss(p)
        p.theta[i] = keep - h
        down = loss(p)
        p.theta[i] = keep
        fd = (up - down) / (2 * h)
        assert abs(fd - grads[i]) < 1e-7 * max(1.0, abs(fd))


def test_backward_uses_hidden_partials(rng):
    # A pure feature-space objective must leave the classifier head alone.
    B, d_in, d_h, C = 4, 3, 5, 2
    p = tiny_params(rng, d_in, d_h, C)
    X = rng.normal(size=(B, d_in))
    rec = mlp_forward(p, X)
    target = rng.normal(size=(B, d_h))

    def loss(q: ModelParams) -> float:
        r = mlp_forward(q, X)
        return float(((r.hidden - target) ** 2).sum() / B)

    grads = mlp_backward(p, X, rec, np.zeros((B, C)), 2.0 * (rec.hidden - target) / B)
    gW1, _, gW2, gb2 = p.blocks(grads)
    assert (gW2 == 0).all() and (gb2 == 0).all()
    h = 1e-6
    it = np.nditer(p.W1, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        keep = p.W1[i]
        p.W1[i] = keep + h
        up = loss(p)
        p.W1[i] = keep - h
        down = loss(p)
        p.W1[i] = keep
        fd = (up - down) / (2 * h)
        assert abs(fd - gW1[i]) < 1e-7 * max(1.0, abs(fd))


def test_sgd_step_hand_computed():
    p = ModelParams.zeros(1, 1, 1)
    p.W1[0, 0] = 1.0
    g = np.zeros_like(p.theta)
    v = np.zeros_like(p.theta)
    gW1 = p.blocks(g)[0]
    vW1 = p.blocks(v)[0]
    gW1[0, 0] = 0.5
    sgd_step(p, g, v, lr=0.1, momentum=0.5, weight_decay=0.0)
    assert vW1[0, 0] == pytest.approx(0.5)
    assert p.W1[0, 0] == pytest.approx(0.95)
    gW1[0, 0] = 0.1
    sgd_step(p, g, v, lr=0.1, momentum=0.5, weight_decay=0.0)
    # v = 0.5*0.5 + 0.1 = 0.35; w = 0.95 - 0.1*0.35
    assert vW1[0, 0] == pytest.approx(0.35)
    assert p.W1[0, 0] == pytest.approx(0.915)


def test_sgd_weight_decay_skips_biases():
    p = ModelParams.zeros(2, 2, 2)
    p.W1[...] += 1.0
    p.b1[...] += 1.0
    g = np.zeros_like(p.theta)
    sgd_step(p, g, np.zeros_like(g), lr=0.1, momentum=0.0, weight_decay=0.5)
    np.testing.assert_allclose(p.W1, 1.0 - 0.1 * 0.5)
    np.testing.assert_allclose(p.b1, 1.0)


def test_sgd_step_writes_only_params_and_velocity(rng):
    p = tiny_params(rng)
    g = rng.normal(size=p.theta.shape)
    g_before = g.copy()
    v = np.zeros_like(g)
    other = p.copy()
    sgd_step(p, g, v, lr=0.1, momentum=0.5, weight_decay=0.01)
    np.testing.assert_array_equal(g, g_before)
    assert not np.array_equal(p.theta, other.theta)
    assert not np.array_equal(v, 0.0)


def test_model_params_rejects_bad_theta():
    with pytest.raises(ContractViolation):
        ModelParams(np.zeros(10), 2, 2, 2)  # 2*2 + 2 + 2*2 + 2 = 12
    with pytest.raises(ContractViolation):
        ModelParams(np.zeros(12, dtype=np.float32), 2, 2, 2)
    assert ModelParams(np.zeros(12), 2, 2, 2).W2.shape == (2, 2)


def test_sgd_rejects_bad_hyperparams(rng):
    p = tiny_params(rng)
    g = np.zeros_like(p.theta)
    with pytest.raises(ContractViolation):
        sgd_step(p, g, np.zeros_like(g), lr=0.0, momentum=0.5, weight_decay=0.0)
    with pytest.raises(ContractViolation):
        sgd_step(p, g, np.zeros_like(g), lr=0.1, momentum=1.0, weight_decay=0.0)
    with pytest.raises(ContractViolation):
        sgd_step(p, g, np.zeros(3), lr=0.1, momentum=0.5, weight_decay=0.0)


def test_sgd_diverged_gradient(rng):
    p = tiny_params(rng)
    before = p.theta.copy()
    g = np.zeros_like(p.theta)
    p.blocks(g)[2][0, 0] = np.nan
    with pytest.raises(TrainingDiverged):
        sgd_step(p, g, np.zeros_like(g), lr=0.1, momentum=0.5, weight_decay=0.0)
    np.testing.assert_array_equal(p.theta, before)


def test_copy_is_independent(rng):
    p = tiny_params(rng)
    q = p.copy()
    np.testing.assert_array_equal(q.theta, p.theta)
    q.W1[...] += 1.0
    assert not np.allclose(q.W1, p.W1)
    np.testing.assert_array_equal(q.theta[: q.W1.size], q.W1.ravel())


@pytest.mark.parametrize(
    "clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_copied_params_keep_their_views(rng, clone):
    p = tiny_params(rng)
    q = clone(p)
    np.testing.assert_array_equal(q.theta, p.theta)
    assert (q.d_in, q.d_h, q.n_classes) == (p.d_in, p.d_h, p.n_classes)
    assert not np.shares_memory(q.theta, p.theta)
    assert all(block.base is q.theta for block in (q.W1, q.b1, q.W2, q.b2))
    q.theta[0] = 42.0
    assert q.W1[0, 0] == 42.0 and p.W1[0, 0] != 42.0


def test_cosine_basic_directions():
    u = np.array([1.0, 0.0])
    assert cosine_similarity(u, np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert cosine_similarity(u, np.array([-3.0, 0.0])) == pytest.approx(-1.0)
    assert cosine_similarity(u, np.array([0.0, 5.0])) == pytest.approx(0.0)
    assert cosine_similarity(u, np.zeros(2)) == 0.0


def test_cosine_shape_mismatch():
    for u, v in [
        (np.zeros(2), np.zeros(3)),  # 1-D, last axes differ
        (np.zeros((4, 2)), np.zeros((3, 3))),  # rows, last axes differ
        (np.zeros(2), np.zeros((3, 2))),  # a vector against rows
        (np.float64(1.0), np.float64(1.0)),  # no axis at all
    ]:
        with pytest.raises(ContractViolation):
            cosine_similarity(u, v)


def scalar_cosine(u, v):
    """The scalar cosine the row-wise helper replaced."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return float(u @ v) / (nu * nv)


def _rows(draw, shape):
    rows = draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    # Zero rows and rows below the zero-norm threshold.
    rows[draw(arrays(np.bool_, shape[:-1]))] = 0.0
    rows[draw(arrays(np.bool_, shape[:-1]))] *= 1e-14
    return rows


@given(st.data())
def test_cosine_vector_call_bit_equals_scalar(data):
    d = data.draw(st.integers(1, 80))
    u, v = _rows(data.draw, (2, d))
    assert isinstance(cosine_similarity(u, v), float)
    assert cosine_similarity(u, v) == scalar_cosine(u, v)


@given(st.data())
def test_cosine_row_wise_layouts_bit_equal_vector_calls(data):
    C, d, K = (data.draw(st.integers(1, hi)) for hi in (6, 80, 10))
    P, F = _rows(data.draw, (C, d)), _rows(data.draw, (C, d))
    U = _rows(data.draw, (K, C, d))
    # blend_with_global: class c of one set against class c of another.
    got = cosine_similarity(P[:, None, :], F[:, None, :])
    assert got.shape == (C, 1, 1)
    assert np.array_equal(got[:, 0, 0], [cosine_similarity(P[c], F[c]) for c in range(C)])
    # aggregate_global_centroids: class c of the previous set against
    # class c of each of K uploads.
    got = cosine_similarity(P[:, None, :], U[:, :, None, :])
    assert got.shape == (K, C, 1, 1)
    want = [[cosine_similarity(P[c], U[k, c]) for c in range(C)] for k in range(K)]
    assert np.array_equal(got[..., 0, 0], want)


def test_cosine_row_wise_bit_equal_at_wide_rows(rng):
    for d in (64, 784, 1000):
        P, F = rng.normal(size=(2, 10, d))
        got = cosine_similarity(P[:, None, :], F[:, None, :])[:, 0, 0]
        assert np.array_equal(got, [scalar_cosine(p, f) for p, f in zip(P, F)])


def test_cosine_all_pairs_matches_vector_calls(rng):
    U, V = rng.normal(size=(7, 5)), rng.normal(size=(3, 5))
    V[1] = 0.0
    got = cosine_similarity(U, V)
    assert got.shape == (7, 3)
    want = [[scalar_cosine(u, v) for v in V] for u in U]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(got[:, 1], 0.0)


def test_cosine_zero_norm_gives_zero_and_nan_gives_nan():
    U = np.array([[0.0, 0.0], [1e-13, 0.0], [3.0, 4.0], [np.nan, 1.0]])
    V = np.array([[3.0, 4.0], [0.0, 0.0]])
    got = cosine_similarity(U, V)
    np.testing.assert_array_equal(got[:2], 0.0)  # a zero-norm row
    np.testing.assert_array_equal(got[:3, 1], 0.0)  # against a zero-norm row
    assert got[2, 0] == 1.0
    assert np.isnan(got[3]).all()  # never a silent 0, even against a zero row
    assert np.isnan(cosine_similarity(U[3], V[0])) and np.isnan(cosine_similarity(U[3], V[1]))
    assert cosine_similarity(U[0], V[0]) == 0.0


@given(
    arrays(np.float64, 4, elements=st.floats(-1e6, 1e6)),
    arrays(np.float64, 4, elements=st.floats(-1e6, 1e6)),
)
def test_cosine_bounded_and_symmetric(u, v):
    s = cosine_similarity(u, v)
    assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9
    assert s == pytest.approx(cosine_similarity(v, u), abs=1e-12)
