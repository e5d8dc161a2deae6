import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fednoise.datagen import ClientShard, Dataset, make_blobs, partition_iid
from fednoise.errors import ConfigError, ContractViolation
from fednoise.localnode import (
    CentroidSet,
    HyperParams,
    blend_with_global,
    class_mean_features,
    confident_mask,
    global_pseudo_labels,
    lambda_cen_schedule,
    local_update,
    per_example_ce,
    similarity_labels,
    small_loss_filter,
    total_loss_and_grads,
)
from fednoise.numkit import ModelParams, init_params, log_softmax_rows, mlp_backward, mlp_forward
from fednoise.seeds import make_rng


# ---------------------------------------------------------------- filtering


def brute_small_loss(losses, r_t):
    k = math.ceil(r_t * len(losses))
    ranked = sorted(range(len(losses)), key=lambda i: (losses[i], i))
    return sorted(ranked[:k])


def test_small_loss_filter_hand_case():
    losses = np.array([0.3, 0.1, 0.5, 0.1])
    np.testing.assert_array_equal(small_loss_filter(losses, 0.5), [1, 3])
    np.testing.assert_array_equal(small_loss_filter(losses, 1.0), [0, 1, 2, 3])
    # ceil(0.26 * 4) = 2: the two 0.1 ties win, lower index first.
    np.testing.assert_array_equal(small_loss_filter(losses, 0.26), [1, 3])


def test_small_loss_filter_tie_break_prefers_low_index():
    losses = np.array([0.2, 0.2, 0.2, 0.2])
    np.testing.assert_array_equal(small_loss_filter(losses, 0.5), [0, 1])


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=30),
    st.floats(0.01, 1.0),
)
def test_small_loss_filter_matches_brute_force(quantized, r_t):
    # Coarse quantization forces plenty of ties.
    losses = np.array(quantized, dtype=float) / 2.0
    got = small_loss_filter(losses, r_t)
    assert got.tolist() == brute_small_loss(losses, r_t)


def test_small_loss_filter_rejects_bad_input():
    with pytest.raises(ContractViolation):
        small_loss_filter(np.array([]), 0.5)
    with pytest.raises(ContractViolation):
        small_loss_filter(np.array([1.0]), 0.0)


def test_per_example_ce_hand_case():
    logits = np.array([[0.0, 0.0], [math.log(3.0), 0.0]])
    ce = per_example_ce(logits, np.array([0, 0]))
    assert ce[0] == pytest.approx(math.log(2.0))
    assert ce[1] == pytest.approx(math.log(4.0 / 3.0))


# ---------------------------------------------------------------- centroids


def test_class_mean_features_hand_case():
    feats = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    cents, counts = class_mean_features(feats, np.array([0, 0, 1]), np.arange(3), C=3)
    np.testing.assert_allclose(cents.vectors[0], [2.0, 3.0])
    np.testing.assert_allclose(cents.vectors[1], [5.0, 6.0])
    np.testing.assert_array_equal(cents.presence, [True, True, False])
    np.testing.assert_array_equal(counts, [2, 1, 0])
    np.testing.assert_array_equal(cents.vectors[2], [0.0, 0.0])


def test_class_mean_features_respects_selection():
    feats = np.array([[1.0], [100.0], [3.0]])
    cents, counts = class_mean_features(feats, np.array([0, 0, 0]), np.array([0, 2]), C=1)
    np.testing.assert_allclose(cents.vectors[0], [2.0])
    assert counts[0] == 2


def _cset(vectors, presence=None):
    vectors = np.asarray(vectors, dtype=float)
    if presence is None:
        presence = np.ones(len(vectors), dtype=bool)
    return CentroidSet(C=len(vectors), vectors=vectors, presence=np.asarray(presence))


def test_blend_identical_direction_adopts_fresh():
    prev = _cset([[1.0, 0.0]])
    fresh = _cset([[2.0, 0.0]])
    out = blend_with_global(prev, fresh)
    np.testing.assert_allclose(out.vectors[0], [2.0, 0.0])


def test_blend_orthogonal_keeps_prev():
    prev = _cset([[1.0, 0.0]])
    fresh = _cset([[0.0, 2.0]])
    out = blend_with_global(prev, fresh)
    np.testing.assert_allclose(out.vectors[0], [1.0, 0.0])


def test_blend_hand_computed_midpoint():
    # cos((1,0),(1,1)) = 1/sqrt(2), so the blend weight is exactly 1/2.
    prev = _cset([[1.0, 0.0]])
    fresh = _cset([[1.0, 1.0]])
    out = blend_with_global(prev, fresh)
    np.testing.assert_allclose(out.vectors[0], [1.0, 0.5], atol=1e-12)


def test_blend_presence_rules():
    prev = _cset([[1.0, 0.0], [0.0, 0.0]], presence=[True, False])
    fresh = _cset([[0.0, 0.0], [3.0, 4.0]], presence=[False, True])
    out = blend_with_global(prev, fresh)
    np.testing.assert_allclose(out.vectors[0], [1.0, 0.0])  # fresh absent: keep
    np.testing.assert_allclose(out.vectors[1], [3.0, 4.0])  # prev absent: adopt
    assert out.presence.all()


def test_blend_dim_mismatch():
    with pytest.raises(ContractViolation):
        blend_with_global(_cset([[1.0, 0.0]]), _cset([[1.0, 0.0, 0.0]]))


@given(
    arrays(np.float64, 3, elements=st.floats(-5, 5)),
    arrays(np.float64, 3, elements=st.floats(-5, 5)),
)
def test_blend_output_on_segment(p, f):
    out = blend_with_global(_cset([p]), _cset([f])).vectors[0]
    seg = f - p
    L = float(seg @ seg)
    if L < 1e-18:
        np.testing.assert_allclose(out, p, atol=1e-9)
        return
    w = float((out - p) @ seg) / L
    assert -1e-9 <= w <= 1.0 + 1e-9
    np.testing.assert_allclose(out, p + w * seg, atol=1e-9)


# ------------------------------------------------------- similarity labeling


def brute_similarity_labels(features, cents):
    out = []
    for x in features:
        best, best_sim = None, None
        for c in range(cents.C):
            if not cents.presence[c]:
                continue
            v = cents.vectors[c]
            nu = math.sqrt(float(x @ x))
            nv = math.sqrt(float(v @ v))
            sim = 0.0 if (nu < 1e-12 or nv < 1e-12) else float(x @ v) / (nu * nv)
            if best_sim is None or sim > best_sim:
                best, best_sim = c, sim
        out.append(best)
    return np.array(out)


def test_similarity_labels_matches_brute_force_exactly(rng):
    # Integer-valued floats make every dot product exact, so the vectorized
    # path and the scalar loop must agree bit for bit, ties included.
    for _ in range(50):
        feats = rng.integers(-3, 4, size=(12, 5)).astype(float)
        vecs = rng.integers(-3, 4, size=(4, 5)).astype(float)
        presence = rng.random(4) > 0.3
        if not presence.any():
            presence[0] = True
        cents = CentroidSet(C=4, vectors=vecs, presence=presence)
        np.testing.assert_array_equal(
            similarity_labels(feats, cents), brute_similarity_labels(feats, cents)
        )


def test_similarity_labels_tie_goes_to_lowest_class():
    v = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cents = _cset(v)
    labels = similarity_labels(np.array([[2.0, 0.0]]), cents)
    assert labels[0] == 0


def test_similarity_labels_skips_absent_classes():
    cents = _cset([[1.0, 0.0], [0.9, 0.1]], presence=[False, True])
    labels = similarity_labels(np.array([[1.0, 0.0]]), cents)
    assert labels[0] == 1


def test_similarity_labels_requires_some_presence():
    cents = _cset([[1.0, 0.0]], presence=[False])
    with pytest.raises(ContractViolation):
        similarity_labels(np.array([[1.0, 0.0]]), cents)


def test_confident_mask():
    m = confident_mask(np.array([0, 1, 2]), np.array([0, 2, 2]))
    np.testing.assert_array_equal(m, [1, 0, 1])
    with pytest.raises(ContractViolation):
        confident_mask(np.array([0, 1]), np.array([0]))


# ------------------------------------------------------------------- losses


def test_global_pseudo_labels_are_model_softmax(rng):
    p = init_params(4, 6, 3, rng)
    X = rng.normal(size=(9, 4))
    pseudo = global_pseudo_labels(p, X)
    np.testing.assert_allclose(pseudo.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(pseudo, mlp_forward(p, X).probs)


def test_lambda_cen_schedule_ramp():
    hp = HyperParams(lambda_cen=2.0, lambda_cen_warmup_rounds=30)
    assert lambda_cen_schedule(0, hp) == 0.0
    assert lambda_cen_schedule(15, hp) == pytest.approx(1.0)
    assert lambda_cen_schedule(30, hp) == pytest.approx(2.0)
    assert lambda_cen_schedule(90, hp) == pytest.approx(2.0)


def _loss_instance(rng, B=6, d_in=4, d_h=5, C=3):
    params = init_params(d_in, d_h, C, rng)
    X = rng.normal(size=(B, d_in))
    y = rng.integers(0, C, size=B)
    pseudo = rng.dirichlet(np.ones(C), size=B)
    mask = rng.integers(0, 2, size=B)
    cents = CentroidSet(
        C=C, vectors=rng.normal(size=(C, d_h)), presence=np.ones(C, dtype=bool)
    )
    return params, X, y, pseudo, mask, cents


def test_loss_reduces_to_plain_ce_when_all_confident(rng):
    params, X, y, pseudo, _, cents = _loss_instance(rng)
    hp = HyperParams(lambda_cen=0.0, lambda_e=0.0)
    bd, rec, d_logits, d_hidden = total_loss_and_grads(
        params, X, y, pseudo, np.ones(len(y), dtype=int), cents, hp, use_pseudo=True
    )
    expected = float(per_example_ce(rec.logits, y).mean())
    assert bd.classification == pytest.approx(expected, rel=1e-12)
    assert bd.total == pytest.approx(expected, rel=1e-12)
    assert (d_hidden == 0).all()


def test_loss_ignores_pseudo_before_gate(rng):
    params, X, y, pseudo, mask, cents = _loss_instance(rng)
    hp = HyperParams(lambda_cen=0.0, lambda_e=0.0)
    bd, _, _, _ = total_loss_and_grads(
        params, X, y, pseudo, mask, cents, hp, use_pseudo=False
    )
    bd_ref, rec, _, _ = total_loss_and_grads(
        params, X, y, pseudo, np.ones(len(y), dtype=int), cents, hp, use_pseudo=True
    )
    assert bd.classification == pytest.approx(bd_ref.classification, rel=1e-12)


def test_loss_uniform_logit_entropy(rng):
    # Zero weights make logits zero, so every term is computable by hand.
    B, C = 4, 3
    params = ModelParams.zeros(2, 3, C)
    X = rng.normal(size=(B, 2))
    y = np.array([0, 1, 2, 0])
    pseudo = np.full((B, C), 1.0 / C)
    mask = np.zeros(B, dtype=int)
    cents = _cset(np.zeros((C, 3)))
    hp = HyperParams(lambda_cen=1.0, lambda_e=1.0)
    bd, _, _, _ = total_loss_and_grads(
        params, X, y, pseudo, mask, cents, hp, use_pseudo=True, lambda_cen_eff=1.0
    )
    assert bd.entropy == pytest.approx(math.log(C), rel=1e-12)
    assert bd.classification == pytest.approx(math.log(C), rel=1e-12)
    assert bd.centroid == 0.0  # mask all zero
    assert bd.total == pytest.approx(2 * math.log(C), rel=1e-12)


def test_entropy_term_off_when_its_weight_is_zero(rng):
    params, X, y, pseudo, mask, cents = _loss_instance(rng)
    on = HyperParams(lambda_cen=1.0, lambda_e=0.8)
    off = HyperParams(lambda_cen=1.0, lambda_e=0.0)
    bd_on, _, _, _ = total_loss_and_grads(params, X, y, pseudo, mask, cents, on, use_pseudo=True)
    bd_off, _, d_logits, _ = total_loss_and_grads(
        params, X, y, pseudo, mask, cents, off, use_pseudo=True
    )
    assert bd_on.entropy > 0.0 and bd_off.entropy == 0.0
    assert bd_off.classification == bd_on.classification
    assert bd_off.total == bd_off.classification + 1.0 * bd_off.centroid
    # Without the entropy term the logit gradient is plain cross-entropy's.
    rec = mlp_forward(params, X)
    m = mask.astype(float)[:, None]
    targets = m * np.eye(pseudo.shape[1])[y] + (1.0 - m) * pseudo
    np.testing.assert_allclose(d_logits, (rec.probs - targets) / len(y), rtol=1e-12)


def test_centroid_term_hand_value(rng):
    params, X, y, pseudo, _, _ = _loss_instance(rng, B=3, C=3, d_h=5)
    mask = np.array([1, 0, 1])
    rec = mlp_forward(params, X)
    cents = _cset(rng.normal(size=(3, 5)))
    hp = HyperParams(lambda_cen=1.0, lambda_e=0.0)
    bd, _, _, _ = total_loss_and_grads(
        params, X, y, pseudo, mask, cents, hp, use_pseudo=True, lambda_cen_eff=1.0
    )
    expected = sum(
        mask[i] * float(((rec.hidden[i] - cents.vectors[y[i]]) ** 2).sum())
        for i in range(3)
    ) / 3
    assert bd.centroid == pytest.approx(expected, rel=1e-12)


def test_loss_total_combines_terms(rng):
    params, X, y, pseudo, mask, cents = _loss_instance(rng)
    hp = HyperParams(lambda_cen=1.5, lambda_e=0.8)
    bd, _, _, _ = total_loss_and_grads(
        params, X, y, pseudo, mask, cents, hp, use_pseudo=True, lambda_cen_eff=0.6
    )
    assert bd.total == pytest.approx(
        bd.classification + 0.6 * bd.centroid + 0.8 * bd.entropy, rel=1e-12
    )


def test_composite_grads_match_finite_differences(rng):
    params, X, y, pseudo, mask, cents = _loss_instance(rng)
    hp = HyperParams(lambda_cen=1.0, lambda_e=0.8)

    def loss(q):
        bd, _, _, _ = total_loss_and_grads(
            q, X, y, pseudo, mask, cents, hp, use_pseudo=True, lambda_cen_eff=0.7
        )
        return bd.total

    bd, rec, d_logits, d_hidden = total_loss_and_grads(
        params, X, y, pseudo, mask, cents, hp, use_pseudo=True, lambda_cen_eff=0.7
    )
    grads = mlp_backward(params, X, rec, d_logits, d_hidden)
    h = 1e-6
    theta = params.theta
    for i in range(theta.size):
        keep = theta[i]
        theta[i] = keep + h
        up = loss(params)
        theta[i] = keep - h
        down = loss(params)
        theta[i] = keep
        fd = (up - down) / (2 * h)
        assert abs(fd - grads[i]) < 1e-6 * max(1.0, abs(fd))


# ------------------------------------------------------------- local_update


def _blob_client(seed=0, n_per_class=30, C=3, noisy=False):
    ds = make_blobs(C=C, per_class=n_per_class, d_in=5, spread=0.6, seed=seed)
    shards = partition_iid(ds, 1, seed=seed)
    if noisy:
        flip = np.arange(0, ds.n, 5)
        ds.given_labels[flip] = (ds.given_labels[flip] + 1) % C
    return ds, shards[0]


def _hp(**kw):
    base = dict(
        hidden_dim=8,
        local_epochs=2,
        batch_size=16,
        learning_rate=0.1,
        t_pl=3,
        t_horizon=5,
        tau=0.2,
    )
    base.update(kw)
    return HyperParams(**base)


def test_local_update_deterministic():
    ds, shard = _blob_client(noisy=True)
    hp = _hp()
    gp = init_params(5, 8, 3, make_rng(0, 4))
    gc = CentroidSet.empty(3, 8)
    a = local_update(ds, shard, gp, gc, 2, 0.9, hp, make_rng(0, 6, 2, 0))
    b = local_update(ds, shard, gp, gc, 2, 0.9, hp, make_rng(0, 6, 2, 0))
    np.testing.assert_array_equal(a.params.theta, b.params.theta)
    np.testing.assert_array_equal(a.centroids.vectors, b.centroids.vectors)
    assert a.stats == b.stats


def test_local_update_pure_function_across_clients():
    # Two clients holding identical data and identical rng keys must produce
    # identical uploads.
    ds, shard = _blob_client()
    hp = _hp()
    gp = init_params(5, 8, 3, make_rng(0, 4))
    gc = CentroidSet.empty(3, 8)
    other = ClientShard(client_id=1, indices=shard.indices.copy())
    a = local_update(ds, shard, gp, gc, 1, 1.0, hp, make_rng(0, 6, 1, 0))
    b = local_update(ds, other, gp, gc, 1, 1.0, hp, make_rng(0, 6, 1, 0))
    np.testing.assert_array_equal(a.params.theta, b.params.theta)


def test_local_update_zero_epochs_keeps_broadcast():
    ds, shard = _blob_client()
    hp = _hp(local_epochs=0)
    gp = init_params(5, 8, 3, make_rng(0, 4))
    res = local_update(ds, shard, gp, CentroidSet.empty(3, 8), 1, 1.0, hp, make_rng(0, 6, 1, 0))
    np.testing.assert_array_equal(res.params.theta, gp.theta)
    assert res.params.theta is not gp.theta


def test_local_update_does_not_mutate_broadcast():
    ds, shard = _blob_client(noisy=True)
    hp = _hp()
    gp = init_params(5, 8, 3, make_rng(0, 4))
    before = gp.theta.copy()
    gc = CentroidSet.empty(3, 8)
    local_update(ds, shard, gp, gc, 1, 1.0, hp, make_rng(0, 6, 1, 0))
    np.testing.assert_array_equal(before, gp.theta)
    assert not gc.presence.any()


def test_local_update_reports_local_state():
    ds, shard = _blob_client(noisy=True)
    hp = _hp()
    gp = init_params(5, 8, 3, make_rng(0, 4))
    res = local_update(ds, shard, gp, CentroidSet.empty(3, 8), 1, 0.8, hp, make_rng(0, 6, 1, 0))
    s = res.stats
    # The 0/1 mask shows through the stats: every example is either
    # confident or flagged.
    assert 0 <= s.detected_noisy <= s.n_examples
    assert s.confident_fraction * s.n_examples + s.detected_noisy == pytest.approx(s.n_examples)
    assert res.centroids.presence.any()
    assert 0.0 <= res.stats.confident_fraction <= 1.0
    assert res.stats.n_examples == ds.n
    assert np.isfinite(res.stats.mean_train_loss)


def test_local_update_ce_baseline_is_maskless(monkeypatch):
    import fednoise.localnode as localnode

    ds, shard = _blob_client(noisy=True)
    hp = _hp()
    gp = init_params(5, 8, 3, make_rng(0, 4))
    forwards = []

    def counting_forward(params, X):
        forwards.append(len(X))
        return mlp_forward(params, X)

    def no_centroid_work(*args, **kwargs):
        raise AssertionError("ce_baseline must do no centroid or pseudo-label work")

    monkeypatch.setattr(localnode, "mlp_forward", counting_forward)
    for name in ("class_mean_features", "similarity_labels", "blend_with_global",
                 "global_pseudo_labels", "small_loss_filter"):
        monkeypatch.setattr(localnode, name, no_centroid_work)
    res = local_update(
        ds, shard, gp, CentroidSet.empty(3, 8), 1, 1.0, hp, make_rng(0, 6, 1, 0),
        method="ce_baseline",
    )
    # One forward per SGD step, over that step's batch only.
    steps = hp.local_epochs * math.ceil(ds.n / hp.batch_size)
    assert len(forwards) == steps and sum(forwards) == hp.local_epochs * ds.n
    assert res.stats.confident_fraction == 1.0
    assert res.stats.detected_noisy == 0
    assert not res.centroids.presence.any()


def test_local_update_unknown_method():
    ds, shard = _blob_client()
    with pytest.raises(ConfigError):
        local_update(
            ds, shard, init_params(5, 8, 3, make_rng(0, 4)), CentroidSet.empty(3, 8),
            1, 1.0, _hp(), make_rng(0, 6, 1, 0), method="ensemble",
        )


def test_local_update_empty_shard():
    ds, shard = _blob_client()
    empty = ClientShard(client_id=0, indices=np.array([], dtype=np.int64))
    with pytest.raises(ContractViolation):
        local_update(
            ds, empty, init_params(5, 8, 3, make_rng(0, 4)), CentroidSet.empty(3, 8),
            1, 1.0, _hp(), make_rng(0, 6, 1, 0),
        )


def test_naive_pseudo_differs_after_gate():
    # Past the pseudo-label gate, refreshing targets from the local model
    # must change the trajectory relative to fixed broadcast targets.
    ds, shard = _blob_client(noisy=True)
    hp = _hp(t_pl=1, local_epochs=3)
    gp = init_params(5, 8, 3, make_rng(0, 4))
    gc = CentroidSet.empty(3, 8)
    a = local_update(ds, shard, gp, gc, 2, 0.8, hp, make_rng(0, 6, 2, 0))
    b = local_update(
        ds, shard, gp, gc, 2, 0.8, hp, make_rng(0, 6, 2, 0), method="naive_pseudo_ablation"
    )
    assert not np.array_equal(a.params.theta, b.params.theta)


def test_methods_identical_before_gate():
    # Before t_pl both pseudo-label policies are inert, so the proposed
    # method and the naive ablation coincide exactly.
    ds, shard = _blob_client(noisy=True)
    hp = _hp(t_pl=50)
    gp = init_params(5, 8, 3, make_rng(0, 4))
    gc = CentroidSet.empty(3, 8)
    a = local_update(ds, shard, gp, gc, 2, 0.8, hp, make_rng(0, 6, 2, 0))
    b = local_update(
        ds, shard, gp, gc, 2, 0.8, hp, make_rng(0, 6, 2, 0), method="naive_pseudo_ablation"
    )
    np.testing.assert_array_equal(a.params.theta, b.params.theta)


def test_no_global_centroids_ignores_broadcast_centroids():
    ds, shard = _blob_client(noisy=True)
    hp = _hp()
    gp = init_params(5, 8, 3, make_rng(0, 4))
    skewed = CentroidSet(
        C=3, vectors=np.full((3, 8), 1e3), presence=np.ones(3, dtype=bool)
    )
    empty = CentroidSet.empty(3, 8)
    a = local_update(
        ds, shard, gp, skewed, 2, 0.8, hp, make_rng(0, 6, 2, 0),
        method="no_global_centroids_ablation",
    )
    b = local_update(
        ds, shard, gp, empty, 2, 0.8, hp, make_rng(0, 6, 2, 0),
        method="no_global_centroids_ablation",
    )
    np.testing.assert_array_equal(a.params.theta, b.params.theta)
    np.testing.assert_array_equal(a.centroids.vectors, b.centroids.vectors)


def test_detection_counts_add_up():
    ds, shard = _blob_client(noisy=True)
    hp = _hp()
    gp = init_params(5, 8, 3, make_rng(0, 4))
    res = local_update(ds, shard, gp, CentroidSet.empty(3, 8), 1, 0.8, hp, make_rng(0, 6, 1, 0))
    s = res.stats
    assert s.actual_noisy == int((ds.given_labels != ds.true_labels).sum())
    assert 0 <= s.detected_true_noisy <= min(s.detected_noisy, s.actual_noisy)
    assert s.n_examples == ds.n
    assert s.detected_noisy == round((1.0 - s.confident_fraction) * s.n_examples)
