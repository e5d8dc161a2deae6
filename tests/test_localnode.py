import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fednoise.bench import load_config, run_experiment
from fednoise.datagen import ClientShard, Dataset, make_blob_split, partition_iid
from fednoise.errors import ConfigError, ContractViolation
from fednoise.localnode import (
    METHODS,
    CentroidSet,
    HyperParams,
    LocalJob,
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
from fednoise.numkit import (
    ModelParams,
    _softmax_and_log,
    cosine_similarity,
    init_params,
    mlp_backward,
    mlp_forward,
)
from fednoise.seeds import make_rng

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLOBS_CFG = os.path.join(REPO_ROOT, "configs", "blobs.cfg")


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
    ce = per_example_ce(_softmax_and_log(logits)[1], np.array([0, 0]))
    assert ce[0] == pytest.approx(math.log(2.0))
    assert ce[1] == pytest.approx(math.log(4.0 / 3.0))


# ---------------------------------------------------------------- centroids


def test_class_mean_features_hand_case():
    feats = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    cents = class_mean_features(feats, np.array([0, 0, 1]), C=3)
    np.testing.assert_allclose(cents.vectors[0], [2.0, 3.0])
    np.testing.assert_allclose(cents.vectors[1], [5.0, 6.0])
    np.testing.assert_array_equal(cents.presence, [True, True, False])
    np.testing.assert_array_equal(cents.vectors[2], [0.0, 0.0])


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


# The per-class loop versions that class_mean_features and
# blend_with_global replaced; the vectorized code must give their bits.
# (The loop aggregation lives in test_coordinator.py.)


def loop_class_mean_features(features, labels, C):
    d_h = features.shape[1]
    vectors = np.zeros((C, d_h))
    presence = np.zeros(C, dtype=bool)
    for c in range(C):
        rows = features[labels == c]
        presence[c] = rows.shape[0] > 0
        if presence[c]:
            vectors[c] = rows.mean(axis=0)
    return CentroidSet(C=C, vectors=vectors, presence=presence)


def loop_blend_with_global(prev, fresh):
    if prev.C != fresh.C or prev.d_h != fresh.d_h:
        raise ContractViolation("blend_with_global: centroid sets have mismatched dims")
    out = prev.copy()
    for c in range(prev.C):
        if not fresh.presence[c]:
            continue
        if not prev.presence[c]:
            out.vectors[c] = fresh.vectors[c]
            out.presence[c] = True
            continue
        s = cosine_similarity(prev.vectors[c], fresh.vectors[c])
        w = s * s
        out.vectors[c] = (1.0 - w) * prev.vectors[c] + w * fresh.vectors[c]
    return out


def _same_centroids(a, b):
    return np.array_equal(a.vectors, b.vectors) and np.array_equal(a.presence, b.presence)


@st.composite
def mean_cases(draw):
    C = draw(st.integers(2, 6))
    n = draw(st.integers(1, 40))
    d_h = draw(st.integers(2, 9))
    features = draw(arrays(np.float64, (n, d_h), elements=st.floats(-1, 1)))
    # Labels from a prefix of the classes, so some classes are absent.
    labels = draw(arrays(np.int64, n, elements=st.integers(0, draw(st.integers(0, C - 1)))))
    # The rows a caller keeps (the small-loss subset), sliced before the call.
    keep = np.flatnonzero(draw(arrays(np.bool_, n)))
    return features[keep], labels[keep], C


@given(mean_cases())
def test_class_mean_features_bit_equals_loop(case):
    features, labels, C = case
    got = class_mean_features(features, labels, C)
    want = loop_class_mean_features(features, labels, C)
    assert _same_centroids(got, want)


def test_class_mean_features_one_feature_matches_loop_to_rounding(rng):
    # numpy's mean sums a single column pairwise, add.at in row order, so
    # with one feature the two agree only to rounding.
    for n in (1, 5, 9, 40):
        feats = rng.uniform(-1, 1, size=(n, 1))
        labels = rng.integers(0, 3, size=n)
        got = class_mean_features(feats, labels, 3)
        want = loop_class_mean_features(feats, labels, 3)
        np.testing.assert_allclose(got.vectors, want.vectors, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(got.presence, want.presence)


def test_class_mean_features_edge_cases_bit_equal_loop(rng):
    feats = rng.uniform(-1, 1, size=(6, 4))
    cases = [
        (feats[3:4], np.array([1]), 2),  # one row
        (feats, np.array([0, 1, 0, 1, 0, 1]), 2),  # C = 2
        (feats, np.array([0, 4, 0, 4, 0, 4]), 5),  # absent classes
        (feats[:0], np.array([], dtype=np.int64), 3),  # no rows
        (np.zeros((6, 4)), np.array([0, 0, 1, 1, 2, 2]), 3),  # zero rows
    ]
    for features, labels, C in cases:
        got = class_mean_features(features, labels, C)
        want = loop_class_mean_features(features, labels, C)
        assert _same_centroids(got, want)


@st.composite
def blend_cases(draw):
    C = draw(st.integers(2, 6))
    d_h = draw(st.integers(1, 9))
    sets = []
    for _ in range(2):
        vectors = draw(arrays(np.float64, (C, d_h), elements=st.floats(-5, 5)))
        # Zero rows and rows below the cosine's zero-norm threshold.
        vectors[draw(arrays(np.bool_, C))] = 0.0
        vectors[draw(arrays(np.bool_, C))] *= 1e-14
        sets.append(CentroidSet(C=C, vectors=vectors, presence=draw(arrays(np.bool_, C))))
    return sets


@given(blend_cases())
def test_blend_with_global_bit_equals_loop(case):
    prev, fresh = case
    before = prev.copy(), fresh.copy()
    assert _same_centroids(blend_with_global(prev, fresh), loop_blend_with_global(prev, fresh))
    # Neither input is written.
    assert _same_centroids(prev, before[0]) and _same_centroids(fresh, before[1])


def test_blend_with_global_edge_cases_bit_equal_loop(rng):
    v = rng.normal(size=(2, 5))
    cases = [
        (_cset(v), _cset(v[::-1].copy())),  # C = 2, both present
        (_cset(v, [True, False]), _cset(v * 3.0, [False, True])),  # one-sided presence
        (_cset(np.zeros((2, 5))), _cset(v)),  # zero-norm previous rows
        (_cset(v), _cset(np.zeros((2, 5)), [True, False])),  # zero-norm fresh row
    ]
    for prev, fresh in cases:
        assert _same_centroids(blend_with_global(prev, fresh), loop_blend_with_global(prev, fresh))


def test_desk_run_with_loop_centroids_writes_same_csv(tmp_path, monkeypatch):
    import fednoise.coordinator as coordinator
    import fednoise.localnode as localnode
    from test_coordinator import loop_aggregate_global_centroids

    def run(name):
        path = tmp_path / name
        run_experiment(load_config(BLOBS_CFG, ["method=proposed", f"output={path}"]))
        return path.read_bytes()

    vectorized = run("vectorized.csv")
    # Forked client workers inherit the patched module attributes.
    monkeypatch.setattr(localnode, "class_mean_features", loop_class_mean_features)
    monkeypatch.setattr(localnode, "blend_with_global", loop_blend_with_global)
    monkeypatch.setattr(coordinator, "aggregate_global_centroids", loop_aggregate_global_centroids)
    assert run("loop.csv") == vectorized


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
    hp = HyperParams(lambda_cen=2.0)
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
    rec = mlp_forward(params, X)
    bd, d_logits, d_hidden = total_loss_and_grads(
        rec, y, pseudo, np.ones(len(y), dtype=int), cents, 0.0, 0.0
    )
    logp = _softmax_and_log(rec.hidden @ params.W2 + params.b2)[1]
    expected = float(per_example_ce(logp, y).mean())
    assert bd.classification == pytest.approx(expected, rel=1e-12)
    assert bd.total == pytest.approx(expected, rel=1e-12)
    assert (d_hidden == 0).all()


def test_loss_ignores_pseudo_before_gate(rng):
    # Without pseudo-targets (before t_pl) the mask does not touch the
    # classification term.
    params, X, y, pseudo, mask, cents = _loss_instance(rng)
    rec = mlp_forward(params, X)
    bd, _, _ = total_loss_and_grads(rec, y, None, mask, cents, 0.0, 0.0)
    bd_ref, _, _ = total_loss_and_grads(
        rec, y, pseudo, np.ones(len(y), dtype=int), cents, 0.0, 0.0
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
    bd, _, _ = total_loss_and_grads(mlp_forward(params, X), y, pseudo, mask, cents, 1.0, 1.0)
    assert bd.entropy == pytest.approx(math.log(C), rel=1e-12)
    assert bd.classification == pytest.approx(math.log(C), rel=1e-12)
    assert bd.centroid == 0.0  # mask all zero
    assert bd.total == pytest.approx(2 * math.log(C), rel=1e-12)


def test_entropy_term_off_when_its_weight_is_zero(rng):
    params, X, y, pseudo, mask, cents = _loss_instance(rng)
    rec = mlp_forward(params, X)
    bd_on, _, _ = total_loss_and_grads(rec, y, pseudo, mask, cents, 1.0, 0.8)
    bd_off, d_logits, _ = total_loss_and_grads(rec, y, pseudo, mask, cents, 1.0, 0.0)
    assert bd_on.entropy > 0.0 and bd_off.entropy == 0.0
    assert bd_off.classification == bd_on.classification
    assert bd_off.total == bd_off.classification + 1.0 * bd_off.centroid
    # Without the entropy term the logit gradient is plain cross-entropy's.
    m = mask.astype(float)[:, None]
    targets = m * np.eye(pseudo.shape[1])[y] + (1.0 - m) * pseudo
    np.testing.assert_allclose(d_logits, (rec.probs - targets) / len(y), rtol=1e-12)


def test_centroid_term_hand_value(rng):
    params, X, y, pseudo, _, _ = _loss_instance(rng, B=3, C=3, d_h=5)
    mask = np.array([1, 0, 1])
    rec = mlp_forward(params, X)
    cents = _cset(rng.normal(size=(3, 5)))
    bd, _, _ = total_loss_and_grads(rec, y, pseudo, mask, cents, 1.0, 0.0)
    expected = sum(
        mask[i] * float(((rec.hidden[i] - cents.vectors[y[i]]) ** 2).sum())
        for i in range(3)
    ) / 3
    assert bd.centroid == pytest.approx(expected, rel=1e-12)


def test_loss_total_combines_terms(rng):
    params, X, y, pseudo, mask, cents = _loss_instance(rng)
    bd, _, _ = total_loss_and_grads(mlp_forward(params, X), y, pseudo, mask, cents, 0.6, 0.8)
    assert bd.total == pytest.approx(
        bd.classification + 0.6 * bd.centroid + 0.8 * bd.entropy, rel=1e-12
    )


def test_composite_grads_match_finite_differences(rng):
    params, X, y, pseudo, mask, cents = _loss_instance(rng)

    def loss(q):
        bd, _, _ = total_loss_and_grads(mlp_forward(q, X), y, pseudo, mask, cents, 0.7, 0.8)
        return bd.total

    rec = mlp_forward(params, X)
    bd, d_logits, d_hidden = total_loss_and_grads(rec, y, pseudo, mask, cents, 0.7, 0.8)
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
    ds = make_blob_split(C, n_per_class, 0, 5, 0.6, seed)[0]
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


@pytest.mark.parametrize("method", METHODS)
def test_local_update_cut_anywhere_and_resumed_gives_same_bytes(monkeypatch, method):
    # 90 examples in batches of 16: six steps an epoch, the last one short.
    # Round 4 is past t_pl, so pseudo-labels, running centroids seeded
    # from the broadcast set and (naive) per-epoch refreshes all cross the cut.
    import fednoise.localnode as localnode

    ds, shard = _blob_client(noisy=True)
    hp = _hp(local_epochs=3)
    gp = init_params(5, 8, 3, make_rng(0, 4))
    gc = local_update(ds, shard, gp, CentroidSet.empty(3, 8), 1, 1.0, hp, make_rng(0, 6, 1, 0)).centroids
    args = (ds, shard, 4, 0.8, hp, method)
    whole = local_update(ds, shard, gp, gc, *args[2:5], make_rng(0, 6, 4, 0), method=method)
    refreshes = []

    def counting_pseudo(params, X):
        refreshes.append(1)
        return global_pseudo_labels(params, X)

    monkeypatch.setattr(localnode, "global_pseudo_labels", counting_pseudo)
    job = LocalJob(*args)
    batches = math.ceil(ds.n / hp.batch_size)
    assert job.steps == hp.local_epochs * batches == 18
    for cut in range(job.steps + 1):
        rng = make_rng(0, 6, 4, 0)
        del refreshes[:]
        progress = job.start(gp, gc, rng)
        job.advance(progress, cut)
        # A cut at an epoch boundary comes before that epoch's shuffle and
        # before naive_pseudo_ablation's refresh.
        epochs_begun = math.ceil(cut / batches)
        fresh = make_rng(0, 6, 4, 0)
        for _ in range(epochs_begun):
            fresh.permutation(ds.n)
        assert pickle.loads(pickle.dumps(rng)).random(4).tolist() == fresh.random(4).tolist(), cut
        want = {"proposed": 1, "no_global_centroids_ablation": 1,
                "naive_pseudo_ablation": epochs_begun, "ce_baseline": 0}[method]
        assert len(refreshes) == want, cut
        # The second half runs from a pickled copy, under a job built anew,
        # as in another process.
        resumed = pickle.loads(pickle.dumps(progress))
        other = LocalJob(*args)
        other.advance(resumed, job.steps - cut)
        res = other.finish(resumed)
        assert res.params.theta.tobytes() == whole.params.theta.tobytes(), cut
        assert res.centroids.vectors.tobytes() == whole.centroids.vectors.tobytes(), cut
        np.testing.assert_array_equal(res.centroids.presence, whole.centroids.presence)
        assert res.stats == whole.stats, cut


def test_local_job_takes_exactly_its_steps():
    ds, shard = _blob_client()
    job = LocalJob(ds, shard, 1, 1.0, _hp())
    progress = job.start(init_params(5, 8, 3, make_rng(0, 4)), CentroidSet.empty(3, 8), make_rng(0, 6, 1, 0))
    job.advance(progress, 5)
    with pytest.raises(ContractViolation, match="5 of 12"):
        job.finish(progress)
    with pytest.raises(ContractViolation):
        job.advance(progress, 8)
    with pytest.raises(ContractViolation):
        job.advance(progress, -1)
    job.advance(progress, 7)
    job.finish(progress)


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
    assert 0 <= s.detected_noisy <= ds.n
    assert s.confident_fraction * ds.n + s.detected_noisy == pytest.approx(ds.n)
    assert res.centroids.presence.any()
    assert 0.0 <= res.stats.confident_fraction <= 1.0
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
                 "global_pseudo_labels", "small_loss_filter", "mlp_features"):
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


@pytest.mark.parametrize(
    "method, per_update",
    [
        ("proposed", lambda hp: 1),
        ("no_global_centroids_ablation", lambda hp: 1),
        ("naive_pseudo_ablation", lambda hp: hp.local_epochs),
        ("ce_baseline", lambda hp: 0),
    ],
)
def test_pseudo_labels_computed_only_from_t_pl(monkeypatch, method, per_update):
    import fednoise.localnode as localnode

    ds, shard = _blob_client(noisy=True)
    hp = _hp(t_pl=3, local_epochs=3)
    gp = init_params(5, 8, 3, make_rng(0, 4))
    pseudo_calls, forwards = [], []

    def counting_pseudo(params, X):
        pseudo_calls.append(len(X))
        return global_pseudo_labels(params, X)

    def counting_forward(params, X):
        forwards.append(len(X))
        return mlp_forward(params, X)

    monkeypatch.setattr(localnode, "global_pseudo_labels", counting_pseudo)
    monkeypatch.setattr(localnode, "mlp_forward", counting_forward)
    steps = hp.local_epochs * math.ceil(ds.n / hp.batch_size)
    for round_t in (1, 2, 3, 4):
        del pseudo_calls[:], forwards[:]
        local_update(
            ds, shard, gp, CentroidSet.empty(3, 8), round_t, 0.8, hp,
            make_rng(0, 6, round_t, 0), method=method,
        )
        want = per_update(hp) if round_t >= hp.t_pl else 0
        assert pseudo_calls == [ds.n] * want, (method, round_t)
        # Besides pseudo-labels, one full forward per step: the class means
        # after each step need only the features.
        assert len(forwards) == steps + want, (method, round_t)


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
    # Both uploads are empty: no client of this method reads the merged set.
    assert not a.centroids.presence.any() and not b.centroids.presence.any()


def test_detection_counts_add_up():
    ds, shard = _blob_client(noisy=True)
    hp = _hp()
    gp = init_params(5, 8, 3, make_rng(0, 4))
    res = local_update(ds, shard, gp, CentroidSet.empty(3, 8), 1, 0.8, hp, make_rng(0, 6, 1, 0))
    s = res.stats
    assert s.actual_noisy == int((ds.given_labels != ds.true_labels).sum())
    assert 0 <= s.detected_true_noisy <= min(s.detected_noisy, s.actual_noisy)
    assert s.detected_noisy == round((1.0 - s.confident_fraction) * ds.n)
