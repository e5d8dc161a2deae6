import ast
import copy
import ctypes
import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fednoise import _native, localnode, numkit
from fednoise.bench import load_config, run_experiment
from fednoise.datagen import Dataset, make_blob_split, partition_iid
from fednoise.errors import ConfigError, ContractViolation, TrainingDiverged
from fednoise.localnode import (
    METHODS,
    CentroidSet,
    HyperParams,
    blend_with_global,
    class_mean_features,
    confident_mask,
    global_pseudo_labels,
    lambda_cen_schedule,
    local_update,
    per_example_ce,
    r_schedule,
    similarity_labels,
    small_loss_filter,
    total_loss_and_grads,
)
from fednoise.numkit import (
    ForwardRecord,
    ModelParams,
    _softmax_and_log,
    cosine_similarity,
    init_params,
    mlp_backward,
    mlp_features,
    mlp_forward,
    sgd_step,
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
    out = copy.deepcopy(prev)
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
    before = copy.deepcopy((prev, fresh))
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
    # Forked client workers inherit the patched module attributes. Without
    # numpy's calls the step's bookkeeping runs its numpy lines, which call
    # the loop versions.
    monkeypatch.setattr(localnode, "_calls", None)
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


def test_r_schedule_values():
    hp = HyperParams(tau=0.4, t_horizon=10)
    assert r_schedule(1, hp) == 1.0
    assert r_schedule(6, hp) == pytest.approx(0.8)
    assert r_schedule(11, hp) == pytest.approx(0.6)
    assert r_schedule(51, hp) == pytest.approx(0.6)
    with pytest.raises(ContractViolation):
        r_schedule(0, hp)


def test_r_schedule_clean_data_keeps_everything():
    hp = HyperParams(tau=0.0, t_horizon=10)
    assert r_schedule(1, hp) == 1.0
    assert r_schedule(100, hp) == 1.0


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


def _assert_mask_of(res, n_k):
    """The upload's confident mask: one 0/1 int64 entry per shard row."""
    assert res.mask.shape == (n_k,) and res.mask.dtype == np.int64
    assert np.isin(res.mask, (0, 1)).all()


def _hp(**kw):
    base = dict(
        hidden_dim=8,
        local_epochs=2,
        batch_size=16,
        learning_rate=0.1,
        t_pl=3,
        # From round 2 on, the small-loss filter keeps 1 - tau of a batch.
        t_horizon=1,
        tau=0.2,
    )
    base.update(kw)
    return HyperParams(**base)


@pytest.mark.parametrize(
    "method, round_t, full_broadcast",
    [("ce_baseline", 1, False), ("proposed", 2, True), ("naive_pseudo_ablation", 2, True)],
    ids=["ce_baseline", "proposed_round2", "naive_pseudo_round2"],
)
def test_local_update_holds_no_copy_of_its_rows(method, round_t, full_broadcast):
    # An update keeps its shard's row indices and gathers each batch from
    # the training set, so on 500 rows of 784 features (3.1 MB) it peaks
    # far below a copy of them. Round 2 with every class broadcast seeds
    # the running centroids from the global set, for naive_pseudo_ablation
    # too; proposed at round 1 and no_global_centroids_ablation gather the
    # shard once for their seed, by design, so they are not here.
    rng = np.random.default_rng(0)
    ds = Dataset(X=rng.random((1000, 784)), true_labels=rng.integers(0, 10, 1000),
                 given_labels=rng.integers(0, 10, 1000), C=10)
    shard = np.arange(0, 1000, 2, dtype=np.int64)
    hp = _hp()
    gp = init_params(784, hp.hidden_dim, 10, make_rng(0, 4))
    gc = CentroidSet(10, rng.random((10, hp.hidden_dim)), np.full(10, full_broadcast))
    assert round_t < hp.t_pl
    tracemalloc.start()
    try:
        local_update(ds, shard, gp, gc, round_t, hp, make_rng(0, 6, round_t, 0), method=method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"the {method} update peaked at {peak} bytes"


def test_localnode_compares_no_method_name():
    # A method is its row of METHOD_SPECS. The only comparison in the
    # module that involves local_update's method parameter is its lookup
    # in the mapping, and no method name is written outside the mapping.
    import fednoise.localnode as localnode

    with open(localnode.__file__) as f:
        tree = ast.parse(f.read())
    compared = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        lookup = (
            isinstance(node.left, ast.Name) and node.left.id == "method"
            and len(node.ops) == 1 and isinstance(node.ops[0], (ast.In, ast.NotIn))
            and isinstance(node.comparators[0], ast.Name)
            and node.comparators[0].id == "METHOD_SPECS"
        )
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        if "method" in names and not lookup:
            compared.append(node.lineno)
    assert compared == [], f"localnode.py compares the method on lines {compared}"
    mapping = next(
        node for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["METHOD_SPECS"]
    )
    keys = {id(k) for k in mapping.value.keys}
    named = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in METHODS and id(node) not in keys
    ]
    assert named == [], f"localnode.py names a method outside METHOD_SPECS on lines {named}"


def test_local_update_deterministic():
    ds, shard = _blob_client(noisy=True)
    hp = _hp(tau=0.1)
    gp = init_params(5, 8, 3, make_rng(0, 4))
    gc = CentroidSet.empty(3, 8)
    a = local_update(ds, shard, gp, gc, 2, hp, make_rng(0, 6, 2, 0))
    b = local_update(ds, shard, gp, gc, 2, hp, make_rng(0, 6, 2, 0))
    np.testing.assert_array_equal(a.params.theta, b.params.theta)
    np.testing.assert_array_equal(a.centroids.vectors, b.centroids.vectors)
    assert a.mean_train_loss == b.mean_train_loss
    np.testing.assert_array_equal(a.mask, b.mask)


def test_local_update_pure_function_across_clients():
    # Two clients holding identical data and identical rng keys must produce
    # identical uploads.
    ds, shard = _blob_client()
    hp = _hp()
    gp = init_params(5, 8, 3, make_rng(0, 4))
    gc = CentroidSet.empty(3, 8)
    other = shard.copy()
    a = local_update(ds, shard, gp, gc, 1, hp, make_rng(0, 6, 1, 0))
    b = local_update(ds, other, gp, gc, 1, hp, make_rng(0, 6, 1, 0))
    np.testing.assert_array_equal(a.params.theta, b.params.theta)


@pytest.mark.parametrize("method", METHODS)
def test_local_update_zero_epochs_keeps_broadcast(method):
    # No SGD step: the upload is the broadcast weights, a loss of 0.0, and
    # the mask each method starts from (every example flagged where
    # centroids are exchanged, none for ce_baseline).
    ds, shard = _blob_client()
    hp = _hp(local_epochs=0)
    gp = init_params(5, 8, 3, make_rng(0, 4))
    res = local_update(
        ds, shard, gp, CentroidSet.empty(3, 8), 1, hp, make_rng(0, 6, 1, 0), method=method
    )
    np.testing.assert_array_equal(res.params.theta, gp.theta)
    assert res.params.theta is not gp.theta
    assert res.mean_train_loss == 0.0
    _assert_mask_of(res, len(shard))
    want = 1 if method == "ce_baseline" else 0
    np.testing.assert_array_equal(res.mask, np.full(len(shard), want, dtype=np.int64))
    if method in ("ce_baseline", "no_global_centroids_ablation"):
        assert not res.centroids.presence.any() and not res.centroids.vectors.any()
    else:
        assert res.centroids.presence.any()


def test_local_update_does_not_mutate_broadcast():
    ds, shard = _blob_client(noisy=True)
    hp = _hp()
    gp = init_params(5, 8, 3, make_rng(0, 4))
    before = gp.theta.copy()
    gc = CentroidSet.empty(3, 8)
    local_update(ds, shard, gp, gc, 1, hp, make_rng(0, 6, 1, 0))
    np.testing.assert_array_equal(before, gp.theta)
    assert not gc.presence.any()


def test_local_update_reports_local_state():
    ds, shard = _blob_client(noisy=True)
    hp = _hp()
    gp = init_params(5, 8, 3, make_rng(0, 4))
    res = local_update(ds, shard, gp, CentroidSet.empty(3, 8), 1, hp, make_rng(0, 6, 1, 0))
    _assert_mask_of(res, len(shard))
    assert res.centroids.presence.any()
    assert np.isfinite(res.mean_train_loss)


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
        ds, shard, gp, CentroidSet.empty(3, 8), 1, hp, make_rng(0, 6, 1, 0),
        method="ce_baseline",
    )
    # One forward per SGD step, over that step's batch only.
    steps = hp.local_epochs * math.ceil(ds.n / hp.batch_size)
    assert len(forwards) == steps and sum(forwards) == hp.local_epochs * ds.n
    np.testing.assert_array_equal(res.mask, np.ones(len(shard), dtype=np.int64))
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
            ds, shard, gp, CentroidSet.empty(3, 8), round_t, hp,
            make_rng(0, 6, round_t, 0), method=method,
        )
        want = per_update(hp) if round_t >= hp.t_pl else 0
        assert pseudo_calls == [ds.n] * want, (method, round_t)
        # Besides pseudo-labels, one full forward per step: the class means
        # after each step need only the features.
        assert len(forwards) == steps + want, (method, round_t)


@pytest.mark.parametrize("method", METHODS)
def test_local_update_keep_fraction_follows_the_round(monkeypatch, method):
    # Each client derives its small-loss keep fraction from the round it
    # is told, r_schedule(round_t). ce_baseline filters nothing. Without
    # numpy's calls the selection runs small_loss_filter; the C select's
    # keep count is checked in test_a_step_makes_one_select_and_one_refresh.
    import fednoise.localnode as localnode

    monkeypatch.setattr(localnode, "_calls", None)
    ds, shard = _blob_client(noisy=True)
    hp = _hp(tau=0.4, t_horizon=10, local_epochs=1)
    gp = init_params(5, 8, 3, make_rng(0, 4))
    seen = []

    def recording_filter(losses, r_t):
        seen.append(r_t)
        return small_loss_filter(losses, r_t)

    monkeypatch.setattr(localnode, "small_loss_filter", recording_filter)
    for round_t, want in ((1, 1.0), (6, 0.8), (11, 0.6), (20, 0.6)):
        del seen[:]
        local_update(
            ds, shard, gp, CentroidSet.empty(3, 8), round_t, hp,
            make_rng(0, 6, round_t, 0), method=method,
        )
        if method == "ce_baseline":
            assert seen == [], round_t
        else:
            assert seen and set(seen) == {r_schedule(round_t, hp)}, round_t
            assert seen[0] == pytest.approx(want)


def test_local_update_unknown_method():
    ds, shard = _blob_client()
    with pytest.raises(ConfigError):
        local_update(
            ds, shard, init_params(5, 8, 3, make_rng(0, 4)), CentroidSet.empty(3, 8),
            1, _hp(), make_rng(0, 6, 1, 0), method="ensemble",
        )


def test_local_update_empty_shard():
    ds, shard = _blob_client()
    empty = np.array([], dtype=np.int64)
    with pytest.raises(ContractViolation):
        local_update(
            ds, empty, init_params(5, 8, 3, make_rng(0, 4)), CentroidSet.empty(3, 8),
            1, _hp(), make_rng(0, 6, 1, 0),
        )


@settings(max_examples=150)
@given(
    C=st.sampled_from([2, 3]),
    size=st.sampled_from(["one", "under_batch", "ragged"]),
    batch_size=st.sampled_from([1, 4, 7]),
    held=st.sampled_from(["none", "one", "all"]),
    round_t=st.sampled_from([1, 2, 3]),
    method=st.sampled_from(METHODS),
    scale=st.sampled_from([1.0, 1000.0, 0.0]),
    seed=st.integers(0, 2**16),
)
def test_local_update_edge_shapes(C, size, batch_size, held, round_t, method, scale, seed):
    # Shards of one row, of fewer rows than a batch and of a ragged last
    # batch; batches of one; global centroids holding no, one or every
    # class; rounds on both sides of t_pl = 2; inputs scaled to saturate
    # the tanh features or to zero them.
    draw = np.random.default_rng(seed)
    ds = make_blob_split(C, 8, 0, 3, 0.6, seed)[0]
    ds.X *= scale
    flip = draw.random(ds.n) < 0.3
    ds.given_labels[flip] = (ds.given_labels[flip] + 1) % C
    n = {"one": 1, "under_batch": max(1, batch_size - 1), "ragged": batch_size + 2}[size]
    rows = np.sort(draw.permutation(ds.n)[:n]).astype(np.int64)
    hp = _hp(hidden_dim=4, local_epochs=2, batch_size=batch_size, t_pl=2, tau=0.25)
    # Round 1 keeps every row; later rounds drop rows of batches of 4 and 7.
    assert r_schedule(round_t, hp) == (1.0 if round_t == 1 else 0.75)
    gc = CentroidSet.empty(C, 4)
    present = {"none": [], "one": [int(draw.integers(C))], "all": list(range(C))}[held]
    gc.vectors[present] = draw.standard_normal((len(present), 4))
    gc.presence[present] = True
    gp = init_params(3, 4, C, make_rng(seed, 4))
    res = local_update(ds, rows, gp, gc, round_t, hp, make_rng(seed, 6, round_t, 0), method=method)
    assert np.isfinite(res.params.theta).all()
    assert np.isfinite(res.centroids.vectors).all()
    _assert_mask_of(res, n)
    # From round 2 the running centroids start from the broadcast set, and
    # presence only grows; at round 1 (an empty broadcast in a run) a
    # client seeds them from its own class means.
    if method in ("proposed", "naive_pseudo_ablation") and round_t > 1:
        assert (res.centroids.presence >= gc.presence).all()


def test_naive_pseudo_differs_after_gate():
    # Past the pseudo-label gate, refreshing targets from the local model
    # must change the trajectory relative to fixed broadcast targets.
    ds, shard = _blob_client(noisy=True)
    hp = _hp(t_pl=1, local_epochs=3)
    gp = init_params(5, 8, 3, make_rng(0, 4))
    gc = CentroidSet.empty(3, 8)
    a = local_update(ds, shard, gp, gc, 2, hp, make_rng(0, 6, 2, 0))
    b = local_update(
        ds, shard, gp, gc, 2, hp, make_rng(0, 6, 2, 0), method="naive_pseudo_ablation"
    )
    assert not np.array_equal(a.params.theta, b.params.theta)


def test_methods_identical_before_gate():
    # Before t_pl both pseudo-label policies are inert, so the proposed
    # method and the naive ablation coincide exactly.
    ds, shard = _blob_client(noisy=True)
    hp = _hp(t_pl=50)
    gp = init_params(5, 8, 3, make_rng(0, 4))
    gc = CentroidSet.empty(3, 8)
    a = local_update(ds, shard, gp, gc, 2, hp, make_rng(0, 6, 2, 0))
    b = local_update(
        ds, shard, gp, gc, 2, hp, make_rng(0, 6, 2, 0), method="naive_pseudo_ablation"
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
        ds, shard, gp, skewed, 2, hp, make_rng(0, 6, 2, 0),
        method="no_global_centroids_ablation",
    )
    b = local_update(
        ds, shard, gp, empty, 2, hp, make_rng(0, 6, 2, 0),
        method="no_global_centroids_ablation",
    )
    np.testing.assert_array_equal(a.params.theta, b.params.theta)
    # Both uploads are empty: no client of this method reads the merged set.
    assert not a.centroids.presence.any() and not b.centroids.presence.any()


def test_detection_counts_add_up():
    ds, shard = _blob_client(noisy=True)
    hp = _hp()
    gp = init_params(5, 8, 3, make_rng(0, 4))
    res = local_update(ds, shard, gp, CentroidSet.empty(3, 8), 2, hp, make_rng(0, 6, 2, 0))
    # Every example of the shard is either flagged (0) or confident (1);
    # the server counts detections from this mask (test_metrics.py).
    _assert_mask_of(res, len(shard))


@pytest.mark.parametrize("method", METHODS)
def test_local_update_reads_no_true_label(method):
    # Round 4 is past t_pl, with the broadcast centroids of round 1: the
    # upload is the same when the training set holds no true labels.
    ds, shard = _blob_client(noisy=True)
    hp = _hp()
    gp = init_params(5, 8, 3, make_rng(0, 4))
    gc = local_update(ds, shard, gp, CentroidSet.empty(3, 8), 1, hp, make_rng(0, 6, 1, 0)).centroids
    a = local_update(ds, shard, gp, gc, 4, hp, make_rng(0, 6, 4, 0), method=method)
    blind = dataclasses.replace(ds, true_labels=None)
    b = local_update(blind, shard, gp, gc, 4, hp, make_rng(0, 6, 4, 0), method=method)
    assert a.params.theta.tobytes() == b.params.theta.tobytes()
    assert a.centroids.vectors.tobytes() == b.centroids.vectors.tobytes()
    np.testing.assert_array_equal(a.centroids.presence, b.centroids.presence)
    assert a.mean_train_loss == b.mean_train_loss
    assert a.mask.tobytes() == b.mask.tobytes()


# ------------------------------------------------- the C functions of _local.c


needs_local = pytest.mark.skipif(localnode._local is None, reason="no C compiler built the kernels")


def _on_both_paths(name, fn, status=0):
    """fn() with the C functions of _local.c, then with numpy's lines; the
    first run must call the C function of that name once, and it must
    return status."""
    statuses = []
    kernel = getattr(localnode._local, name)

    def counted(*args):
        statuses.append(kernel(*args))
        return statuses[-1]

    out = []
    for kernels in (localnode._local._replace(**{name: counted}), None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(localnode, "_local", kernels)
            out.append(fn())
    assert statuses == [status], f"the C function {name} returned {statuses}"
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == np.bool_:
        assert np.array_equal(a, b)
    else:
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _with_signed_zeros(rng, a):
    """a with about a tenth of its entries set to -0.0 or 0.0."""
    hit = rng.random(a.shape) < 0.1
    a[hit] = np.where(rng.random(a.shape) < 0.5, -0.0, 0.0)[hit]
    return a


def _mask(rng, kind, B):
    return {"zeros": np.zeros(B, np.int64), "ones": np.ones(B, np.int64)}.get(kind, rng.integers(0, 2, B))


@needs_local
@given(
    st.integers(1, 60), st.integers(2, 12), st.integers(1, 70), st.integers(0, 2**32 - 1),
    st.sampled_from(["zeros", "ones", "mixed"]), st.booleans(), st.booleans(),
    st.sampled_from([0.0, 0.7, 1.0]), st.sampled_from([0.0, 0.8]), st.booleans(),
)
def test_loss_kernel_bit_equals_numpy(B, C, d_h, seed, mask_kind, pseudo, centroids, lam_cen, lam_e, zero_logp):
    rng = np.random.default_rng(seed)
    probs, logp = _softmax_and_log(rng.normal(scale=3.0, size=(B, C)))
    if zero_logp:  # every product the classification term sums is -0.0
        logp[:] = -0.0
    rec = ForwardRecord(_with_signed_zeros(rng, np.tanh(rng.normal(size=(B, d_h)))), probs, logp)
    y = rng.integers(0, rng.integers(1, C + 1), B)  # a prefix of the classes
    y_pseudo = rng.dirichlet(np.ones(C), B) if pseudo else None
    cents = _cset(_with_signed_zeros(rng, rng.normal(size=(C, d_h)))) if centroids else None
    mask = _mask(rng, mask_kind, B)
    kernel, reference = _on_both_paths(
        "loss", lambda: total_loss_and_grads(rec, y, y_pseudo, mask, cents, lam_cen, lam_e)
    )
    _same_bits(dataclasses.astuple(kernel[0]), dataclasses.astuple(reference[0]))
    for got, want in zip(kernel[1:], reference[1:]):
        _same_bits(got, want)


def _refresh_case(rng, B, C, d_h, d_in=6):
    """params, a batch X (B x d_in) with -0.0 entries, labels from a
    prefix of the classes and a random sorted subset of the rows."""
    params = init_params(d_in, d_h, C, rng)
    params.b1[...] = rng.normal(size=d_h)
    X = _with_signed_zeros(rng, rng.normal(scale=2.0, size=(B, d_in)))
    y = rng.integers(0, rng.integers(1, C + 1), B)  # some classes have no row
    sel = np.flatnonzero(rng.random(B) < 0.7)
    return params, X, y, sel if len(sel) else np.arange(B)


def _refresh_status(sel, d_h):
    # The forward pass of fewer than two rows, or of a side of 1, takes no
    # gemm: refresh returns 1 and numpy's lines run.
    return 0 if min(len(sel), d_h) >= 2 else 1


@needs_local
@given(st.integers(1, 60), st.integers(2, 12), st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_class_means_kernel_bit_equals_numpy(B, C, d_h, seed):
    # refresh's class means: with no running centroid present, each
    # present class adopts its fresh mean, so the result is the means.
    rng = np.random.default_rng(seed)
    params, X, y, sel = _refresh_case(rng, B, C, d_h)
    empty = CentroidSet.empty(C, d_h)
    for replace in (True, False):
        kernel, reference = _on_both_paths(
            "refresh", lambda: localnode._refresh(params, X, y, sel, empty, C, replace), _refresh_status(sel, d_h)
        )
        want = class_mean_features(mlp_features(params, X[sel]), y[sel], C)
        for got in (kernel, reference):
            _same_bits(got.vectors, want.vectors)
            _same_bits(got.presence, want.presence)


@needs_local
@given(st.integers(1, 60), st.integers(2, 12), st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_blend_kernel_bit_equals_numpy(B, C, d_h, seed):
    # refresh's blend of the fresh means into running centroids with zero
    # rows (whose cosine is 0), for each pair of presences; and the
    # replace of no_global_centroids_ablation.
    rng = np.random.default_rng(seed)
    params, X, y, sel = _refresh_case(rng, B, C, d_h)
    vectors = _with_signed_zeros(rng, rng.normal(size=(C, d_h)))
    vectors[rng.random(C) < 0.2] = 0.0
    running = CentroidSet(C, vectors, rng.random(C) < 0.6)
    for replace in (False, True):
        kernel, reference = _on_both_paths(
            "refresh", lambda: localnode._refresh(params, X, y, sel, running, C, replace), _refresh_status(sel, d_h)
        )
        _same_bits(kernel.vectors, reference.vectors)
        _same_bits(kernel.presence, reference.presence)


def _select_on_both_paths(rec, y, r_t, running, n, idx, status):
    """The subset and shard mask from _select with the C functions and
    with numpy's lines, each from a fresh mask of n rows."""

    def select():
        mask = np.full(n, 7, dtype=np.int64)  # neither 0 nor 1: every write shows
        return localnode._select(rec, y, r_t, running, mask, idx), mask

    return _on_both_paths("select", select, status)


@needs_local
@given(
    st.integers(1, 60), st.integers(2, 10), st.sampled_from([1, 2, 8, 64]), st.integers(0, 2**32 - 1),
    st.sampled_from([None, 0.0, np.nan, np.inf]), st.booleans(),
)
def test_similarity_kernel_bit_equals_numpy(B, C, d_h, seed, row, tie):
    # select's similarity labels: zero centroid rows (cosine 0), absent
    # classes (-inf), a tie, and in some cases a feature row of zeros, NaN
    # (the first NaN wins) or inf. With each class as every row's label,
    # the masks spell out the labels.
    rng = np.random.default_rng(seed)
    features = _with_signed_zeros(rng, rng.normal(size=(B, d_h)))
    if row is not None:
        features[rng.integers(B)] = row
    vectors = _with_signed_zeros(rng, rng.normal(size=(C, d_h)))
    vectors[rng.random(C) < 0.2] = 0.0
    if tie:
        vectors[-1] = vectors[0]
    presence = rng.random(C) < 0.7
    presence[rng.integers(C)] = True
    cents = CentroidSet(C, vectors, presence)
    probs, logp = _softmax_and_log(rng.normal(size=(B, C)))
    rec = ForwardRecord(features, probs, logp)
    n = B + 5
    idx = rng.permutation(n)[:B]
    # A side of 1 is a product numpy's matmul does not hand to gemm.
    status = 0 if min(B, C, d_h) >= 2 else 1
    with np.errstate(all="ignore"):
        for y in [rng.integers(0, C, B)] + [np.full(B, c) for c in range(C)]:
            (sel, mask), (want_sel, want_mask) = _select_on_both_paths(rec, y, 0.5, cents, n, idx, status)
            _same_bits(sel, want_sel)
            _same_bits(mask, want_mask)


@needs_local
@given(st.integers(1, 60), st.integers(2, 10), st.integers(0, 2**32 - 1), st.floats(0.01, 1.0))
def test_select_kernel_bit_equals_numpy(B, C, seed, r_t):
    # select's small-loss subset: losses with many ties (the cut falls
    # inside a tie), -0.0, inf and NaN losses (NaN last).
    rng = np.random.default_rng(seed)
    y = rng.integers(0, C, B)
    logp = -rng.integers(0, 4, (B, C)).astype(np.float64)
    spoil = rng.random(B)
    logp[spoil < 0.1, :] = np.nan
    logp[(spoil >= 0.1) & (spoil < 0.2), :] = -np.inf
    rec = ForwardRecord(rng.normal(size=(B, 4)), np.exp(logp), logp)
    cents = CentroidSet(C, rng.normal(size=(C, 4)), np.ones(C, dtype=bool))
    idx = rng.permutation(B)
    status = 0 if B >= 2 else 1
    (sel, mask), (want_sel, want_mask) = _select_on_both_paths(rec, y, r_t, cents, B, idx, status)
    _same_bits(sel, want_sel)
    _same_bits(mask, want_mask)
    losses = -logp[np.arange(B), y]
    ranked = sorted(range(B), key=lambda i: (np.isnan(losses[i]), np.nan_to_num(losses[i], nan=0.0), i))
    assert sel.tolist() == sorted(ranked[: math.ceil(r_t * B)])


def _kernels_off(mp):
    """Every function of numkit and localnode on its numpy lines but sgd_step."""
    mp.setattr(localnode, "_local", None)
    mp.setattr(numkit, "_mlp", None)


def _784_client(seed=0, C=10, n_per_class=12):
    ds = make_blob_split(C, n_per_class, 0, 784, 0.7, seed)[0]
    flip = np.arange(0, ds.n, 5)
    ds.given_labels[flip] = (ds.given_labels[flip] + 1) % C
    return ds, partition_iid(ds, 1, seed=seed)[0]


@needs_local
@pytest.mark.skipif(numkit._mlp is None, reason="no C compiler built the kernels")
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("client", ["desk", "784-d"])
def test_local_update_bytes_are_the_same_without_the_kernels(method, client):
    # Round 1 seeds the centroids from the shard; round 4 is past t_pl,
    # with pseudo-labels and round 1's centroids as the broadcast set.
    # Batches of 16 leave a ragged last batch.
    ds, shard = _blob_client(noisy=True) if client == "desk" else _784_client()
    hp = _hp()
    gp = init_params(ds.X.shape[1], hp.hidden_dim, ds.C, make_rng(0, 4))
    runs = []
    for off in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if off:
                _kernels_off(mp)
            first = local_update(ds, shard, gp, CentroidSet.empty(ds.C, 8), 1, hp, make_rng(0, 6, 1, 0), method)
            later = local_update(ds, shard, gp, first.centroids, 4, hp, make_rng(0, 6, 4, 0), method)
        runs.append([
            b"".join((r.params.theta.tobytes(), r.centroids.vectors.tobytes(), r.centroids.presence.tobytes(),
                      r.mask.tobytes(), np.float64(r.mean_train_loss).tobytes()))
            for r in (first, later)
        ])
    assert runs[0] == runs[1]


@needs_local
def test_without_numpys_calls_the_labels_and_blend_call_no_c(monkeypatch):
    # Where numpy's BLAS and loops are not bound, the step's bookkeeping
    # (similarity labels, class means and blend) runs its numpy lines
    # without calling _local.c's select or refresh; the loss still runs
    # in C, and the bytes are the same.
    ds, shard = _blob_client(noisy=True)
    gp = init_params(5, 8, 3, make_rng(0, 4))
    hp = _hp(t_pl=1)
    kernels, runs = localnode._local, []
    for numpy_calls in (localnode._calls, None):
        called = set()

        def counted(name):
            def call(*args):
                called.add(name)
                return getattr(kernels, name)(*args)

            return call

        monkeypatch.setattr(localnode, "_calls", numpy_calls)
        monkeypatch.setattr(localnode, "_local", localnode.LocalKernels(*map(counted, kernels._fields)))
        res = local_update(ds, shard, gp, CentroidSet.empty(3, 8), 2, hp, make_rng(0, 6, 2, 0))
        runs.append((res.params.theta.tobytes(), res.centroids.vectors.tobytes(), res.mask.tobytes()))
        on_c = set(kernels._fields) - ({"select", "refresh"} if numpy_calls is None else set())
        assert called == on_c
    assert runs[0] == runs[1]


def _counting_kernels(calls):
    """localnode's kernels, each appending (name, args, status) to calls."""
    kernels = localnode._local

    def counted(name):
        def call(*args):
            calls.append((name, args, getattr(kernels, name)(*args)))
            return calls[-1][2]

        return call

    return localnode.LocalKernels(*map(counted, kernels._fields))


def _upload_bytes(res):
    return b"".join((res.params.theta.tobytes(), res.centroids.vectors.tobytes(),
                     res.centroids.presence.tobytes(), res.mask.tobytes(),
                     np.float64(res.mean_train_loss).tobytes()))


@needs_local
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n, last", [(33, 1), (39, 7)])
def test_local_update_bytes_are_the_same_without_the_kernels_on_ragged_shards(monkeypatch, method, n, last):
    # Shards whose last batch of 16 has 1 or 7 rows, at round 1 (keep
    # everything) and round 4 (past t_pl, keep 0.1: a batch of 7 keeps a
    # single row, which refresh refuses, as does select on a batch of 1).
    ds, _ = _blob_client(noisy=True)
    shard = np.sort(np.random.default_rng(n).permutation(ds.n)[:n]).astype(np.int64)
    hp = _hp(tau=0.9)
    assert n % hp.batch_size == last and r_schedule(4, hp) == pytest.approx(0.1)
    gp = init_params(5, hp.hidden_dim, 3, make_rng(0, 4))
    runs, calls = [], []
    for kernels in (_counting_kernels(calls), None):
        monkeypatch.setattr(localnode, "_local", kernels)
        first = local_update(ds, shard, gp, CentroidSet.empty(3, 8), 1, hp, make_rng(0, 6, 1, 0), method)
        later = local_update(ds, shard, gp, first.centroids, 4, hp, make_rng(0, 6, 4, 0), method)
        runs.append(_upload_bytes(first) + _upload_bytes(later))
    assert runs[0] == runs[1]
    statuses = {name: {status for called, _, status in calls if called == name} for name in ("select", "refresh")}
    if method == "ce_baseline":
        assert statuses == {"select": set(), "refresh": set()}
    else:
        # Both paths ran: the C calls and, where they refused, numpy's lines.
        assert statuses["refresh"] == {0, 1}
        assert statuses["select"] == ({0, 1} if last == 1 else {0})


@needs_local
@pytest.mark.parametrize("method", METHODS)
def test_a_step_makes_one_select_and_one_refresh(monkeypatch, method):
    # Each step of a method that keeps centroids makes one select call,
    # keeping ceil(r_t * B) rows of its batch of B, and one refresh call;
    # ce_baseline makes neither. Steps are counted by sgd_step.
    ds, shard = _blob_client(noisy=True)
    hp = _hp(tau=0.3, local_epochs=2)
    gp = init_params(5, hp.hidden_dim, 3, make_rng(0, 4))
    calls, steps = [], []
    monkeypatch.setattr(localnode, "_local", _counting_kernels(calls))

    def counted_step(*args):
        steps.append(len(calls))
        sgd_step(*args)

    monkeypatch.setattr(localnode, "sgd_step", counted_step)
    local_update(ds, shard, gp, CentroidSet.empty(3, 8), 2, hp, make_rng(0, 6, 2, 0), method)
    names = [name for name, _, _ in calls]
    assert len(steps) == hp.local_epochs * math.ceil(len(shard) / hp.batch_size)
    if method == "ce_baseline":
        assert names == ["loss"] * len(steps)
        return
    assert names == ["select", "loss", "refresh"] * len(steps)
    # Each step's select comes before its sgd_step, and its refresh after.
    assert steps == [3 * i + 2 for i in range(len(steps))]
    r_t = r_schedule(2, hp)
    for _, args, status in calls[::3]:
        B, k = args[5], args[11]
        assert status == 0 and k == math.ceil(r_t * B)


@needs_local
def test_the_probe_rejects_a_select_that_breaks_loss_ties_to_the_higher_index():
    # A select that keeps the same number of rows, but of equal losses the
    # later ones, fails the probe: its cut falls inside a tie. The same
    # rewrite with ties to the lower index passes it.
    kernels = localnode._local

    def at(arg, dtype, shape):
        """The array of dtype and shape that starts at the argument arg."""
        size = math.prod(shape) * np.dtype(dtype).itemsize
        return np.frombuffer((ctypes.c_ubyte * size).from_address(ctypes.addressof(arg)), dtype).reshape(shape)

    def ties_to(direction):
        def select(calls, logp, hidden, y, idx, B, C, d, V, present, eps, k, n, mask, sel):
            status = kernels.select(calls, logp, hidden, y, idx, B, C, d, V, present, eps, k, n, mask, sel)
            losses = -at(logp, np.float64, (B, C))[np.arange(B), at(y, np.int64, (B,))]
            order = np.lexsort((direction * np.arange(B), losses))  # NaN last
            at(sel, np.int64, (k,))[:] = np.sort(order[:k])
            return status

        return select

    assert _native.checked(kernels._replace(select=ties_to(1)), localnode._probe) is not None
    assert _native.checked(kernels._replace(select=ties_to(-1)), localnode._probe) is None


def test_a_diverging_784d_client_raises_the_same_error_on_both_paths():
    # A learning rate of 1e300 makes the client diverge in its first
    # epoch, with the kernels and on numpy's lines alike; neither writes
    # what it was given.
    ds, shard = _784_client()
    gp = init_params(784, 8, ds.C, make_rng(0, 4))
    given = (ds.X, ds.given_labels, shard, gp.theta)
    before = [a.tobytes() for a in given]
    errors = []
    for off in (False, True):
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            if off:
                _kernels_off(mp)
            with pytest.raises(TrainingDiverged) as exc:
                local_update(ds, shard, gp, CentroidSet.empty(ds.C, 8), 2, _hp(learning_rate=1e300),
                             make_rng(0, 6, 2, 0))
        errors.append(str(exc.value))
        assert [a.tobytes() for a in given] == before
    assert errors[0] == errors[1]


@needs_local
@pytest.mark.parametrize(
    "term, spoil",
    [
        ("classification", lambda rec: rec.logp.__setitem__((0, slice(None)), -np.inf)),
        ("centroid", lambda rec: rec.hidden.__setitem__((1, 0), np.nan)),
        ("entropy", lambda rec: rec.probs.__setitem__((2, 1), np.inf)),
    ],
)
def test_non_finite_term_raises_the_same_error_on_both_paths(rng, term, spoil):
    params, X, y, pseudo, _, cents = _loss_instance(rng)
    mask = np.ones(len(y), dtype=np.int64)
    for kernels in (localnode._local, None):
        rec = mlp_forward(params, X)
        spoil(rec)
        with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore", over="ignore"):
            mp.setattr(localnode, "_local", kernels)
            with pytest.raises(TrainingDiverged) as exc:
                total_loss_and_grads(rec, y, pseudo, mask, cents, 1.0, 0.8)
        assert str(exc.value) == f"{term} loss became non-finite"


@needs_local
@pytest.mark.parametrize("fault", ["loss", "select", "refresh"])
def test_a_kernel_that_fails_its_probe_is_not_used(monkeypatch, fault):
    kernels = localnode._local

    def faulty(*args):
        # The kernel's result, with the lowest bit of its last array's
        # first byte flipped.
        status = getattr(kernels, fault)(*args)
        ctypes.c_ubyte.from_address(ctypes.addressof(args[-1])).value ^= 1
        return status

    assert _native.checked(kernels, localnode._probe) is kernels
    assert _native.checked(kernels._replace(**{fault: faulty}), localnode._probe) is None
    assert localnode._local is kernels  # the probe put the binding back
    # Where no kernel passes, the functions run numpy's lines: a local
    # update gives the bits it gives with the kernels.
    ds, shard = _blob_client(noisy=True)
    gp = init_params(5, 8, 3, make_rng(0, 4))
    hp = _hp(t_pl=1)
    runs = []
    for bound in (kernels, _native.checked(kernels._replace(**{fault: faulty}), localnode._probe)):
        monkeypatch.setattr(localnode, "_local", bound)
        res = local_update(ds, shard, gp, CentroidSet.empty(3, 8), 2, hp, make_rng(0, 6, 2, 0))
        runs.append((res.params.theta.tobytes(), res.centroids.vectors.tobytes(), res.mask.tobytes()))
    assert runs[0] == runs[1]


def _outcome(fn):
    """fn()'s result, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as e:  # noqa: BLE001
        return type(e), str(e)


@needs_local
@pytest.mark.parametrize("bad", [-1, 3, 4])
def test_a_label_out_of_range_runs_numpys_lines(rng, bad):
    # The C functions read no label outside [0, C): they return at once
    # and numpy's lines run, which wrap -1 and fail on the others.
    params, X, y, pseudo, mask, cents = _loss_instance(rng, C=3)
    rec = mlp_forward(params, X)
    y = y.copy()
    y[2] = bad
    running = CentroidSet(3, rng.normal(size=(3, rec.hidden.shape[1])), np.ones(3, dtype=bool))
    rows = np.arange(len(y))

    def select():
        shard_mask = np.zeros(len(y), dtype=np.int64)
        return localnode._select(rec, y, 0.5, running, shard_mask, rows), shard_mask

    for name, fn in [
        ("loss", lambda: total_loss_and_grads(rec, y, pseudo, mask, cents, 1.0, 0.8)),
        ("loss", lambda: total_loss_and_grads(rec, y, None, mask, None, 0.0, 0.0)),
        ("select", select),
        ("refresh", lambda: localnode._refresh(params, X, y, rows, running, 3, False)),
    ]:
        kernel, reference = _on_both_paths(name, lambda: _outcome(fn), status=1)
        if isinstance(reference, tuple) and isinstance(reference[0], type):
            assert kernel == reference
        elif name == "loss":
            assert dataclasses.astuple(kernel[0]) == dataclasses.astuple(reference[0])
            _same_bits(kernel[1], reference[1])
            _same_bits(kernel[2], reference[2])
        elif name == "select":
            _same_bits(kernel[0], reference[0])
            _same_bits(kernel[1], reference[1])
        else:
            _same_bits(kernel.vectors, reference.vectors)
