import contextlib
import copy
import dataclasses
import itertools
import math
import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fednoise import _native, coordinator, localnode
from fednoise.bench import build_datasets, load_config, resolve_config
from fednoise.coordinator import (
    FederationConfig,
    aggregate_global_centroids,
    evaluate_accuracy,
    fedavg,
    run_training,
    select_clients,
)
from fednoise.datagen import make_blob_split, partition_iid
from fednoise.errors import ConfigError, ContractViolation
from fednoise.localnode import (
    METHODS,
    CentroidSet,
    HyperParams,
    LocalUpdateResult,
    MethodSpec,
    r_schedule,
)
from fednoise.metrics import CSV_COLUMNS, records_to_csv, write_csv
from fednoise.noise import apply_noise
from fednoise.numkit import ModelParams, cosine_similarity, init_params, mlp_forward, mlp_logits
from fednoise.seeds import STREAM_INIT, STREAM_LOCAL, STREAM_SELECT, make_rng


def test_select_clients_all_when_m_equals_n():
    got = select_clients(6, 6, make_rng(0, 5, 1))
    np.testing.assert_array_equal(got, np.arange(6))


def test_select_clients_sorted_and_deterministic():
    a = select_clients(30, 7, make_rng(3, 5, 2))
    b = select_clients(30, 7, make_rng(3, 5, 2))
    np.testing.assert_array_equal(a, b)
    assert (np.diff(a) > 0).all()
    assert len(np.unique(a)) == 7


@given(st.integers(1, 20), st.integers(0, 50))
def test_select_clients_within_range(m, t):
    got = select_clients(20, m, make_rng(0, 5, t))
    assert len(got) == m
    assert got.min() >= 0 and got.max() < 20


def test_select_clients_rejects_oversample():
    with pytest.raises(ConfigError):
        select_clients(3, 4, make_rng(0, 5, 1))


def _result(params, C=2, d_h=3) -> LocalUpdateResult:
    return LocalUpdateResult(
        params=params,
        centroids=CentroidSet.empty(C, d_h),
        mean_train_loss=0.0,
        mask=np.ones(1, dtype=np.int64),
    )


def _const_params(value, d_in=2, d_h=3, C=2):
    p = ModelParams.zeros(d_in, d_h, C)
    p.theta += value
    return p


def test_fedavg_single_client_verbatim(rng):
    p = init_params(3, 4, 2, rng)
    out = fedavg([_result(p, C=2, d_h=4)], [17])
    np.testing.assert_array_equal(out.theta, p.theta)


def test_fedavg_equal_sizes_mean():
    out = fedavg([_result(_const_params(0.0)), _result(_const_params(2.0))], [5, 5])
    np.testing.assert_allclose(out.theta, 1.0)


def test_fedavg_weighted_hand_case():
    # n_k = 1 and 3: the average is 0.25*0 + 0.75*4 = 3.
    out = fedavg([_result(_const_params(0.0)), _result(_const_params(4.0))], [1, 3])
    np.testing.assert_allclose(out.theta, 3.0)


def test_fedavg_convex_envelope(rng):
    results = [_result(init_params(2, 3, 2, rng)) for _ in range(4)]
    sizes = [1, 2, 3, 4]
    out = fedavg(results, sizes)
    stack = np.stack([r.params.theta for r in results])
    flat = out.theta
    assert (flat >= stack.min(axis=0) - 1e-12).all()
    assert (flat <= stack.max(axis=0) + 1e-12).all()


def test_fedavg_returns_fresh_params(rng):
    p = init_params(2, 3, 2, rng)
    before = p.theta.copy()
    out = fedavg([_result(p)], [1])
    assert not np.shares_memory(out.theta, p.theta)
    out.theta += 5.0
    np.testing.assert_array_equal(p.theta, before)


def test_fedavg_guards():
    with pytest.raises(ContractViolation):
        fedavg([], [])
    with pytest.raises(ContractViolation):
        fedavg([_result(_const_params(1.0))], [1, 2])
    with pytest.raises(ContractViolation):
        fedavg([_result(_const_params(1.0))], [0])


def _cents(vectors, presence=None):
    vectors = np.asarray(vectors, dtype=float)
    if presence is None:
        presence = np.ones(len(vectors), dtype=bool)
    return CentroidSet(C=len(vectors), vectors=vectors, presence=np.asarray(presence))


def test_aggregate_identical_upload_passes_through():
    prev = _cents([[1.0, 0.0], [0.0, 1.0]])
    out = aggregate_global_centroids(prev, [copy.deepcopy(prev)])
    np.testing.assert_allclose(out.vectors, prev.vectors, atol=1e-15)


def test_aggregate_equal_uploads_ignore_prev(rng):
    prev = _cents(rng.normal(size=(2, 3)))
    x = rng.normal(size=(2, 3))
    out = aggregate_global_centroids(prev, [_cents(x.copy()) for _ in range(4)])
    np.testing.assert_allclose(out.vectors, x, atol=1e-12)


def test_aggregate_missing_class_keeps_prev():
    prev = _cents([[1.0, 2.0], [3.0, 4.0]])
    upload = _cents([[5.0, 6.0], [0.0, 0.0]], presence=[True, False])
    out = aggregate_global_centroids(prev, [upload])
    np.testing.assert_allclose(out.vectors[0], [5.0, 6.0])
    np.testing.assert_allclose(out.vectors[1], [3.0, 4.0])


def test_aggregate_weights_follow_cosine():
    # One upload aligned with prev, one anti-aligned: the disagreeing
    # client is clamped to the floor weight and all but vanishes.
    prev = _cents([[1.0, 0.0]])
    good = _cents([[2.0, 0.0]])
    bad = _cents([[-1.0, 0.0]])
    out = aggregate_global_centroids(prev, [good, bad])
    np.testing.assert_allclose(out.vectors[0], [2.0, 0.0], atol=1e-4)


def test_aggregate_brute_force_oracle(rng):
    W_FLOOR = 1e-6
    for _ in range(100):
        C, d = 3, 4
        prev = CentroidSet(
            C=C, vectors=rng.normal(size=(C, d)), presence=rng.random(C) > 0.3
        )
        uploads = []
        for _k in range(rng.integers(1, 5)):
            uploads.append(
                CentroidSet(
                    C=C, vectors=rng.normal(size=(C, d)), presence=rng.random(C) > 0.3
                )
            )
        got = aggregate_global_centroids(prev, uploads)
        for c in range(C):
            holders = [u for u in uploads if u.presence[c]]
            if not holders:
                np.testing.assert_array_equal(got.vectors[c], prev.vectors[c])
                assert got.presence[c] == prev.presence[c]
                continue
            if prev.presence[c]:
                ws = [
                    max(cosine_similarity(prev.vectors[c], u.vectors[c]), W_FLOOR)
                    for u in holders
                ]
            else:
                ws = [1.0] * len(holders)
            total = sum(ws)
            expect = sum(
                (w / total) * u.vectors[c] for w, u in zip(ws, holders)
            )
            np.testing.assert_allclose(got.vectors[c], expect, atol=1e-10)
            assert got.presence[c]


# The per-class loop that aggregate_global_centroids replaced; the
# vectorized merge must give its bits.


def loop_aggregate_global_centroids(prev_global, client_sets, w_floor=1e-6):
    if not client_sets:
        raise ContractViolation("aggregate_global_centroids: no client centroid sets")
    out = copy.deepcopy(prev_global)
    for c in range(prev_global.C):
        holders = [cs for cs in client_sets if cs.presence[c]]
        if not holders:
            continue
        weights = np.array(
            [
                max(cosine_similarity(prev_global.vectors[c], cs.vectors[c]), w_floor)
                for cs in holders
            ]
            if prev_global.presence[c]
            else [1.0] * len(holders)
        )
        weights = weights / weights.sum()
        out.vectors[c] = sum(w * cs.vectors[c] for w, cs in zip(weights, holders))
        out.presence[c] = True
    return out


def _centroid_rows(draw, C, d_h):
    vectors = draw(arrays(np.float64, (C, d_h), elements=st.floats(-5, 5)))
    # Zero rows and rows below the cosine's zero-norm threshold.
    vectors[draw(arrays(np.bool_, C))] = 0.0
    vectors[draw(arrays(np.bool_, C))] *= 1e-14
    return CentroidSet(C=C, vectors=vectors, presence=draw(arrays(np.bool_, C)))


@st.composite
def aggregate_cases(draw):
    # K from 1 to 10: numpy sums eight or more weights pairwise.
    C, d_h, K = draw(st.integers(1, 6)), draw(st.integers(1, 9)), draw(st.integers(1, 10))
    prev = _centroid_rows(draw, C, d_h)
    return prev, [_centroid_rows(draw, C, d_h) for _ in range(K)]


def _same_centroids(a, b):
    return np.array_equal(a.vectors, b.vectors) and np.array_equal(a.presence, b.presence)


@given(aggregate_cases())
def test_aggregate_bit_equals_loop(case):
    prev, uploads = case
    before = copy.deepcopy([prev] + uploads)
    got = aggregate_global_centroids(prev, uploads)
    assert _same_centroids(got, loop_aggregate_global_centroids(prev, uploads))
    # No input is written.
    assert all(_same_centroids(a, b) for a, b in zip([prev] + uploads, before))


def test_aggregate_many_holders_bit_equal_loop(rng):
    # Every class held by 8 to 10 clients, and by a ragged subset. With a
    # single entry per upload, numpy would sum an axis pairwise.
    for C, d, K in itertools.product((1, 4), (1, 16), (8, 9, 10)):
        for _ in range(20):
            prev = CentroidSet(C, rng.normal(size=(C, d)), np.ones(C, bool))
            full = [CentroidSet(C, rng.normal(size=(C, d)), np.ones(C, bool)) for _ in range(K)]
            ragged = [CentroidSet(C, u.vectors, rng.random(C) > 0.2) for u in full]
            for uploads in (full, ragged):
                got = aggregate_global_centroids(prev, uploads)
                assert _same_centroids(got, loop_aggregate_global_centroids(prev, uploads))


# A merged coordinate is sum_k (w_k / W) v_k, rounded. With n senders,
# the weights, the products and the running sum each add a relative
# error of at most about n eps, so to first order the result lies within
# n eps max_k |v_k| of its senders' range. The test allows (2n + 1) eps
# max_k |v_k|; a weight set that is not normalised misses by far more.
EPS = np.finfo(np.float64).eps


@st.composite
def merge_cases(draw):
    C, d_h, K = draw(st.integers(2, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    prev = _centroid_rows(draw, C, d_h)
    return prev, [_centroid_rows(draw, C, d_h) for _ in range(K)]


@given(merge_cases())
def test_aggregate_is_a_convex_combination_of_its_senders(case):
    prev, uploads = case
    got = aggregate_global_centroids(prev, uploads)
    assert np.array_equal(got.presence, prev.presence | np.any([u.presence for u in uploads], axis=0))
    for c in range(prev.C):
        senders = np.array([u.vectors[c] for u in uploads if u.presence[c]])
        if len(senders) == 0:
            assert got.vectors[c].tobytes() == prev.vectors[c].tobytes()
        elif len(senders) == 1:
            assert (got.vectors[c] == senders[0]).all()
        else:
            tol = (2 * len(senders) + 1) * EPS * np.abs(senders).max(axis=0)
            assert (senders.min(axis=0) - tol <= got.vectors[c]).all()
            assert (got.vectors[c] <= senders.max(axis=0) + tol).all()


def test_aggregate_ignores_unreported_rows():
    # A row a client did not report does not reach the result, even if
    # it is not finite.
    prev = _cents([[1.0, 0.0], [0.0, 1.0]])
    upload = _cents([[2.0, 1.0], [np.nan, np.inf]], presence=[True, False])
    out = aggregate_global_centroids(prev, [upload])
    np.testing.assert_array_equal(out.vectors, [[2.0, 1.0], [0.0, 1.0]])


def test_aggregate_requires_uploads():
    with pytest.raises(ContractViolation):
        aggregate_global_centroids(_cents([[1.0, 0.0]]), [])


def test_evaluate_accuracy_trivial():
    ds = make_blob_split(2, 20, 0, 3, 0.4, 0)[0]
    p = ModelParams.zeros(3, 4, 2)
    acc = evaluate_accuracy(p, ds)
    # Zero model predicts class 0 everywhere on a balanced set.
    assert acc == pytest.approx(0.5)


def test_evaluate_accuracy_is_argmax_of_forward_logits(rng):
    ds = make_blob_split(10, 20, 0, 784, 0.6, 0)[0]
    p = init_params(784, 64, 10, rng)
    pred = (mlp_forward(p, ds.X).hidden @ p.W2 + p.b2).argmax(axis=1)
    assert evaluate_accuracy(p, ds) == float((pred == ds.true_labels).mean())


def _tiny_setup(eps=0.0, seed=0):
    train, test = make_blob_split(C=3, train_per_class=40, test_per_class=20, d_in=4, spread=0.6, seed=seed)
    shards = partition_iid(train, 6, seed=seed)
    if eps > 0:
        from fednoise.noise import NoiseSpec, apply_noise

        apply_noise(train, shards, NoiseSpec(kind="symmetric", epsilon=eps, seed=seed))
    fed = FederationConfig(num_clients=6, clients_per_round=3, rounds=8)
    hp = HyperParams(
        hidden_dim=8, local_epochs=2, batch_size=10, t_pl=3, t_horizon=4, tau=eps
    )
    return train, test, shards, fed, hp


def test_run_training_zero_rounds():
    train, test, shards, fed, hp = _tiny_setup()
    fed.rounds = 0
    params, records = run_training(train, test, shards, fed, hp, seed=0)
    assert records == []
    assert params.d_in == 4


def test_run_training_records_well_formed():
    train, test, shards, fed, hp = _tiny_setup(eps=0.3)
    params, records = run_training(train, test, shards, fed, hp, seed=0)
    assert len(records) == 8
    assert [r.round for r in records] == list(range(1, 9))
    for r in records:
        assert 0.0 <= r.test_accuracy <= 1.0
        assert 0.0 <= r.confident_fraction <= 1.0
        assert 0.0 <= r.mask_precision <= 1.0
        assert 0.0 <= r.mask_recall <= 1.0
        assert np.isfinite(r.mean_train_loss)
        assert np.isfinite(r.weight_divergence)
    # R_t follows the published schedule given the round index.
    for r in records:
        assert r.r_t == pytest.approx(r_schedule(r.round, hp))


def test_run_training_deterministic():
    train, test, shards, fed, hp = _tiny_setup(eps=0.3)
    import copy

    runs = []
    for _ in range(3):
        t2 = copy.deepcopy(train)
        s2 = copy.deepcopy(shards)
        params, records = run_training(t2, test, s2, fed, hp, seed=4)
        runs.append((params.theta, records))
    for flat, records in runs[1:]:
        np.testing.assert_array_equal(runs[0][0], flat)
        for a, b in zip(runs[0][1], records):
            assert (a.round, a.test_accuracy, a.mean_train_loss) == (
                b.round,
                b.test_accuracy,
                b.mean_train_loss,
            )
            assert (a.weight_divergence, a.r_t) == (b.weight_divergence, b.r_t)


@pytest.mark.parametrize("method", METHODS)
def test_single_participant_rounds(monkeypatch, method):
    # With one client a round, weight divergence is undefined and each
    # round records 0.0; the run needs one process whatever the CPUs.
    monkeypatch.setattr(coordinator, "_usable_cpus", lambda: 3)
    processes = []
    close = coordinator._ClientProcesses.close

    def recording_close(self):
        processes.append((self.processes, len(self.procs)))
        close(self)

    monkeypatch.setattr(coordinator._ClientProcesses, "close", recording_close)
    train, test, shards, fed, hp = _tiny_setup(eps=0.3)
    fed.clients_per_round = 1
    _, records = run_training(train, test, shards, fed, hp, seed=0, method=method)
    assert [r.round for r in records] == list(range(1, fed.rounds + 1))
    for r in records:
        assert all(np.isfinite(getattr(r, column)) for column in CSV_COLUMNS)
        assert r.weight_divergence == 0.0
    assert processes == [(1, 0)]


def test_t_pl_zero_is_t_pl_one():
    # Both pseudo-label from round 1 at the full lambda_cen: with t_pl = 0
    # there is no ramp, and with t_pl = 1 it is done by round 1.
    train, test, shards, fed, hp = _tiny_setup(eps=0.3)
    fed.rounds = 6
    runs = [
        run_training(train, test, shards, fed, dataclasses.replace(hp, t_pl=t_pl), seed=0)
        for t_pl in (0, 1)
    ]
    assert runs[0][1] == runs[1][1]
    assert runs[0][0].theta.tobytes() == runs[1][0].theta.tobytes()


def test_run_training_learns_clean_blobs():
    train, test, shards, fed, hp = _tiny_setup()
    fed.rounds = 15
    params, records = run_training(train, test, shards, fed, hp, seed=0)
    assert records[-1].test_accuracy >= 0.9


def test_run_training_client_failure_context():
    train, test, shards, fed, hp = _tiny_setup()
    shards[2] = np.array([], dtype=np.int64)
    with pytest.raises(ContractViolation, match=r"round 1.*client 2"):
        # Selecting all clients guarantees the broken one participates.
        fed2 = FederationConfig(num_clients=6, clients_per_round=6, rounds=2)
        run_training(train, test, shards, fed2, hp, seed=0)


def _processes(monkeypatch, n):
    """Make run_training use n processes (n - 1 forked workers)."""
    monkeypatch.setattr(coordinator, "_process_count", lambda clients: n)


def test_run_training_with_idle_processes(monkeypatch):
    # With zero local epochs no client takes a step; the workers still
    # run and answer each round.
    train, test, shards, fed, hp = _tiny_setup(eps=0.3)
    hp.local_epochs = 0
    fed.rounds = 3
    runs = []
    for n in (1, 3):
        _processes(monkeypatch, n)
        runs.append(run_training(train, test, shards, fed, hp, seed=4))
    np.testing.assert_array_equal(runs[0][0].theta, runs[1][0].theta)
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("method", METHODS)
def test_run_training_same_result_in_any_number_of_processes(monkeypatch, method):
    train, test, shards, fed, hp = _tiny_setup(eps=0.3)
    # Five clients a round, dealt to the processes in turn: at two to
    # four processes some ranks run two clients, at five each runs one.
    fed.clients_per_round = 5
    runs = []
    for n in (1, 2, 3, 4, 5):
        _processes(monkeypatch, n)
        params, records = run_training(train, test, shards, fed, hp, seed=4, method=method)
        runs.append((params.theta, records))
    for theta, records in runs[1:]:
        np.testing.assert_array_equal(runs[0][0], theta)
        assert records == runs[0][1]


def test_process_count_is_at_most_four_per_cpu(monkeypatch):
    # Ten clients a round on two CPUs: eight processes, so seven forked
    # workers, two of the ranks running two clients each. The records and
    # weights are those of one process.
    train, test, _, _, hp = _tiny_setup(eps=0.3)
    shards = partition_iid(train, 10, seed=0)
    fed = FederationConfig(num_clients=10, clients_per_round=10, rounds=4)
    exit_codes = []
    close = coordinator._ClientProcesses.close

    def recording_close(self):
        close(self)
        exit_codes.append([proc.exitcode for proc in self.procs])

    monkeypatch.setattr(coordinator._ClientProcesses, "close", recording_close)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(coordinator, "_usable_cpus", lambda cpus=cpus: cpus)
        params, records = run_training(train, test, shards, fed, hp, seed=4)
        runs.append((params.theta.tobytes(), records))
    assert exit_codes == [[], [0] * 7]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("method", METHODS)
def test_run_training_every_client_every_round(monkeypatch, method):
    # All five clients take part in every round, so the server merges
    # every client's upload; one and three processes agree.
    train, test, _, fed, hp = _tiny_setup(eps=0.3)
    fed.num_clients = fed.clients_per_round = 5
    shards = partition_iid(train, 5, seed=0)
    runs = []
    for n in (1, 3):
        _processes(monkeypatch, n)
        params, records = run_training(train, test, shards, fed, hp, seed=2, method=method)
        runs.append((params.theta, records))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


BLOBS_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "blobs.cfg")
# The columns that do not measure detection against the true labels.
_BLIND_COLUMNS = ("test_accuracy", "mean_train_loss", "confident_fraction", "weight_divergence", "r_t")


@pytest.mark.parametrize("method", METHODS)
def test_training_reads_no_true_label(monkeypatch, method):
    # The desk config for 12 rounds, pseudo-labels from round 6. Permuting
    # the training set's true labels after the noise is drawn moves only
    # what the server measures against them, mask precision and recall:
    # the weights and every other column stay, whether the clients' masks
    # cross the worker pipes (3 processes) or not.
    cfg = resolve_config(load_config(BLOBS_CFG, ["fed.rounds=12", "hp.t_pl=6", f"method={method}"]))
    train, test = build_datasets(cfg.dataset)
    shards = partition_iid(train, cfg.fed.num_clients, cfg.seed)
    apply_noise(train, shards, cfg.noise)
    scrambled = dataclasses.replace(train, true_labels=make_rng(1, 0).permutation(train.true_labels))
    runs = []
    for data, n in ((train, 1), (scrambled, 1), (scrambled, 3)):
        _processes(monkeypatch, n)
        params, records = run_training(data, test, shards, cfg.fed, cfg.hp, cfg.seed, method=method)
        runs.append((params.theta.tobytes(), records))
    theta, records = runs[0]
    for other_theta, other_records in runs[1:]:
        assert other_theta == theta
        for a, b in zip(records, other_records, strict=True):
            assert [getattr(a, c) for c in _BLIND_COLUMNS] == [getattr(b, c) for c in _BLIND_COLUMNS]
    assert runs[1][1] == runs[2][1]
    if method != "ce_baseline":
        # The scramble reaches the server's measure of detection.
        assert [r.mask_precision for r in records] != [r.mask_precision for r in runs[1][1]]


@pytest.mark.parametrize(
    "shape, sizes",
    [
        # Shards of one or two rows: most clients hold a single class.
        (["fed.num_clients=1999", "fed.clients_per_round=7", "hp.batch_size=3"], {1, 2}),
        # One row each, below a batch.
        (["fed.num_clients=2000", "fed.clients_per_round=5"], {1}),
        # Ragged shards of 13 and 14 rows, neither a whole number of batches.
        (["fed.num_clients=150", "fed.clients_per_round=6", "hp.batch_size=4"], {13, 14}),
    ],
    ids=["one_or_two_rows", "one_row", "ragged"],
)
@pytest.mark.parametrize("method", METHODS)
def test_tiny_and_ragged_shards_train_end_to_end(monkeypatch, method, shape, sizes):
    # The desk config for 3 rounds, pseudo-labels from round 2. Every
    # method trains on these shards to the same records and weights at one
    # and three processes, and every value of its CSV is finite.
    cfg = resolve_config(
        load_config(BLOBS_CFG, ["fed.rounds=3", "hp.t_pl=2", f"method={method}"] + shape)
    )
    train, test = build_datasets(cfg.dataset)
    shards = partition_iid(train, cfg.fed.num_clients, cfg.seed)
    assert {len(rows) for rows in shards} == sizes
    apply_noise(train, shards, cfg.noise)
    runs = []
    for n in (1, 3):
        _processes(monkeypatch, n)
        params, records = run_training(train, test, shards, cfg.fed, cfg.hp, cfg.seed, method=method)
        runs.append((params.theta.tobytes(), records))
    assert runs[0] == runs[1]
    rows = records_to_csv(runs[0][1]).splitlines()[2:]
    assert len(rows) == cfg.fed.rounds
    assert all(math.isfinite(float(value)) for row in rows for value in row.split(","))


class _MergeReached(Exception):
    pass


@pytest.mark.parametrize("processes", [1, 3])
@pytest.mark.parametrize("method", METHODS)
def test_only_methods_that_read_global_centroids_merge_them(monkeypatch, processes, method):
    # ce_baseline and no_global_centroids_ablation clients never read the
    # global centroids, so they upload none and the server merges nothing.
    _processes(monkeypatch, processes)

    def merge(prev_global, client_sets):
        raise _MergeReached

    monkeypatch.setattr(coordinator, "aggregate_global_centroids", merge)
    train, test, shards, fed, hp = _tiny_setup(eps=0.3)
    fed.rounds = 2
    if method in ("proposed", "naive_pseudo_ablation"):
        with pytest.raises(_MergeReached):
            run_training(train, test, shards, fed, hp, seed=0, method=method)
    else:
        _, records = run_training(train, test, shards, fed, hp, seed=0, method=method)
        assert len(records) == 2


def test_a_new_method_is_one_row(monkeypatch):
    # A row that no method uses, local centroids with self-training, added
    # under a name that only this test knows. On the desk config with
    # pseudo-labels from round 2 it runs the same at one and three
    # processes, and, like every row with local centroids, uploads none.
    row = MethodSpec(centroids="local", pseudo="self")
    monkeypatch.setitem(localnode.METHOD_SPECS, "test_local_self_training", row)
    cfg = resolve_config(load_config(BLOBS_CFG, ["fed.rounds=3", "hp.t_pl=2"]))
    train, test = build_datasets(cfg.dataset)
    shards = partition_iid(train, cfg.fed.num_clients, cfg.seed)
    apply_noise(train, shards, cfg.noise)
    uploads = []
    run = coordinator._ClientProcesses.run

    def recording_run(self, *args):
        results, aside = run(self, *args)
        uploads.extend(r.centroids for r in results)
        return results, aside

    monkeypatch.setattr(coordinator._ClientProcesses, "run", recording_run)
    runs = []
    for n in (1, 3):
        _processes(monkeypatch, n)
        params, records = run_training(
            train, test, shards, cfg.fed, cfg.hp, cfg.seed, method="test_local_self_training"
        )
        runs.append((params.theta.tobytes(), records))
    assert runs[0] == runs[1]
    empty = CentroidSet.empty(train.C, cfg.hp.hidden_dim)
    assert len(uploads) == 2 * cfg.fed.rounds * cfg.fed.clients_per_round
    for c in uploads:
        assert (c.C, c.vectors.tobytes(), c.presence.tobytes()) == (
            empty.C, empty.vectors.tobytes(), empty.presence.tobytes()
        )

    # From round t_pl on, the update refreshes its pseudo-labels once per
    # epoch from its own weights: first the broadcast it loaded, then the
    # weights each epoch's steps moved. Before t_pl it makes none.
    seen = []
    pseudo = localnode.global_pseudo_labels

    def recording_pseudo(params, X):
        seen.append((params, params.theta.copy()))
        return pseudo(params, X)

    monkeypatch.setattr(localnode, "global_pseudo_labels", recording_pseudo)
    hp = cfg.hp
    gp = init_params(train.d_in, hp.hidden_dim, train.C, make_rng(cfg.seed, STREAM_INIT))
    for t in (hp.t_pl - 1, hp.t_pl):
        del seen[:]
        res = coordinator.local_update(
            train, shards[0], gp, empty, t, hp, make_rng(cfg.seed, STREAM_LOCAL, t, 0),
            method="test_local_self_training",
        )
        if t < hp.t_pl:
            assert seen == []
            continue
        assert len(seen) == hp.local_epochs
        assert all(p is res.params for p, _ in seen)
        assert seen[0][1].tobytes() == gp.theta.tobytes()
        assert all(a.tobytes() != b.tobytes() for (_, a), (_, b) in zip(seen, seen[1:]))


def test_workers_exit_by_themselves_when_run_training_ends(monkeypatch):
    # Exit code 0, not a terminate after the join timeout: every worker
    # sees its pipe close, which needs each to close the pipe ends it
    # inherited from the coordinator.
    _processes(monkeypatch, 3)
    exit_codes = []
    close = coordinator._ClientProcesses.close

    def recording_close(self):
        close(self)
        exit_codes.extend(proc.exitcode for proc in self.procs)

    monkeypatch.setattr(coordinator._ClientProcesses, "close", recording_close)
    train, test, shards, fed, hp = _tiny_setup()
    run_training(train, test, shards, fed, hp, seed=0)
    assert exit_codes == [0, 0]


@pytest.mark.parametrize("processes", [1, 3])
@pytest.mark.parametrize(
    "broken, named",
    # An empty shard takes no steps. With three processes, rank w runs
    # positions w and w + 3: 3 fails here and 4 in worker 1, 4 in worker
    # 1 and 5 in worker 2, and 1 and 4 both in worker 1, 1 first.
    [((4,), 4), ((3, 4), 3), ((4, 5), 4), ((1, 4), 1)],
)
def test_run_training_client_error_names_round_and_client(monkeypatch, processes, broken, named):
    _processes(monkeypatch, processes)
    train, test, shards, _, hp = _tiny_setup()
    for cid in broken:
        shards[cid] = np.array([], dtype=np.int64)
    fed = FederationConfig(num_clients=6, clients_per_round=6, rounds=2)
    with pytest.raises(ContractViolation, match=rf"round 1, client {named}: ") as exc:
        run_training(train, test, shards, fed, hp, seed=0)
    # The original error, or a worker's traceback of it, stays attached.
    cause = exc.value.__cause__
    if named % processes:  # the client ran in a worker
        assert isinstance(cause, coordinator.WorkerTraceback)
        assert "in local_update" in str(cause)
    else:
        assert isinstance(cause, ContractViolation) and cause.__traceback__ is not None


def _first_state(train, hp, seed):
    """The state run_training starts from."""
    params = init_params(train.d_in, hp.hidden_dim, train.C, make_rng(seed, STREAM_INIT))
    return coordinator.RoundState(0, params, CentroidSet.empty(train.C, hp.hidden_dim))


def _rounds(state, fed, test, *args, until):
    """Go on from state to round `until` in fresh client processes, made
    from args; the state after it and the rounds' records. Each round
    returns the accuracy of the model it was given, which completes the
    row before it; the last row's is evaluated after the loop."""
    records = []
    with contextlib.closing(coordinator._ClientProcesses(fed.clients_per_round, *args)) as clients:
        while state.t < until:
            state, record, accuracy = coordinator._run_round(state, clients, fed, test)
            if records:
                records[-1].test_accuracy = accuracy
            records.append(record)
    records[-1].test_accuracy = evaluate_accuracy(state.params, test)
    return state, records


@pytest.mark.parametrize("processes", [1, 3])
@pytest.mark.parametrize("method", METHODS)
def test_a_round_is_a_function_of_its_state(monkeypatch, processes, method):
    # Five rounds, then the other three from the returned state in fresh
    # processes, give the records and weights of one uninterrupted run.
    # Pseudo-labels start at round 3 (hp.t_pl), so the run stops inside
    # that phase; at three processes two ranks run two clients a round.
    _processes(monkeypatch, processes)
    train, test, shards, fed, hp = _tiny_setup(eps=0.3)
    fed.clients_per_round = 5
    params, records = run_training(train, test, shards, fed, hp, seed=4, method=method)
    state = _first_state(train, hp, 4)
    args = (train, shards, hp, 4, method)
    state, first = _rounds(state, fed, test, *args, until=5)
    assert hp.t_pl < state.t == 5
    state, rest = _rounds(state, fed, test, *args, until=fed.rounds)
    assert first + rest == records
    assert state.params.theta.tobytes() == params.theta.tobytes()


@pytest.mark.parametrize("processes", [1, 3])
@pytest.mark.parametrize("method", METHODS)
def test_a_round_writes_nothing_it_is_given(monkeypatch, processes, method):
    # The state a round is given keeps its weights and centroids, byte for
    # byte, from the first round (no centroids yet) into the
    # pseudo-label phase; and it cannot be reassigned.
    _processes(monkeypatch, processes)
    train, test, shards, fed, hp = _tiny_setup(eps=0.3)
    fed.clients_per_round = 5
    state = _first_state(train, hp, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.t = 1

    def held(s):
        return s.params.theta.tobytes(), s.centroids.vectors.tobytes(), s.centroids.presence.tobytes()

    args = (train, shards, hp, 0, method)
    with contextlib.closing(coordinator._ClientProcesses(fed.clients_per_round, *args)) as clients:
        for _ in range(fed.rounds):
            before = held(state)
            after, _, _ = coordinator._run_round(state, clients, fed, test)
            assert held(state) == before
            state = after
    if method in ("proposed", "naive_pseudo_ablation"):
        assert state.centroids.presence.all()


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_every_result_reads_its_weights_from_its_slot(monkeypatch, processes):
    # Every rank, the coordinator too, leaves a finished client's weights
    # in its slot of the shared table, and every result's weights are a
    # view of it: before pseudo-labels (round 1) and after (hp.t_pl + 1).
    # The weights are local_update's, so equal at any number of processes.
    _processes(monkeypatch, processes)
    train, test, shards, fed, hp = _tiny_setup(eps=0.3)
    state = _first_state(train, hp, 4)
    chosen = select_clients(fed.num_clients, 5, make_rng(4, STREAM_SELECT, 1))
    with contextlib.closing(coordinator._ClientProcesses(5, train, shards, hp, 4, "proposed")) as clients:
        for t in (1, hp.t_pl + 1):
            results, aside = clients.run(t, state.params, state.centroids, chosen)
            assert aside is None
            for p, (cid, res) in enumerate(zip(chosen, results)):
                assert np.shares_memory(res.params.theta, clients.slots[p]), (t, p)
                args = (train, shards[cid], state.params, state.centroids, t, hp)
                want = coordinator.local_update(*args, make_rng(4, STREAM_LOCAL, t, cid))
                np.testing.assert_array_equal(res.params.theta, want.params.theta)


@pytest.mark.parametrize("processes", [1, 3])
@pytest.mark.parametrize("rounds", [0, 1, 8])
def test_each_row_holds_the_accuracy_of_its_own_rounds_model(monkeypatch, processes, rounds):
    # A round evaluates the model it was given, round t - 1's, and the
    # last model is evaluated after the loop; row t must still hold round
    # t's model's accuracy, recomputed here from the states the rounds
    # return. The coordinator evaluates each round's model once, in round
    # order, and never the initial one: no evaluation at all at 0 rounds,
    # only the final pass at 1.
    _processes(monkeypatch, processes)
    train, test, shards, fed, hp = _tiny_setup(eps=0.3)
    fed.clients_per_round, fed.rounds = 5, rounds
    evaluated = []
    evaluate = coordinator.evaluate_accuracy

    def recording_evaluate(params, dataset):
        evaluated.append(params.theta.tobytes())
        return evaluate(params, dataset)

    monkeypatch.setattr(coordinator, "evaluate_accuracy", recording_evaluate)
    _, records = run_training(train, test, shards, fed, hp, seed=4)
    monkeypatch.setattr(coordinator, "evaluate_accuracy", evaluate)

    state, models = _first_state(train, hp, 4), []
    with contextlib.closing(coordinator._ClientProcesses(5, train, shards, hp, 4, "proposed")) as clients:
        while state.t < rounds:
            state, _, _ = coordinator._run_round(state, clients, fed, test)
            models.append(state.params)
    want = [float((mlp_logits(p, test.X)[1].argmax(axis=1) == test.true_labels).mean()) for p in models]
    assert [r.test_accuracy for r in records] == want
    assert evaluated == [p.theta.tobytes() for p in models]
    # The accuracies change from round to round, so rows shifted by one differ.
    assert rounds < 2 or want[:-1] != want[1:]
    if rounds == 0:
        assert records_to_csv(records).count("\n") == 2  # the tag and the header


@pytest.mark.parametrize("processes", [1, 3])
def test_the_coordinator_evaluates_after_its_own_clients(monkeypatch, processes):
    # In round t, rank 0 runs its clients, then evaluates round t - 1's
    # model (the one it broadcast) while the workers run theirs, and only
    # then waits on them; the last round's model is evaluated after the
    # loop. Five clients a round: rank 0 runs positions 0, 3 of three.
    _processes(monkeypatch, processes)
    train, test, shards, fed, hp = _tiny_setup(eps=0.3)
    fed.clients_per_round, fed.rounds = 5, 3
    events, coordinator_pid = [], os.getpid()
    local_update, evaluate = coordinator.local_update, coordinator.evaluate_accuracy
    receive = coordinator._ClientProcesses._receive

    def recording_update(*args, **kwargs):
        if os.getpid() == coordinator_pid:
            events.append(("client", args[4]))
        return local_update(*args, **kwargs)

    def recording_evaluate(params, dataset):
        events.append(("evaluate",))
        return evaluate(params, dataset)

    def recording_receive(self, w, t):
        events.append(("wait", t))
        return receive(self, w, t)

    monkeypatch.setattr(coordinator, "local_update", recording_update)
    monkeypatch.setattr(coordinator, "evaluate_accuracy", recording_evaluate)
    monkeypatch.setattr(coordinator._ClientProcesses, "_receive", recording_receive)
    run_training(train, test, shards, fed, hp, seed=4)
    mine = len(range(0, fed.clients_per_round, processes))
    want = []
    for t in range(1, fed.rounds + 1):
        want += [("client", t)] * mine + [("evaluate",)] * (t > 1) + [("wait", t)] * (processes - 1)
    assert events == want + [("evaluate",)]


@pytest.mark.parametrize("processes", [1, 3])
@pytest.mark.parametrize("broken", ["no examples", "other features", "other classes"])
def test_an_unusable_test_set_fails_before_any_client_runs(monkeypatch, processes, broken):
    # The test set is checked before the workers are forked, so no client
    # runs and no process is left: an empty one would fail only at the
    # first evaluation, after a round of clients.
    _processes(monkeypatch, processes)
    train, test, shards, fed, hp = _tiny_setup()
    test = {
        "no examples": dataclasses.replace(
            test, X=test.X[:0], true_labels=test.true_labels[:0], given_labels=test.given_labels[:0]
        ),
        "other features": dataclasses.replace(test, X=test.X[:, :3]),
        "other classes": dataclasses.replace(test, C=test.C + 1),
    }[broken]

    def no_client(*args, **kwargs):
        raise AssertionError("a client ran")

    monkeypatch.setattr(coordinator, "local_update", no_client)
    with pytest.raises(ContractViolation, match="run_training: the test set"):
        run_training(train, test, shards, fed, hp, seed=0)
    assert multiprocessing.active_children() == []


def test_one_process_needs_no_fork(monkeypatch):
    # Where fork is missing, every client runs in this process, which
    # never asks for the fork context, and the records are those of three
    # processes.
    train, test, shards, fed, hp = _tiny_setup(eps=0.3)
    fed.clients_per_round = 5
    with monkeypatch.context() as m:
        m.setattr(coordinator, "_usable_cpus", lambda: 3)
        params, records = run_training(train, test, shards, fed, hp, seed=4)
    starts = [s for s in multiprocessing.get_all_start_methods() if s != "fork"]
    get_context = multiprocessing.get_context

    def no_fork(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: starts)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert coordinator._usable_cpus() == 1
    other_params, other_records = run_training(train, test, shards, fed, hp, seed=4)
    assert other_records == records
    assert other_params.theta.tobytes() == params.theta.tobytes()


class _TwoArgumentError(Exception):
    """An error that cannot be rebuilt from one message."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def _local_error():
    class LocalError(Exception):
        """Defined in a function, so it does not pickle."""

    return LocalError("a local error")


@pytest.mark.parametrize(
    "make_error, name",
    [
        (_local_error, "LocalError"),
        (lambda: _TwoArgumentError("bad", "here"), "_TwoArgumentError"),
    ],
    ids=["unpicklable", "two_argument_init"],
)
def test_worker_client_error_that_cannot_cross_the_pipe(monkeypatch, make_error, name):
    # A worker's client error is rebuilt with the round and client in its
    # message and pickled back; when either fails it travels as a
    # RuntimeError, and the worker's traceback still names the class.
    _processes(monkeypatch, 2)
    train, test, shards, fed, hp = _tiny_setup()
    chosen = select_clients(fed.num_clients, fed.clients_per_round, make_rng(0, STREAM_SELECT, 1))
    coordinator_pid = os.getpid()
    local_update = coordinator.local_update

    def fails(*args, **kwargs):
        if os.getpid() != coordinator_pid:
            raise make_error()
        return local_update(*args, **kwargs)

    monkeypatch.setattr(coordinator, "local_update", fails)
    # Worker 1's first client is at position 1.
    with pytest.raises(RuntimeError, match=rf"^round 1, client {chosen[1]}: ") as exc:
        run_training(train, test, shards, fed, hp, seed=0)
    assert type(exc.value) is RuntimeError
    assert isinstance(exc.value.__cause__, coordinator.WorkerTraceback)
    assert name in str(exc.value.__cause__)


def _large_shard_setup():
    """Five clients of 1,000 examples at 10 classes, in the pseudo-label
    phase from round 1: a client holds 1,000 x 10 pseudo-label
    probabilities, and its mask crosses the pipe."""
    from fednoise.noise import NoiseSpec, apply_noise

    train, test = make_blob_split(C=10, train_per_class=500, test_per_class=20, d_in=5, spread=0.6, seed=0)
    shards = partition_iid(train, 5, seed=0)
    apply_noise(train, shards, NoiseSpec(kind="symmetric", epsilon=0.3, seed=0))
    fed = FederationConfig(num_clients=5, clients_per_round=5, rounds=2)
    hp = HyperParams(hidden_dim=8, local_epochs=1, batch_size=100, t_pl=1, t_horizon=4, tau=0.3)
    return train, test, shards, fed, hp


def test_csv_bytes_with_large_shards_do_not_depend_on_processes(monkeypatch, tmp_path):
    train, test, shards, fed, hp = _large_shard_setup()
    csvs = []
    for n in (1, 2, 3):
        _processes(monkeypatch, n)
        _, records = run_training(train, test, shards, fed, hp, seed=0)
        write_csv(tmp_path / f"{n}.csv", records)
        csvs.append((tmp_path / f"{n}.csv").read_bytes())
    assert csvs[0] == csvs[1] == csvs[2]


def test_usable_cpus_is_one_while_other_threads_run():
    assert coordinator._usable_cpus() == len(os.sched_getaffinity(0))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert coordinator._usable_cpus() == 1
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    assert coordinator._usable_cpus() == len(os.sched_getaffinity(0))


def test_usable_cpus_reads_the_one_cpu_count(monkeypatch):
    # The process count and the blob draw's part count read the same
    # helper: the affinity set, or 1 where the platform has none.
    assert _native.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(_native, "usable_cpus", lambda: 5)
    assert coordinator._usable_cpus() == 5
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _native.usable_cpus() == coordinator._usable_cpus() == 1


def _dies_in_worker_in_round_2(monkeypatch):
    """Make the worker exit with code 7 in its first client of round 2."""
    coordinator_pid = os.getpid()
    local_update = coordinator.local_update

    def dies(*args, **kwargs):
        if os.getpid() != coordinator_pid and args[4] == 2:
            os._exit(7)
        return local_update(*args, **kwargs)

    monkeypatch.setattr(coordinator, "local_update", dies)
    return 7, 2, _tiny_setup()[3]


def _killed_after_round_1(monkeypatch):
    """Kill the idle worker once round 1's results are in."""
    fedavg = coordinator.fedavg

    def kills(results, sizes):
        if len(fedavg_calls) == 0:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(10)
        fedavg_calls.append(1)
        return fedavg(results, sizes)

    fedavg_calls = []
    monkeypatch.setattr(coordinator, "fedavg", kills)
    return -signal.SIGKILL, 2, _tiny_setup()[3]


@pytest.mark.parametrize(
    "death",
    [_dies_in_worker_in_round_2, _killed_after_round_1],
)
def test_run_training_worker_death_is_an_error(monkeypatch, death):
    train, test, shards, fed, hp = _tiny_setup()
    code, processes, fed = death(monkeypatch)
    _processes(monkeypatch, processes)

    def hung(signum, frame):
        raise TimeoutError("run_training hung after a worker died")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(
            RuntimeError, match=rf"round 2: client worker process \d+ exited \(exit code {code}\)"
        ):
            run_training(train, test, shards, fed, hp, seed=0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_run_training_shard_count_mismatch():
    train, test, shards, fed, hp = _tiny_setup()
    with pytest.raises(ContractViolation):
        run_training(train, test, shards[:-1], fed, hp, seed=0)


def test_federation_config_validation():
    FederationConfig(num_clients=5, clients_per_round=5, rounds=1).validate()
    with pytest.raises(ConfigError):
        FederationConfig(num_clients=0).validate()
    with pytest.raises(ConfigError):
        FederationConfig(num_clients=4, clients_per_round=5).validate()
    with pytest.raises(ConfigError):
        FederationConfig(num_clients=4, clients_per_round=2, rounds=-1).validate()
