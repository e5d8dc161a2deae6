import contextlib
import dataclasses
import itertools
import math
import multiprocessing
import os
import pickle
import signal
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fednoise import coordinator, localnode
from fednoise.coordinator import (
    FederationConfig,
    aggregate_global_centroids,
    evaluate_accuracy,
    fedavg,
    plan_round,
    r_schedule,
    run_training,
    select_clients,
)
from fednoise.datagen import make_blob_split, partition_iid
from fednoise.errors import ConfigError, ContractViolation
from fednoise.localnode import METHODS, CentroidSet, HyperParams, LocalUpdateResult
from fednoise.localnode import LocalStats
from fednoise.metrics import write_csv
from fednoise.numkit import ModelParams, cosine_similarity, init_params, mlp_forward
from fednoise.seeds import STREAM_INIT, STREAM_LOCAL, STREAM_SELECT, make_rng


def test_r_schedule_values():
    hp = HyperParams(tau=0.4, t_horizon=10)
    assert r_schedule(0, hp) == 1.0
    assert r_schedule(5, hp) == pytest.approx(0.8)
    assert r_schedule(10, hp) == pytest.approx(0.6)
    assert r_schedule(50, hp) == pytest.approx(0.6)
    with pytest.raises(ContractViolation):
        r_schedule(-1, hp)


def test_r_schedule_clean_data_keeps_everything():
    hp = HyperParams(tau=0.0, t_horizon=10)
    assert r_schedule(0, hp) == 1.0
    assert r_schedule(99, hp) == 1.0


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
        stats=LocalStats(0.0, 1.0, 0, 0, 0),
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
    out = aggregate_global_centroids(prev, [prev.copy()])
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
    out = prev_global.copy()
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
    before = [cs.copy() for cs in [prev] + uploads]
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
        assert r.r_t == pytest.approx(r_schedule(r.round - 1, hp))


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
    monkeypatch.setattr(coordinator, "_usable_cpus", lambda: n)


def _check_plan(steps, processes):
    """Every property plan_round promises, for one input."""
    plan = plan_round(steps, processes)
    assert len(plan) == processes
    limit = max(max(steps, default=0), math.ceil(sum(steps) / processes))
    for share in plan:
        assert sum(stop - start for _, start, stop in share) <= limit
    pieces = {}
    for w, share in enumerate(plan):
        for i, piece in enumerate(share):
            pieces.setdefault(piece.pos, []).append((piece.start, piece.stop, w, i))
    # Each client's steps are given out exactly once, in order.
    assert sorted(pieces) == list(range(len(steps)))
    cuts = set()
    for pos, parts in pieces.items():
        parts.sort()
        assert parts[0][0] == 0 and parts[-1][1] == steps[pos]
        assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
        assert len(parts) <= 2
        if len(parts) == 2:
            (_, _, w1, i1), (_, _, w, i) = parts
            assert steps[pos] > 0
            # First part: process w+1's first piece. Rest: process w's last.
            assert w1 == w + 1 and i1 == 0 and i == len(plan[w]) - 1
            assert w not in cuts
            cuts.add(w)
    # Positions never go back from one process to the next.
    order = [piece.pos for share in plan for piece in share]
    assert order == sorted(order)


@pytest.mark.parametrize(
    "steps",
    [[50] * 5, [4] * 5, [3, 7, 1, 12, 5, 5, 2], [0, 4, 4, 0, 4, 0], [0] * 5, [9], [1, 1, 40]],
    ids=["equal", "tiny_equal", "ragged", "some_empty", "all_zero", "one", "one_long"],
)
def test_plan_round_properties(steps):
    for processes in range(1, len(steps) + 1):
        _check_plan(steps, processes)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=12), st.integers(1, 12))
def test_plan_round_properties_hypothesis(steps, processes):
    _check_plan(steps, min(processes, len(steps)))


def test_plan_round_hand_cases():
    P = coordinator.Piece
    # The benchmark's round: 5 clients of 50 steps on 2 processes, 125 each.
    assert plan_round([50] * 5, 2) == [
        [P(0, 0, 50), P(1, 0, 50), P(2, 25, 50)],
        [P(2, 0, 25), P(3, 0, 50), P(4, 0, 50)],
    ]
    # One process runs the same plan, with no cut.
    assert plan_round([50] * 5, 1) == [[P(k, 0, 50) for k in range(5)]]
    # The longest client bounds the share, so a process may get nothing.
    assert plan_round([1, 1, 40], 3) == [[P(0, 0, 1), P(1, 0, 1), P(2, 2, 40)], [P(2, 0, 2)], []]
    # Zero local epochs: all on process 0.
    assert plan_round([0, 0, 0], 3) == [[P(0, 0, 0), P(1, 0, 0), P(2, 0, 0)], [], []]
    with pytest.raises(ContractViolation):
        plan_round([1], 0)


def test_run_training_with_idle_processes(monkeypatch):
    # With zero local epochs the plan gives every client to process 0;
    # the idle workers still answer each round.
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
    # Five clients of four steps, two an epoch: two processes cut one
    # client at an epoch boundary, three cut one mid-epoch and one at a
    # boundary, four cut three, after 3, 2 and 1 steps; five cut none.
    fed.clients_per_round = 5
    runs = []
    for n in (1, 2, 3, 4, 5):
        _processes(monkeypatch, n)
        params, records = run_training(train, test, shards, fed, hp, seed=4, method=method)
        runs.append((params.theta, records))
    for theta, records in runs[1:]:
        np.testing.assert_array_equal(runs[0][0], theta)
        assert records == runs[0][1]


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


def _process_of(plan, pos):
    """The process that runs the first piece of position pos."""
    return next(w for w, share in enumerate(plan) for p in share if p.pos == pos and p.start == 0)


@pytest.mark.parametrize("processes", [1, 3])
@pytest.mark.parametrize(
    "broken, named",
    # An empty shard takes no steps. With three processes, 3 and 4 both
    # run in worker 1, 3 first; 4 and 5 both in worker 2, 4 first.
    [((4,), 4), ((3, 4), 3), ((4, 5), 4)],
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
    steps = [hp.local_steps(len(shard)) for shard in shards]
    if _process_of(plan_round(steps, processes), named):  # the client ran in a worker
        assert isinstance(cause, coordinator.WorkerTraceback)
        assert "in local_update" in str(cause)
    else:
        assert isinstance(cause, ContractViolation) and cause.__traceback__ is not None


def test_run_training_first_part_error_names_round_and_client(monkeypatch):
    # Two processes cut one client of round 1: worker 1 runs its first
    # part, the coordinator would run the rest. Its rows are NaN, so its
    # first step fails.
    _processes(monkeypatch, 2)
    train, test, shards, fed, hp = _tiny_setup()
    fed.clients_per_round = 5
    chosen = select_clients(fed.num_clients, fed.clients_per_round, make_rng(0, STREAM_SELECT, 1))
    plan = plan_round([hp.local_steps(len(shards[c])) for c in chosen], 2)
    cut = chosen[plan[1][0].pos]
    assert plan[1][0].start == 0 and plan[0][-1].pos == plan[1][0].pos
    train.X[shards[cut]] = np.nan
    resumed = []
    advance = localnode.LocalJob.advance

    def recording_advance(self, progress, n):
        if progress.n_batches:
            resumed.append(os.getpid())
        return advance(self, progress, n)

    monkeypatch.setattr(localnode.LocalJob, "advance", recording_advance)
    with np.errstate(invalid="ignore"), pytest.raises(
        coordinator.TrainingDiverged, match=rf"^round 1, client {cut}: classification loss"
    ) as exc:
        run_training(train, test, shards, fed, hp, seed=0)
    assert isinstance(exc.value.__cause__, coordinator.WorkerTraceback)
    # The rest of the client never ran in the coordinator.
    assert os.getpid() not in resumed


def test_cut_client_finishes_in_its_slot():
    # Two processes cut one client of round 1; the coordinator takes over
    # its rest. The rest trains in the client's slot of the shared table,
    # so its result's weights are that slot, and they are the weights of
    # a run that never cut it.
    train, _, shards, fed, hp = _tiny_setup()
    fed.clients_per_round = 5
    chosen = select_clients(fed.num_clients, fed.clients_per_round, make_rng(0, STREAM_SELECT, 1))
    steps = [hp.local_steps(len(shards[c])) for c in chosen]
    plan = plan_round(steps, 2)
    rest = plan[0][-1]
    assert rest.start > 0 and plan[1][0].pos == rest.pos
    params = init_params(train.d_in, hp.hidden_dim, train.C, make_rng(0, STREAM_INIT))
    state = coordinator.RoundState(1, params, CentroidSet.empty(train.C, hp.hidden_dim))
    results = []
    for processes, pieces in ((2, plan), (1, plan_round(steps, 1))):
        args = (processes, fed.clients_per_round, params, train, shards, hp, 0, "proposed")
        with contextlib.closing(coordinator._ClientProcesses(*args)) as clients:
            results.append(clients.run(state, 1.0, chosen, pieces))
            if processes == 2:
                assert np.shares_memory(results[0][rest.pos].params.theta, clients.slots)
                slot = results[0][rest.pos].params.theta.copy()
    np.testing.assert_array_equal(slot, results[1][rest.pos].params.theta)


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
    steps = [hp.local_steps(len(shards[c])) for c in chosen]
    whole = [p.pos for p in plan_round(steps, 2)[1] if p.stop - p.start == steps[p.pos]]
    coordinator_pid = os.getpid()
    local_update = coordinator.local_update

    def fails(*args, **kwargs):
        if os.getpid() != coordinator_pid:
            raise make_error()
        return local_update(*args, **kwargs)

    monkeypatch.setattr(coordinator, "local_update", fails)
    with pytest.raises(RuntimeError, match=rf"^round 1, client {chosen[whole[0]]}: ") as exc:
        run_training(train, test, shards, fed, hp, seed=0)
    assert type(exc.value) is RuntimeError
    assert isinstance(exc.value.__cause__, coordinator.WorkerTraceback)
    assert name in str(exc.value.__cause__)


def _large_rest_setup():
    """Five clients of 1,000 examples at 10 classes, in the pseudo-label
    phase from round 1: a cut client's rest holds 1,000 x 10 pseudo-label
    probabilities, more than a default 64 KiB pipe holds."""
    from fednoise.noise import NoiseSpec, apply_noise

    train, test = make_blob_split(C=10, train_per_class=500, test_per_class=20, d_in=5, spread=0.6, seed=0)
    shards = partition_iid(train, 5, seed=0)
    apply_noise(train, shards, NoiseSpec(kind="symmetric", epsilon=0.3, seed=0))
    fed = FederationConfig(num_clients=5, clients_per_round=5, rounds=2)
    hp = HyperParams(hidden_dim=8, local_epochs=1, batch_size=100, t_pl=1, t_horizon=4, tau=0.3)
    return train, test, shards, fed, hp


def _large_rest():
    """The pickled rest of the client that two processes cut in round 1
    of _large_rest_setup, as the rank that ran its first part sends it."""
    train, _, shards, fed, hp = _large_rest_setup()
    chosen = select_clients(fed.num_clients, fed.clients_per_round, make_rng(0, STREAM_SELECT, 1))
    first = plan_round([hp.local_steps(len(shards[c])) for c in chosen], 2)[1][0]
    cid = int(chosen[first.pos])
    params = init_params(train.d_in, hp.hidden_dim, train.C, make_rng(0, STREAM_INIT))
    job = localnode.LocalJob(train, shards[cid], 1, 1.0, hp, "proposed")
    progress = job.start(params, CentroidSet.empty(train.C, hp.hidden_dim), make_rng(0, STREAM_LOCAL, 1, cid))
    job.advance(progress, first.stop)
    return pickle.dumps(dataclasses.replace(progress, params=None, velocity=None))


def test_hand_over_pipe_holds_a_large_rest_without_a_reader():
    # A pipe of the default size would block this send until a reader
    # came, and the alarm would end the test.
    rest = _large_rest()
    assert len(rest) > 64 * 1024
    try:
        with open("/proc/sys/fs/pipe-max-size") as fh:
            if int(fh.read()) <= len(rest):
                pytest.skip("the system's largest pipe is too small for this rest")
    except OSError:
        pytest.skip("no /proc/sys/fs/pipe-max-size to size a pipe by")
    take, give = coordinator._hand_over_pipe(multiprocessing.get_context("fork"))

    def blocked(signum, frame):
        raise TimeoutError("the hand-over pipe blocked its sender")

    previous = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(10)
    try:
        give.send_bytes(rest)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert take.recv_bytes() == rest
    take.close()
    give.close()


def test_csv_bytes_with_a_large_rest_do_not_depend_on_processes(monkeypatch, tmp_path):
    # Two processes cut one client, three cut two; each rest is larger
    # than a default pipe.
    train, test, shards, fed, hp = _large_rest_setup()
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


def _dies_owing_a_hand_over_in_round_2(monkeypatch):
    """Three processes, five clients: make worker 2 exit with code 5 as
    it starts its first piece of round 2, the first part of a client
    whose rest worker 1 waits for."""
    train, test, shards, fed, hp = _tiny_setup()
    fed.clients_per_round = 5
    chosen = select_clients(fed.num_clients, fed.clients_per_round, make_rng(0, STREAM_SELECT, 2))
    plan = plan_round([hp.local_steps(len(shards[c])) for c in chosen], 3)
    owed = plan[2][0]
    assert owed.start == 0 and plan[1][-1].pos == owed.pos

    class Dying(localnode.LocalJob):
        def __init__(self, dataset, rows, *args):
            super().__init__(dataset, rows, *args)
            self.owed = np.array_equal(rows, shards[chosen[owed.pos]])

        def start(self, *args):  # only a first part starts a job
            if self.round_t == 2 and self.owed:
                os._exit(5)
            return super().start(*args)

    monkeypatch.setattr(coordinator, "LocalJob", Dying)
    return 5, 3, fed


@pytest.mark.parametrize(
    "death",
    [_dies_in_worker_in_round_2, _killed_after_round_1, _dies_owing_a_hand_over_in_round_2],
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
