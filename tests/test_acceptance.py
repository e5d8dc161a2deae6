"""End-to-end acceptance gates.

Each test is one numbered criterion with pinned tolerances and prints a
single PASS line with the measured values. Training runs are cached and
shared across criteria, so the file stays well inside its time budgets.
"""

import math
import os
import pathlib
import time

import numpy as np
import pytest

from fednoise.bench import DatasetSpec, ExperimentConfig, run_experiment
from fednoise.coordinator import (
    CENTROID_WEIGHT_FLOOR,
    FederationConfig,
    aggregate_global_centroids,
    fedavg,
)
from fednoise.localnode import (
    CentroidSet,
    HyperParams,
    LocalStats,
    LocalUpdateResult,
    small_loss_filter,
    total_loss_and_grads,
)
from fednoise.metrics import detection_counts, detection_from_counts
from fednoise.noise import corrupt, pair_transition, symmetric_transition
from fednoise.numkit import ModelParams, cosine_similarity, init_params, mlp_backward, mlp_forward
from fednoise.seeds import STREAM_NOISE, make_rng

# Desk-scale reference setup: 2,000 training points (4 classes x 500) in
# 10-d, 20 clients with 5 selected per round, 100 rounds.
N_CLIENTS = 20
PER_ROUND = 5
ROUNDS = 100

_RUN_CACHE: dict = {}


def desk_config(method: str, eps: float, eta: float = 0.0) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.dataset = DatasetSpec(
        kind="blobs", classes=4, dim=10, train_per_class=500, test_per_class=125,
        spread=0.7, seed=0,
    )
    cfg.noise.kind = "symmetric"
    cfg.noise.epsilon = eps
    cfg.noise.client_variance = eta
    cfg.noise.seed = 0
    cfg.fed = FederationConfig(
        num_clients=N_CLIENTS, clients_per_round=PER_ROUND, rounds=ROUNDS
    )
    cfg.hp = HyperParams(
        hidden_dim=64, lambda_cen=1.0, lambda_e=0.8, t_pl=30, t_horizon=10,
        local_epochs=5, batch_size=50, learning_rate=0.25, momentum=0.5,
        weight_decay=1e-4,
    )
    cfg.method = method
    cfg.seed = 0
    return cfg


def get_run(method: str, eps: float, eta: float = 0.0):
    """(records, wall_seconds) for the desk run, memoized."""
    key = (method, eps, eta)
    if key not in _RUN_CACHE:
        start = time.perf_counter()
        _, records = run_experiment(desk_config(method, eps, eta))
        _RUN_CACHE[key] = (records, time.perf_counter() - start)
    return _RUN_CACHE[key]


def last10(records) -> float:
    return float(np.mean([r.test_accuracy for r in records[-10:]]))


# --------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_correctness():
    """Analytic gradients of the composite loss vs central differences."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    probes = 0
    worst = 0.0
    for _instance in range(3):
        B, d_in, d_h, C = 6, 5, 7, 4
        params = init_params(d_in, d_h, C, rng)
        X = rng.normal(size=(B, d_in))
        y = rng.integers(0, C, size=B)
        pseudo = rng.dirichlet(np.ones(C), size=B)
        mask = rng.integers(0, 2, size=B)
        cents = CentroidSet(
            C=C, vectors=rng.normal(size=(C, d_h)), presence=np.ones(C, dtype=bool)
        )

        def loss(q):
            bd, _, _ = total_loss_and_grads(mlp_forward(q, X), y, pseudo, mask, cents, 0.6, 0.8)
            return bd.total

        rec = mlp_forward(params, X)
        bd, d_logits, d_hidden = total_loss_and_grads(rec, y, pseudo, mask, cents, 0.6, 0.8)
        grads = mlp_backward(params, X, rec, d_logits, d_hidden)
        h = 1e-6
        for arr, g in zip(
            (params.W1, params.b1, params.W2, params.b2), params.blocks(grads)
        ):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                keep = arr[i]
                arr[i] = keep + h
                up = loss(params)
                arr[i] = keep - h
                down = loss(params)
                arr[i] = keep
                fd = (up - down) / (2 * h)
                rel = abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-6)
                worst = max(worst, rel)
                probes += 1
                assert rel < 1e-4, f"coordinate {i}: fd={fd} analytic={g[i]} rel={rel}"
    elapsed = time.perf_counter() - start
    assert probes >= 100
    assert elapsed < 10.0
    print(
        f"[criterion 1] PASS gradient check: {probes} probes, "
        f"worst rel err {worst:.2e}, {elapsed:.2f}s"
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_2_oracle_equivalence():
    """fedavg, noise detection metrics, small_loss_filter, centroid aggregation
    vs brute-force implementations on 1,000 random instances each."""
    rng = np.random.default_rng(7)

    # small_loss_filter: quantized losses force ties; exact index equality.
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        losses = rng.integers(0, 6, size=n) / 2.0
        r_t = float(rng.uniform(0.05, 1.0))
        k = math.ceil(r_t * n)
        expect = sorted(sorted(range(n), key=lambda i: (losses[i], i))[:k])
        assert small_loss_filter(losses, r_t).tolist() == expect

    # detection_from_counts of detection_counts: pure set arithmetic.
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        mask = rng.integers(0, 2, size=n)
        given = rng.integers(0, 3, size=n)
        true = rng.integers(0, 3, size=n)
        detected = {i for i in range(n) if mask[i] == 0}
        actual = {i for i in range(n) if given[i] != true[i]}
        hit = detected & actual
        expect = (
            len(hit) / len(detected) if detected else 1.0,
            len(hit) / len(actual) if actual else 1.0,
        )
        assert detection_from_counts(*detection_counts(mask, given, true)) == expect

    # fedavg: weighted mean via an independent np.average reduction.
    def result_with(flat_value, d_in=2, d_h=3, C=2):
        p = ModelParams.zeros(d_in, d_h, C)
        p.W1[...] += flat_value[0]
        p.b1[...] += flat_value[1]
        p.W2[...] += flat_value[2]
        p.b2[...] += flat_value[3]
        return LocalUpdateResult(
            params=p,
            centroids=CentroidSet.empty(C, d_h),
            stats=LocalStats(0.0, 1.0, 0, 0, 0),
        )

    for _ in range(1000):
        k = int(rng.integers(1, 6))
        values = rng.normal(size=(k, 4))
        sizes = rng.integers(1, 50, size=k).tolist()
        out = fedavg([result_with(v) for v in values], sizes)
        expect = np.average(values, axis=0, weights=sizes)
        assert abs(out.W1[0, 0] - expect[0]) < 1e-10
        assert abs(out.b1[0] - expect[1]) < 1e-10
        assert abs(out.W2[0, 0] - expect[2]) < 1e-10
        assert abs(out.b2[0] - expect[3]) < 1e-10

    # aggregate_global_centroids: scalar loop oracle.
    for _ in range(1000):
        C, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        prev = CentroidSet(
            C=C, vectors=rng.normal(size=(C, d)), presence=rng.random(C) > 0.3
        )
        uploads = [
            CentroidSet(
                C=C, vectors=rng.normal(size=(C, d)), presence=rng.random(C) > 0.3
            )
            for _ in range(int(rng.integers(1, 5)))
        ]
        got = aggregate_global_centroids(prev, uploads)
        for c in range(C):
            holders = [u for u in uploads if u.presence[c]]
            if not holders:
                assert np.array_equal(got.vectors[c], prev.vectors[c])
                continue
            if prev.presence[c]:
                ws = [
                    max(cosine_similarity(prev.vectors[c], u.vectors[c]), CENTROID_WEIGHT_FLOOR)
                    for u in holders
                ]
            else:
                ws = [1.0] * len(holders)
            expect = sum(
                (w / sum(ws)) * u.vectors[c] for w, u in zip(ws, holders)
            )
            assert np.abs(got.vectors[c] - expect).max() < 1e-10

    print("[criterion 2] PASS oracle equivalence: 4 ops x 1000 instances")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_noise_fidelity():
    """Empirical flip rates within 3-sigma binomial bounds at n=50,000."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    n, C = 50_000, 10
    labels = rng.integers(0, C, size=n)
    checked = 0
    for eps in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        out = corrupt(labels, symmetric_transition(eps, C), make_rng(int(eps * 100), STREAM_NOISE))
        flips = int((out != labels).sum())
        bound = 3 * math.sqrt(n * eps * (1 - eps))
        assert abs(flips - n * eps) <= bound, f"symmetric eps={eps}: {flips} flips"
        checked += 1
    # Pair flipping is only defined below 0.5; 0.45 matches its tested top end.
    for eps in (0.1, 0.2, 0.3, 0.4, 0.45):
        out = corrupt(labels, pair_transition(eps, C), make_rng(int(eps * 1000), STREAM_NOISE))
        flips = int((out != labels).sum())
        bound = 3 * math.sqrt(n * eps * (1 - eps))
        assert abs(flips - n * eps) <= bound, f"pair eps={eps}: {flips} flips"
        moved = out != labels
        assert np.array_equal(out[moved], (labels[moved] + 1) % C), "pair support"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"[criterion 3] PASS noise fidelity: {checked} (kind, eps) cells "
        f"within 3 sigma at n={n}, {elapsed:.2f}s"
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_4_clean_data_sanity():
    """Clean blobs reach >= 0.97 test accuracy for baseline and proposed."""
    ce, t_ce = get_run("ce_baseline", 0.0)
    prop, t_prop = get_run("proposed", 0.0)
    acc_ce = ce[-1].test_accuracy
    acc_prop = prop[-1].test_accuracy
    assert len(ce) == ROUNDS and len(prop) == ROUNDS
    assert acc_ce >= 0.97, f"ce_baseline clean accuracy {acc_ce}"
    assert acc_prop >= 0.97, f"proposed clean accuracy {acc_prop}"
    assert t_ce + t_prop < 120.0
    print(
        f"[criterion 4] PASS clean sanity: ce={acc_ce:.4f} proposed={acc_prop:.4f} "
        f"(bar 0.97), {t_ce + t_prop:.1f}s"
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_5_robustness_gap():
    """>= 10 accuracy points over the baseline at eps=0.4; direction at 0.5."""
    ce4, t1 = get_run("ce_baseline", 0.4)
    prop4, t2 = get_run("proposed", 0.4)
    ce5, t3 = get_run("ce_baseline", 0.5)
    prop5, t4 = get_run("proposed", 0.5)
    gap = last10(prop4) - last10(ce4)
    assert gap >= 0.10, f"gap at eps=0.4 is {gap * 100:.1f} points"
    assert last10(prop5) > last10(ce5), "direction check at eps=0.5"
    assert t1 + t2 + t3 + t4 < 300.0
    print(
        f"[criterion 5] PASS robustness gap: eps=0.4 "
        f"proposed={last10(prop4):.4f} ce={last10(ce4):.4f} (+{gap * 100:.1f} pts); "
        f"eps=0.5 {last10(prop5):.4f} vs {last10(ce5):.4f}, "
        f"{t1 + t2 + t3 + t4:.1f}s"
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_6_detection_quality():
    """Mask precision >= 0.90 and recall >= 0.75, last-10-round averages."""
    records, _ = get_run("proposed", 0.4)
    precision = float(np.mean([r.mask_precision for r in records[-10:]]))
    recall = float(np.mean([r.mask_recall for r in records[-10:]]))
    assert precision >= 0.90, f"precision {precision}"
    assert recall >= 0.75, f"recall {recall}"
    print(
        f"[criterion 6] PASS detection quality: precision={precision:.4f} "
        f"recall={recall:.4f} (bars 0.90 / 0.75)"
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_ablation_orderings():
    """Method ordering, noise-variance robustness, divergence ordering."""
    prop, _ = get_run("proposed", 0.4)
    naive, _ = get_run("naive_pseudo_ablation", 0.4)
    ce, _ = get_run("ce_baseline", 0.4)
    acc_p, acc_n, acc_c = (
        prop[-1].test_accuracy,
        naive[-1].test_accuracy,
        ce[-1].test_accuracy,
    )
    assert acc_p >= acc_n >= acc_c, f"ordering {acc_p} >= {acc_n} >= {acc_c}"

    flat, _ = get_run("proposed", 0.4, eta=0.0)
    varied, _ = get_run("proposed", 0.4, eta=0.2)
    diff = abs(last10(flat) - last10(varied))
    assert diff < 0.03, f"eta sensitivity {diff * 100:.2f} points"

    local_only, _ = get_run("no_global_centroids_ablation", 0.4)
    wd_prop = prop[-1].weight_divergence
    wd_local = local_only[-1].weight_divergence
    assert wd_prop < wd_local, f"divergence {wd_prop} !< {wd_local}"
    print(
        f"[criterion 7] PASS ablations: order {acc_p:.4f} >= {acc_n:.4f} >= {acc_c:.4f}; "
        f"eta diff {diff * 100:.2f} pts (< 3); "
        f"wdiv {wd_prop:.5f} < {wd_local:.5f}"
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_determinism(tmp_path):
    """Byte-identical CSV across reruns."""
    paths = []
    for name in ("a", "b", "c", "d"):
        cfg = desk_config("proposed", 0.4)
        cfg.fed.rounds = 20
        cfg.output = str(tmp_path / f"{name}.csv")
        run_experiment(cfg)
        paths.append(cfg.output)
    blobs = [pathlib.Path(p).read_bytes() for p in paths]
    assert all(b == blobs[0] for b in blobs[1:]), "CSV bytes differ across runs"
    assert len(blobs[0]) > 0
    print(
        f"[criterion 8] PASS determinism: {len(paths)} runs "
        f"byte-identical ({len(blobs[0])} bytes)"
    )


# --------------------------------------------------------------- criterion 9


MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def _mnist_dir():
    root = os.environ.get(
        "FEDNOISE_MNIST_DIR",
        os.path.join(os.path.dirname(__file__), "..", "data", "mnist"),
    )
    if all(os.path.isfile(os.path.join(root, f)) for f in MNIST_FILES):
        return root
    return None


@pytest.mark.skipif(_mnist_dir() is None, reason="MNIST IDX files not present")
def test_criterion_9_mnist_subset():
    """10k-example MNIST subset: proposed beats the baseline by >= 5 points."""
    start = time.perf_counter()
    root = _mnist_dir()
    accs = {}
    for method in ("ce_baseline", "proposed"):
        cfg = ExperimentConfig()
        cfg.dataset = DatasetSpec(
            kind="idx",
            images=os.path.join(root, MNIST_FILES[0]),
            labels=os.path.join(root, MNIST_FILES[1]),
            test_images=os.path.join(root, MNIST_FILES[2]),
            test_labels=os.path.join(root, MNIST_FILES[3]),
            subset=10_000,
        )
        cfg.noise.kind = "symmetric"
        cfg.noise.epsilon = 0.4
        cfg.fed = FederationConfig(num_clients=20, clients_per_round=5, rounds=60)
        cfg.hp = HyperParams(
            hidden_dim=64, t_pl=20, t_horizon=10, local_epochs=5, batch_size=50,
            learning_rate=0.25, momentum=0.5, weight_decay=1e-4,
        )
        cfg.method = method
        cfg.seed = 0
        _, records = run_experiment(cfg)
        accs[method] = last10(records)
    gap = accs["proposed"] - accs["ce_baseline"]
    elapsed = time.perf_counter() - start
    assert gap >= 0.05, f"MNIST gap {gap * 100:.1f} points"
    assert elapsed < 900.0
    print(
        f"[criterion 9] PASS mnist subset: proposed={accs['proposed']:.4f} "
        f"ce={accs['ce_baseline']:.4f} (+{gap * 100:.1f} pts), {elapsed:.0f}s"
    )
