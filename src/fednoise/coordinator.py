"""Server side of the simulation: rounds, aggregation, evaluation.

Each round: sample a client subset, broadcast global weights and
centroids, run the selected clients' local updates one after another,
average weights by shard size, and fold the uploaded class centroids
into the global set by cosine-weighted averaging.

Determinism contract: every random draw comes from a Philox stream keyed
by (seed, stream, round, client), and client results are always reduced
in ascending client-id order, so reruns are byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .datagen import ClientShard, Dataset
from .errors import ConfigError, ContractViolation
from .localnode import (
    CentroidSet,
    HyperParams,
    LocalUpdateResult,
    METHOD_PROPOSED,
    METHODS,
    local_update,
)
from .metrics import MetricsRecord, detection_from_counts, weight_divergence
from .numkit import ModelParams, cosine_similarity, init_params, mlp_forward
from .seeds import STREAM_INIT, STREAM_LOCAL, STREAM_SELECT, make_rng

# Cosine weights below this floor are clamped so a disagreeing client
# still contributes, and so an all-zero weight vector cannot occur.
CENTROID_WEIGHT_FLOOR = 1e-6


@dataclass
class FederationConfig:
    num_clients: int = 100
    clients_per_round: int = 10
    rounds: int = 100

    def validate(self) -> None:
        if self.num_clients < 1:
            raise ConfigError("fed.num_clients: must be >= 1")
        if not 1 <= self.clients_per_round <= self.num_clients:
            raise ConfigError(
                f"fed.clients_per_round: must be in [1, {self.num_clients}], "
                f"got {self.clients_per_round}"
            )
        if self.rounds < 0:
            raise ConfigError("fed.rounds: must be >= 0")


@dataclass
class RoundState:
    """Mutable server state carried between rounds."""

    t: int
    params: ModelParams
    centroids: CentroidSet
    r_t: float = 1.0
    records: list[MetricsRecord] = field(default_factory=list)


def r_schedule(t: int, hp: HyperParams) -> float:
    """Keep-fraction for the small-loss filter after t completed rounds.

    Decays linearly from 1 to 1 - tau over t_horizon rounds, then stays.
    """
    if t < 0:
        raise ContractViolation(f"r_schedule: t must be >= 0, got {t}")
    return 1.0 - min(hp.tau * t / hp.t_horizon, hp.tau)


def select_clients(num_clients: int, clients_per_round: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample without replacement, returned in ascending order."""
    if not 1 <= clients_per_round <= num_clients:
        raise ConfigError(
            f"select_clients: need 1 <= m <= {num_clients}, got {clients_per_round}"
        )
    chosen = rng.choice(num_clients, size=clients_per_round, replace=False)
    return np.sort(chosen).astype(np.int64)


def fedavg(results: list[LocalUpdateResult], shard_sizes: list[int]) -> ModelParams:
    """Shard-size weighted average of client weights.

    Weights are n_k over the total examples of the participating clients
    only. Accumulation runs in the given (ascending client id) order.
    """
    if not results:
        raise ContractViolation("fedavg: no client results")
    if len(results) != len(shard_sizes):
        raise ContractViolation("fedavg: results and shard sizes differ in length")
    total = float(sum(shard_sizes))
    if total <= 0:
        raise ContractViolation("fedavg: total shard size must be positive")
    first = results[0].params
    out = ModelParams.zeros(first.d_in, first.d_h, first.n_classes)
    for res, n_k in zip(results, shard_sizes):
        out.theta += (n_k / total) * res.params.theta
    return out


def aggregate_global_centroids(
    prev_global: CentroidSet,
    client_sets: list[CentroidSet],
    w_floor: float = CENTROID_WEIGHT_FLOOR,
) -> CentroidSet:
    """Cosine-weighted per-class average of uploaded centroids.

    Each client's weight for class c is its centroid's cosine similarity
    to the previous global centroid, clamped below at w_floor, then
    normalized over the clients that reported the class. Classes nobody
    reported keep the previous global value.
    """
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
        out.vectors[c] = sum(
            w * cs.vectors[c] for w, cs in zip(weights, holders)
        )
        out.presence[c] = True
    return out


def evaluate_accuracy(params: ModelParams, dataset: Dataset) -> float:
    """Fraction of examples whose argmax prediction matches the true label."""
    if dataset.n == 0:
        raise ContractViolation("evaluate_accuracy: empty dataset")
    rec = mlp_forward(params, dataset.X)
    pred = rec.logits.argmax(axis=1)
    return float((pred == dataset.true_labels).mean())


def run_training(
    train: Dataset,
    test: Dataset,
    shards: list[ClientShard],
    fed: FederationConfig,
    hp: HyperParams,
    seed: int,
    method: str = METHOD_PROPOSED,
) -> tuple[ModelParams, list[MetricsRecord]]:
    """Full federated run; returns the final global model and round records."""
    fed.validate()
    hp.validate()
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if len(shards) != fed.num_clients:
        raise ContractViolation(
            f"run_training: got {len(shards)} shards for {fed.num_clients} clients"
        )
    d_h = hp.hidden_dim

    params = init_params(train.d_in, d_h, train.C, make_rng(seed, STREAM_INIT))
    state = RoundState(t=0, params=params, centroids=CentroidSet.empty(train.C, d_h))

    for t in range(1, fed.rounds + 1):
        started = time.perf_counter()
        state.t = t
        state.r_t = r_schedule(t - 1, hp)
        chosen = select_clients(
            fed.num_clients, fed.clients_per_round, make_rng(seed, STREAM_SELECT, t)
        )
        results = _run_clients(train, shards, state, chosen, hp, seed, method)
        sizes = [len(shards[cid].indices) for cid in chosen]

        state.params = fedavg(results, sizes)
        uploaded = [r.centroids for r in results if r.centroids.presence.any()]
        if uploaded:
            state.centroids = aggregate_global_centroids(state.centroids, uploaded)

        state.records.append(
            _round_record(state, results, sizes, test, started)
        )

    return state.params, state.records


def _run_clients(
    train: Dataset,
    shards: list[ClientShard],
    state: RoundState,
    chosen: np.ndarray,
    hp: HyperParams,
    seed: int,
    method: str,
) -> list[LocalUpdateResult]:
    """Run the chosen clients in ascending id order."""
    results = []
    for cid in chosen.tolist():
        rng = make_rng(seed, STREAM_LOCAL, state.t, cid)
        try:
            results.append(
                local_update(
                    train,
                    shards[cid],
                    state.params,
                    state.centroids,
                    state.t,
                    state.r_t,
                    hp,
                    rng,
                    method=method,
                )
            )
        except Exception as e:
            raise _with_context(e, f"round {state.t}, client {cid}") from e
    return results


def _with_context(e: Exception, ctx: str) -> Exception:
    try:
        return type(e)(f"{ctx}: {e}")
    except Exception:
        return RuntimeError(f"{ctx}: {e}")


def _round_record(
    state: RoundState,
    results: list[LocalUpdateResult],
    sizes: list[int],
    test: Dataset,
    started: float,
) -> MetricsRecord:
    total = sum(sizes)
    loss = sum(r.stats.mean_train_loss * n for r, n in zip(results, sizes)) / total
    confident = sum(r.stats.confident_fraction * n for r, n in zip(results, sizes)) / total
    det_noisy = sum(r.stats.detected_noisy for r in results)
    det_true = sum(r.stats.detected_true_noisy for r in results)
    actual = sum(r.stats.actual_noisy for r in results)
    precision, recall = detection_from_counts(det_true, det_noisy, actual)
    # Divergence is undefined for a single participant; record 0.0 then.
    if len(results) >= 2:
        wdiv = weight_divergence([r.params.theta for r in results])
    else:
        wdiv = 0.0
    return MetricsRecord(
        round=state.t,
        test_accuracy=evaluate_accuracy(state.params, test),
        mean_train_loss=loss,
        confident_fraction=confident,
        mask_precision=precision,
        mask_recall=recall,
        weight_divergence=wdiv,
        r_t=state.r_t,
        wall_ms=(time.perf_counter() - started) * 1e3,
    )
