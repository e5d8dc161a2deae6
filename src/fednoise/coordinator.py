"""Server side of the simulation: rounds, aggregation, evaluation.

Each round: sample a client subset, broadcast global weights and
centroids, run the selected clients' local updates, average weights by
shard size, and fold the uploaded class centroids into the global set by
cosine-weighted averaging.

The selected clients run on every CPU the process may use. run_training
forks one worker process per extra CPU (never more processes than
clients per round), and every round gives each process a fixed share of
the clients by their position in the sorted selection.

Determinism contract: every random draw comes from a Philox stream keyed
by (seed, stream, round, client), and client results are always reduced
in ascending client-id order, so reruns are byte-identical whatever the
number of processes or the CPU affinity.
"""

from __future__ import annotations

import functools
import math
import mmap
import multiprocessing
import os
import pickle
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from .datagen import ClientShard, Dataset
from .errors import ConfigError, ContractViolation, TrainingDiverged
from .localnode import (
    CentroidSet,
    HyperParams,
    LocalUpdateResult,
    METHOD_PROPOSED,
    METHODS,
    local_update,
)
from .metrics import CSV_COLUMNS, MetricsRecord, detection_from_counts, weight_divergence
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
    """Server state that the next round reads, and nothing else."""

    t: int
    params: ModelParams
    centroids: CentroidSet


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
    has = np.stack([cs.presence for cs in client_sets])  # (K, C)
    held = has.any(axis=0)
    # (K, C, d_h), with the rows a client did not report zeroed: they add nothing.
    uploads = np.where(has[:, :, None], np.stack([cs.vectors for cs in client_sets]), 0.0)
    w = cosine_similarity(prev_global.vectors[:, None, :], uploads[:, :, None, :])[..., 0, 0]
    w = np.where(prev_global.presence, np.maximum(w, w_floor), 1.0)
    # A class's total is a 1-D sum over its holders alone: numpy adds eight
    # or more values pairwise, so a masked column sum could differ.
    totals = np.where(held, [row[h].sum() for row, h in zip(w.T, has.T)], 1.0)
    w = w / totals
    # Client by client from zeros, as a loop over holders adds: an axis-0 sum may reorder.
    merged = np.zeros_like(prev_global.vectors)
    for wk, vk in zip(w, uploads):
        merged += wk[:, None] * vk
    vectors = np.where(held[:, None], merged, prev_global.vectors)
    return CentroidSet(prev_global.C, vectors, prev_global.presence | held)


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
    records = []
    run_share = functools.partial(_run_share, train, shards, hp, seed, method)
    processes = min(_usable_cpus(), fed.clients_per_round)

    with _ClientProcesses(processes, fed.clients_per_round, params, run_share) as clients:
        for t in range(1, fed.rounds + 1):
            state.t = t
            r_t = r_schedule(t - 1, hp)
            chosen = select_clients(
                fed.num_clients, fed.clients_per_round, make_rng(seed, STREAM_SELECT, t)
            )
            results = clients.run(state, r_t, chosen)
            sizes = [len(shards[cid].indices) for cid in chosen]

            state.params = fedavg(results, sizes)
            uploaded = [r.centroids for r in results if r.centroids.presence.any()]
            if uploaded:
                state.centroids = aggregate_global_centroids(state.centroids, uploaded)

            records.append(_round_record(state, r_t, results, sizes, test))

    return state.params, records


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 where run_training does not fork
    workers: no CPU affinity to read, no fork start method, a daemonic
    process (which may not have children), or other threads running (a
    lock one of them holds at the fork would stay held in the worker)."""
    if (
        not hasattr(os, "sched_getaffinity")
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
    ):
        return 1
    return len(os.sched_getaffinity(0))


def _run_share(
    train: Dataset,
    shards: list[ClientShard],
    hp: HyperParams,
    seed: int,
    method: str,
    ids: list[int],
    params: ModelParams,
    centroids: CentroidSet,
    t: int,
    r_t: float,
) -> tuple[list[LocalUpdateResult], tuple[int, Exception] | None]:
    """Run the given clients of round t in order. Returns their results
    and, if one fails, (its index in ids, an error naming round and
    client); the clients after a failure do not run."""
    results = []
    for i, cid in enumerate(ids):
        rng = make_rng(seed, STREAM_LOCAL, t, cid)
        try:
            results.append(
                local_update(train, shards[cid], params, centroids, t, r_t, hp, rng, method=method)
            )
        except Exception as e:
            err = _with_context(e, f"round {t}, client {cid}")
            err.__cause__ = e
            return results, (i, err)
    return results, None


# How long closing waits for a worker to exit before terminating it.
WORKER_EXIT_TIMEOUT_S = 1.0


class _ClientProcesses:
    """The processes that run each round's clients: this one (process 0)
    and, for n processes, n - 1 forked workers.

    Process w runs the clients at positions w, w+n, w+2n, ... of the
    round's sorted selection. The workers are forked once per
    run_training call, after the data exists, so they inherit the
    datasets, shards and settings. Weights pass through memory shared
    with them: `broadcast` holds the round's global weights and
    `uploads[p]` the result of the client at position p. A pipe carries
    only client ids, centroids and statistics. Closing the pipes ends
    the workers.
    """

    def __init__(self, processes: int, clients: int, like: ModelParams, run_share):
        self.processes = processes
        self.run_share = run_share
        self.conns = []
        self.procs = []
        if processes == 1:
            return
        dims = (like.d_in, like.d_h, like.n_classes)
        rows = np.frombuffer(mmap.mmap(-1, (clients + 1) * like.theta.nbytes))
        rows = rows.reshape(clients + 1, like.theta.size)
        self.broadcast = ModelParams(rows[0], *dims)
        self.uploads = [ModelParams(row, *dims) for row in rows[1:]]
        ctx = multiprocessing.get_context("fork")
        try:
            for w in range(1, processes):
                conn, child_conn = ctx.Pipe()
                self.conns.append(conn)
                proc = ctx.Process(
                    target=self._serve, args=(w, child_conn, list(self.conns)), daemon=True
                )
                proc.start()
                child_conn.close()
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "_ClientProcesses":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, state: RoundState, r_t: float, chosen: np.ndarray) -> list[LocalUpdateResult]:
        """Run the chosen clients of round state.t with keep-fraction r_t
        and return their results in ascending id order. If clients fail,
        raise the error of the first failing position."""
        ids = chosen.tolist()
        n = self.processes
        if n > 1:
            self.broadcast.theta[...] = state.params.theta
        for w, conn in enumerate(self.conns, 1):
            try:
                conn.send((ids[w::n], state.centroids, state.t, r_t))
            except OSError:
                raise self._died(w, state.t) from None
        shares = [self.run_share(ids[0::n], state.params, state.centroids, state.t, r_t)]
        shares += [self._receive(w, state.t) for w in range(1, n)]

        results: list = [None] * len(ids)
        errors = {}
        for w, (done, failure) in enumerate(shares):
            for i, res in enumerate(done):
                results[w + i * n] = res
            if failure is not None:
                i, err = failure
                errors[w + i * n] = err
        if errors:
            raise errors[min(errors)]
        return results

    def _serve(self, w: int, conn, inherited) -> None:
        """Body of worker w: run its share of each round until the
        coordinator closes its end of the pipe."""
        # The fork copied the coordinator's end of this pipe and of every
        # earlier worker's; holding them open would keep those pipes from
        # ever reading as closed.
        for end in inherited:
            end.close()
        try:
            while True:
                ids, centroids, t, r_t = conn.recv()
                done, failure = self.run_share(ids, self.broadcast, centroids, t, r_t)
                for i, res in enumerate(done):
                    self.uploads[w + i * self.processes].theta[...] = res.params.theta
                    res.params = None
                if failure is not None:
                    failure = _portable(*failure)
                conn.send((done, failure))
        except (EOFError, OSError, KeyboardInterrupt):
            pass  # the coordinator closed its end or is stopping

    def _receive(self, w: int, t: int):
        """Worker w's (results, failure) for round t."""
        try:
            done, failure = self.conns[w - 1].recv()
        except (EOFError, OSError):
            raise self._died(w, t) from None
        for i, res in enumerate(done):
            res.params = self.uploads[w + i * self.processes]
        if failure is not None:
            i, err, tb = failure
            err.__cause__ = WorkerTraceback(tb)
            failure = (i, err)
        return done, failure

    def _died(self, w: int, t: int) -> RuntimeError:
        proc = self.procs[w - 1]
        proc.join(WORKER_EXIT_TIMEOUT_S)
        return RuntimeError(
            f"round {t}: client worker process {proc.pid} exited (exit code "
            f"{proc.exitcode}) before returning its clients' results"
        )

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(WORKER_EXIT_TIMEOUT_S)
            if proc.exitcode is None:
                proc.terminate()
                proc.join()


def _portable(i: int, err: Exception) -> tuple[int, Exception, str]:
    """A failure that survives the pipe: an error that pickles, and the
    traceback of the exception behind it as text (pickling drops it)."""
    tb = "".join(traceback.format_exception(err.__cause__ or err))
    try:
        pickle.loads(pickle.dumps(err))
    except Exception:
        err = RuntimeError(str(err))
    return i, err, tb


class WorkerTraceback(Exception):
    """The traceback, as text, of a client error in a worker process."""


def _with_context(e: Exception, ctx: str) -> Exception:
    try:
        return type(e)(f"{ctx}: {e}")
    except Exception:
        return RuntimeError(f"{ctx}: {e}")


def _round_record(
    state: RoundState,
    r_t: float,
    results: list[LocalUpdateResult],
    sizes: list[int],
    test: Dataset,
) -> MetricsRecord:
    """Round t's CSV row; raises TrainingDiverged if any value in it is
    not finite."""
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
    record = MetricsRecord(
        round=state.t,
        test_accuracy=evaluate_accuracy(state.params, test),
        mean_train_loss=loss,
        confident_fraction=confident,
        mask_precision=precision,
        mask_recall=recall,
        weight_divergence=wdiv,
        r_t=r_t,
    )
    for column in CSV_COLUMNS:
        if not math.isfinite(getattr(record, column)):
            raise TrainingDiverged(f"round {state.t}: {column} is not finite")
    return record
