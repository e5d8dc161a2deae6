"""Server side of the simulation: rounds, aggregation, evaluation.

A round is one function of the server's state (RoundState: the global
weights and class centroids after t rounds) to the next state and the
round's CSV row. It samples a client subset, broadcasts the weights and
centroids, runs the selected clients' local updates, averages weights by
shard size, and folds the uploaded class centroids into the global set
by cosine-weighted averaging. run_training is a loop over it.

Only _ClientProcesses knows about processes: it runs each of a round's
clients whole, in a process of its own where it can (_process_count
says how many), and lets the kernel share the CPUs among them.

Determinism contract: every random draw comes from a Philox stream keyed
by (seed, stream, round, client), and client results are always reduced
in ascending client-id order, so reruns are byte-identical whatever the
number of processes or the CPU affinity.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import multiprocessing
import pickle
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from . import _native
from .datagen import Dataset
from .errors import ConfigError, ContractViolation, TrainingDiverged, WorkerExited
from .localnode import (
    CentroidSet,
    HyperParams,
    LocalUpdateResult,
    METHOD_SPECS,
    local_update,
    r_schedule,
)
from .metrics import CSV_COLUMNS, MetricsRecord, detection_rates, weight_divergence
from .numkit import ModelParams, cosine_similarity, init_params, mlp_logits
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


@dataclass(frozen=True)
class RoundState:
    """What the server holds after t rounds, and all that the next round
    reads. A round (_run_round) returns a new state and writes nothing of
    the one it is given, so a run can go on from any state it returned."""

    t: int
    params: ModelParams
    centroids: CentroidSet


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
    prev_global: CentroidSet, client_sets: list[CentroidSet]
) -> CentroidSet:
    """Cosine-weighted per-class average of uploaded centroids.

    Each client's weight for class c is its centroid's cosine similarity
    to the previous global centroid, clamped below at
    CENTROID_WEIGHT_FLOOR, then normalized over the clients that reported
    the class. Classes nobody reported keep the previous global value.
    """
    if not client_sets:
        raise ContractViolation("aggregate_global_centroids: no client centroid sets")
    has = np.stack([cs.presence for cs in client_sets])  # (K, C)
    held = has.any(axis=0)
    # (K, C, d_h), with the rows a client did not report zeroed: they add nothing.
    sent = np.where(has[:, :, None], np.stack([cs.vectors for cs in client_sets]), 0.0)
    w = cosine_similarity(prev_global.vectors[:, None, :], sent[:, :, None, :])[..., 0, 0]
    w = np.where(prev_global.presence, np.maximum(w, CENTROID_WEIGHT_FLOOR), 1.0)
    # A class's total is a 1-D sum over its holders alone: numpy adds eight
    # or more values pairwise, so a masked column sum could differ.
    totals = np.where(held, [row[h].sum() for row, h in zip(w.T, has.T)], 1.0)
    w = w / totals
    # Client by client from zeros, as a loop over holders adds: an axis-0 sum may reorder.
    merged = np.zeros_like(prev_global.vectors)
    for wk, vk in zip(w, sent):
        merged += wk[:, None] * vk
    vectors = np.where(held[:, None], merged, prev_global.vectors)
    return CentroidSet(prev_global.C, vectors, prev_global.presence | held)


def evaluate_accuracy(params: ModelParams, dataset: Dataset) -> float:
    """Fraction of examples whose argmax of mlp_logits matches the true label."""
    if dataset.n == 0:
        raise ContractViolation("evaluate_accuracy: empty dataset")
    # The logits, not mlp_forward's logp, whose rounding could break ties differently.
    _, logits = mlp_logits(params, dataset.X)
    pred = logits.argmax(axis=1)
    return float((pred == dataset.true_labels).mean())


def run_training(
    train: Dataset,
    test: Dataset,
    shards: list[np.ndarray],
    fed: FederationConfig,
    hp: HyperParams,
    seed: int,
    method: str = "proposed",
) -> tuple[ModelParams, list[MetricsRecord]]:
    """Full federated run; returns the final global model and round records."""
    fed.validate()
    hp.validate()
    if method not in METHOD_SPECS:
        raise ConfigError(f"unknown method {method!r}")
    if len(shards) != fed.num_clients:
        raise ContractViolation(
            f"run_training: got {len(shards)} shards for {fed.num_clients} clients"
        )
    params = init_params(train.d_in, hp.hidden_dim, train.C, make_rng(seed, STREAM_INIT))
    state = RoundState(0, params, CentroidSet.empty(train.C, hp.hidden_dim))
    records = []
    with contextlib.closing(
        _ClientProcesses(fed.clients_per_round, train, shards, hp, seed, method)
    ) as clients:
        while state.t < fed.rounds:
            state, record = _run_round(state, clients, fed, test)
            records.append(record)
    return state.params, records


def _run_round(
    state: RoundState, clients: _ClientProcesses, fed: FederationConfig, test: Dataset
) -> tuple[RoundState, MetricsRecord]:
    """Round state.t + 1 of the run that clients serve: the state after it,
    and its CSV row from the clients' uploads in ascending client order.
    Detection is measured here, on the pooled masks against the training
    set's true labels, which no client reads. Raises TrainingDiverged if
    any value in the row is not finite."""
    t = state.t + 1
    chosen = select_clients(
        fed.num_clients, fed.clients_per_round, make_rng(clients.seed, STREAM_SELECT, t)
    )
    results = clients.run(t, state.params, state.centroids, chosen)
    rows = [clients.shards[cid] for cid in chosen]
    sizes = [len(r) for r in rows]
    params = fedavg(results, sizes)
    centroids = state.centroids
    uploaded = [r.centroids for r in results if r.centroids.presence.any()]
    if uploaded:
        centroids = aggregate_global_centroids(centroids, uploaded)

    total = sum(sizes)
    loss = sum(r.mean_train_loss * n for r, n in zip(results, sizes)) / total
    confident = sum(float(r.mask.mean()) * n for r, n in zip(results, sizes)) / total
    pooled = np.concatenate(rows)
    precision, recall = detection_rates(
        np.concatenate([r.mask for r in results]),
        clients.train.given_labels[pooled],
        clients.train.true_labels[pooled],
    )
    record = MetricsRecord(
        round=t,
        test_accuracy=evaluate_accuracy(params, test),
        mean_train_loss=loss,
        confident_fraction=confident,
        mask_precision=precision,
        mask_recall=recall,
        weight_divergence=weight_divergence([r.params.theta for r in results]),
        r_t=r_schedule(t, clients.hp),
    )
    for column in CSV_COLUMNS:
        if not math.isfinite(getattr(record, column)):
            raise TrainingDiverged(f"round {t}: {column} is not finite")
    return RoundState(t, params, centroids), record


def _usable_cpus() -> int:
    """CPUs this process may run on (_native.usable_cpus), or 1 where
    _ClientProcesses does not fork workers: no fork start method, a
    daemonic process (which may not have children), or other threads
    running (a lock one of them holds at the fork would stay held in the
    worker). The blob draw's threads end before make_blob_split returns."""
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
    ):
        return 1
    return _native.usable_cpus()


def _process_count(clients: int) -> int:
    """How many processes run a round of the given number of clients: one
    per client, up to four per CPU this process may use (a bound on the
    workers' memory), or one where _usable_cpus is 1. The kernel shares
    the CPUs among them, so no split of the work is planned ahead."""
    cpus = _usable_cpus()
    return 1 if cpus == 1 else min(clients, 4 * cpus)


# How long closing waits for a worker to exit before terminating it.
WORKER_EXIT_TIMEOUT_S = 1.0


class _ClientProcesses:
    """The processes that run each round's clients, one per rank: this
    one (rank 0) and n - 1 forked workers, n from _process_count. This
    class alone knows about processes. The same code runs 1 to n.

    It is built from the run's inputs alone (train, shards, hp, seed,
    method) and holds no state of a round, so those inputs rebuild it at
    any round. Every rank reads them from this object; the weights have
    init_params's shape, (train.d_in, hp.hidden_dim, train.C). Every
    round, rank w runs the clients at positions w, w + n, ... of the
    sorted selection, each whole, through local_update, so a worker is
    told only (ids, centroids, t). The workers are forked once, when the
    object is made, after the data exists, so they inherit all of it.
    Weights pass through a table in shared memory: `broadcast` holds the
    round's global weights, which every rank trains from, and `slots[p]`
    the weights of the client at position p, which every rank copies
    there when it finishes it. So every result's weights are a view of
    its slot, valid until the next run. A pipe to each worker carries the
    rest: client ids, centroids, losses and masks. Closing the pipes ends
    the workers.
    """

    def __init__(self, clients, train, shards, hp, seed, method):
        self.processes = _process_count(clients)
        self.train, self.shards, self.hp, self.seed, self.method = train, shards, hp, seed, method
        self.conns = []
        self.procs = []
        self.dims = (train.d_in, hp.hidden_dim, train.C)
        size = ModelParams.zeros(*self.dims).theta.nbytes
        table = np.frombuffer(mmap.mmap(-1, (1 + clients) * size)).reshape(1 + clients, -1)
        self.broadcast = ModelParams(table[0], *self.dims)
        self.slots = table[1:]
        try:
            for w in range(1, self.processes):
                conn, child_conn = multiprocessing.Pipe()
                self.conns.append(conn)
                fork = multiprocessing.get_context("fork")
                proc = fork.Process(target=self._serve, args=(w, child_conn), daemon=True)
                proc.start()
                child_conn.close()
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise

    def run(
        self, t: int, params: ModelParams, centroids: CentroidSet, chosen: np.ndarray
    ) -> list[LocalUpdateResult]:
        """Run the chosen clients of round t from the global params and
        centroids, and return their results in ascending id order, each
        with a view of its slot as weights, valid until the next run.
        Writes nothing it is given. If clients fail, raise the error of
        the first failing position."""
        ids = chosen.tolist()
        self.broadcast.theta[...] = params.theta
        for w, conn in enumerate(self.conns, 1):
            try:
                conn.send((ids, centroids, t))
            except OSError:
                raise self._died(w, t) from None
        shares = [self._run_share(0, ids, centroids, t)]
        shares += [self._receive(w, t) for w in range(1, self.processes)]

        results: list = [None] * len(ids)
        for done, _ in shares:
            for pos, res in done:
                res.params = ModelParams(self.slots[pos], *self.dims)
                results[pos] = res
        errors = dict(failure for _, failure in shares if failure is not None)
        if errors:
            raise errors[min(errors)]
        return results

    def _run_share(self, rank, ids, centroids, t):
        """Run rank's clients of round t in order, each whole, from the
        broadcast weights, up to the first that fails. Returns (position,
        result) for each client finished, its weights moved to its slot,
        and, if one failed, (its position, an error naming round and client)."""
        done = []
        for pos in range(rank, len(ids), self.processes):
            cid = ids[pos]
            rng = make_rng(self.seed, STREAM_LOCAL, t, cid)
            args = (self.train, self.shards[cid], self.broadcast, centroids, t, self.hp, rng)
            try:
                res = local_update(*args, method=self.method)
            except Exception as e:
                err = _with_context(e, f"round {t}, client {cid}")
                err.__cause__ = e
                return done, (pos, err)
            self.slots[pos], res.params = res.params.theta, None
            done.append((pos, res))
        return done, None

    def _serve(self, rank: int, conn) -> None:
        """Body of the worker of the given rank: run its share of each
        round until the coordinator closes its end of the pipe."""
        # The fork copied the coordinator's end of this pipe and of every
        # earlier worker's; holding them open would keep those pipes from
        # ever reading as closed.
        for end in self.conns:
            end.close()
        try:
            while True:
                ids, centroids, t = conn.recv()
                done, failure = self._run_share(rank, ids, centroids, t)
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
        if failure is not None:
            pos, err, tb = failure
            err.__cause__ = WorkerTraceback(tb)
            failure = (pos, err)
        return done, failure

    def _died(self, w: int, t: int) -> WorkerExited:
        proc = self.procs[w - 1]
        proc.join(WORKER_EXIT_TIMEOUT_S)
        return WorkerExited(
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

