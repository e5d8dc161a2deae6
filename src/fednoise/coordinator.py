"""Server side of the simulation: rounds, aggregation, evaluation.

Each round: sample a client subset, broadcast global weights and
centroids, run the selected clients' local updates, average weights by
shard size, and fold the uploaded class centroids into the global set by
cosine-weighted averaging.

The selected clients run on every CPU the process may use. run_training
forks one worker process per extra CPU (never more processes than
clients per round). Every round, plan_round evens out the SGD steps:
no process gets more than the round's longest client or its total over
the processes, whichever is more. A client cut at the boundary of two
processes starts in one and finishes in the other.

Determinism contract: every random draw comes from a Philox stream keyed
by (seed, stream, round, client), and client results are always reduced
in ascending client-id order, so reruns are byte-identical whatever the
number of processes or the CPU affinity.
"""

from __future__ import annotations

import contextlib
import fcntl
import math
import mmap
import multiprocessing
import os
import pickle
import threading
import traceback
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .datagen import Dataset
from .errors import ConfigError, ContractViolation, TrainingDiverged, WorkerExited
from .localnode import (
    CentroidSet,
    HyperParams,
    LocalJob,
    LocalProgress,
    LocalUpdateResult,
    METHOD_PROPOSED,
    METHODS,
    local_update,
)
from .metrics import CSV_COLUMNS, MetricsRecord, detection_from_counts, weight_divergence
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
    processes = min(_usable_cpus(), fed.clients_per_round)

    with contextlib.closing(
        _ClientProcesses(processes, fed.clients_per_round, params, train, shards, hp, seed, method)
    ) as clients:
        for t in range(1, fed.rounds + 1):
            state.t = t
            r_t = r_schedule(t - 1, hp)
            chosen = select_clients(
                fed.num_clients, fed.clients_per_round, make_rng(seed, STREAM_SELECT, t)
            )
            sizes = [len(shards[cid]) for cid in chosen]
            plan = plan_round([hp.local_steps(n_k) for n_k in sizes], processes)
            results = clients.run(state, r_t, chosen, plan)

            state.params = fedavg(results, sizes)
            uploaded = [r.centroids for r in results if r.centroids.presence.any()]
            if uploaded:
                state.centroids = aggregate_global_centroids(state.centroids, uploaded)

            records.append(_round_record(state, r_t, results, sizes, test))

    return state.params, records


class Piece(NamedTuple):
    """SGD steps [start, stop) of the client at position pos of a round's
    sorted selection."""

    pos: int
    start: int
    stop: int


def plan_round(steps: list[int], processes: int) -> list[list[Piece]]:
    """Each process's pieces of a round whose clients take the given
    numbers of SGD steps, by McNaughton's wrap-around rule.

    The clients lie end to end in the given order and are cut at
    multiples of T = max(longest client, ceil(total / processes)), so no
    process gets more than T steps. A client cut between processes w and
    w+1 runs its first part as w+1's first piece and the rest as w's last
    piece: w+1 ends the first part after at most T minus the rest's
    steps, before w starts the rest. A process may get no piece.
    """
    if processes < 1:
        raise ContractViolation(f"plan_round: need at least one process, got {processes}")
    limit = max(max(steps, default=0), -(-sum(steps) // processes))
    shares: list[list[Piece]] = [[] for _ in range(processes)]
    w = used = 0
    for pos, n in enumerate(steps):
        room = limit - used
        if n <= room:
            shares[w].append(Piece(pos, 0, n))
            used += n
            continue
        if room:
            shares[w].append(Piece(pos, n - room, n))
        w += 1
        used = n - room
        shares[w].append(Piece(pos, 0, used))
    return shares


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


# How long closing waits for a worker to exit before terminating it.
WORKER_EXIT_TIMEOUT_S = 1.0


class _ClientProcesses:
    """The processes that run each round's clients, one per rank: this
    one (rank 0) and, for n processes, n - 1 forked workers.

    Every round, rank w runs plan[w]: whole clients, and at most one
    client cut at each end of its share. A client cut between ranks w
    and w+1 starts in w+1 and finishes in w. Every rank reads the run's
    data and settings (train, shards, hp, seed, method) from this
    object; `like` gives the weights' shape. The workers are forked once
    per run_training call, after the data exists, so they inherit all of
    it. Weights pass through memory shared with them: `broadcast` holds
    the round's global weights, and `slots[p]` the weights and momentum
    buffer of the client at position p. A cut client's first part leaves
    its weights and momentum there, and its rest trains there in place;
    a worker copies a whole client's final weights there. So each result
    of another process, and of a rest run here, holds a view of its slot
    as weights, not a copy. Pipes carry the rest: client ids,
    the plan, centroids, statistics, and the rest of a cut client's
    progress, on one one-way pipe per pair of neighbouring ranks.
    Closing the pipes ends the workers.
    """

    def __init__(self, processes, clients, like, train, shards, hp, seed, method):
        self.processes = processes
        self.train, self.shards, self.hp, self.seed, self.method = train, shards, hp, seed, method
        self.rank = 0
        self.conns = []
        self.procs = []
        self.takes = self.gives = []
        if processes == 1:
            return
        self.dims = (like.d_in, like.d_h, like.n_classes)
        rows = 1 + 2 * clients
        rows = np.frombuffer(mmap.mmap(-1, rows * like.theta.nbytes)).reshape(rows, -1)
        self.broadcast = ModelParams(rows[0], *self.dims)
        self.slots = rows[1:].reshape(clients, 2, -1)
        ctx = multiprocessing.get_context("fork")
        # takes[w] is rank w's end of the pipe from w+1, gives[w] w+1's end.
        pipes = [_hand_over_pipe(ctx) for _ in range(processes - 1)]
        self.takes = [take for take, _ in pipes]
        self.gives = [give for _, give in pipes]
        try:
            for w in range(1, processes):
                conn, child_conn = ctx.Pipe()
                self.conns.append(conn)
                own = [self.gives[w - 1]] + self.takes[w : w + 1]
                inherited = self.conns + [e for e in self.takes + self.gives if e not in own]
                proc = ctx.Process(target=self._serve, args=(w, child_conn, inherited), daemon=True)
                proc.start()
                child_conn.close()
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise
        # Only the workers write to these pipes, so a worker's exit reads as EOF.
        for end in self.gives + self.takes[1:]:
            end.close()

    def run(
        self, state: RoundState, r_t: float, chosen: np.ndarray, plan: list[list[Piece]]
    ) -> list[LocalUpdateResult]:
        """Run the chosen clients of round state.t with keep-fraction r_t
        as planned, and return their results in ascending id order. If
        clients fail, raise the error of the first failing position."""
        ids = chosen.tolist()
        if self.processes > 1:
            self.broadcast.theta[...] = state.params.theta
        for w, conn in enumerate(self.conns, 1):
            try:
                conn.send((ids, plan[w], state.centroids, state.t, r_t))
            except OSError:
                raise self._died(w, state.t) from None
        shares = [self._run_share(ids, plan[0], state.params, state.centroids, state.t, r_t)]
        shares += [self._receive(w, state.t) for w in range(1, self.processes)]

        results: list = [None] * len(ids)
        for done, _ in shares:
            for pos, res in done:
                results[pos] = res
        errors = dict(failure for _, failure in shares if failure is not None)
        if errors:
            raise errors[min(errors)]
        return results

    def _run_share(self, ids, pieces, params, centroids, t, r_t):
        """Run this rank's pieces of round t in order (see plan_round).

        A whole client is one local_update. A cut client's first part
        ends by handing its progress, or None if it fails, to the rank
        below; its rest begins by taking that over, and is skipped on
        None: the first part failed or its process exited, which that
        process or the coordinator reports. Returns (position, result)
        for each client finished here and, if one fails, (its position,
        an error naming round and client); the pieces after a failure do
        not run.
        """
        done, failure = [], None
        for pos, start, stop in pieces:
            if failure is not None:
                if start:
                    self._take_over(pos)  # so the next process never waits on a full pipe
                continue
            cid = ids[pos]
            rows = self.shards[cid]
            whole = stop - start == self.hp.local_steps(len(rows))
            first_part = start == 0 and not whole
            rng = make_rng(self.seed, STREAM_LOCAL, t, cid) if start == 0 else None
            try:
                if whole:
                    args = (self.train, rows, params, centroids, t, r_t, self.hp, rng)
                    done.append((pos, local_update(*args, method=self.method)))
                    continue
                if not first_part:
                    progress = self._take_over(pos)
                    if progress is None:
                        continue
                job = LocalJob(self.train, rows, t, r_t, self.hp, self.method)
                if first_part:
                    progress = job.start(params, centroids, rng)
                job.advance(progress, stop - start)
                if first_part:
                    self._hand_over(pos, progress)
                else:
                    done.append((pos, job.finish(progress)))
            except Exception as e:
                if first_part:
                    self._hand_over(pos, None)
                err = _with_context(e, f"round {t}, client {cid}")
                err.__cause__ = e
                failure = (pos, err)
        return done, failure

    def _hand_over(self, pos: int, progress: LocalProgress | None) -> None:
        """Pass this rank's first part of the client at position pos, or
        None if it failed, to the rank below. The weights and momentum
        buffer go into the client's slot, and the pipe carries the rest
        and holds it until it is read (see _hand_over_pipe)."""
        if progress is not None:
            theta, velocity = self.slots[pos]
            theta[...] = progress.params.theta
            velocity[...] = progress.velocity
            progress = replace(progress, params=None, velocity=None)
        try:
            self.gives[self.rank - 1].send(progress)
        except OSError:
            pass  # the rank below exited, which the coordinator reports

    def _take_over(self, pos: int) -> LocalProgress | None:
        """The progress of the client at position pos that the rank above
        hands to this one, or None. Its weights and momentum buffer are
        the client's slot itself, not a copy: the rest trains there, and
        its result's weights stay there."""
        try:
            progress = self.takes[self.rank].recv()
        except (EOFError, OSError):
            return None  # the rank above exited, which the coordinator reports
        if progress is not None:
            theta, progress.velocity = self.slots[pos]
            progress.params = ModelParams(theta, *self.dims)
        return progress

    def _serve(self, rank: int, conn, inherited) -> None:
        """Body of the worker of the given rank: run its share of each
        round until the coordinator closes its end of the pipe."""
        self.rank = rank
        # The fork copied the coordinator's end of this pipe and of every
        # earlier worker's, and every hand-over pipe end; holding them
        # open would keep those pipes from ever reading as closed.
        for end in inherited:
            end.close()
        try:
            while True:
                ids, pieces, centroids, t, r_t = conn.recv()
                done, failure = self._run_share(ids, pieces, self.broadcast, centroids, t, r_t)
                for pos, res in done:
                    if not np.shares_memory(res.params.theta, self.slots[pos, 0]):
                        self.slots[pos, 0] = res.params.theta  # not a rest trained there
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
        for pos, res in done:
            res.params = ModelParams(self.slots[pos, 0], *self.dims)
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
        for conn in self.conns + self.takes + self.gives:
            conn.close()
        for proc in self.procs:
            proc.join(WORKER_EXIT_TIMEOUT_S)
            if proc.exitcode is None:
                proc.terminate()
                proc.join()


def _hand_over_pipe(ctx) -> tuple:
    """A one-way pipe (reader, writer) as large as a process may make one
    (/proc/sys/fs/pipe-max-size, 1 MiB by default on Linux). A hand-over's
    rest grows with shard size times classes; up to the pipe's size, its
    sender does not wait for the reader."""
    take, give = ctx.Pipe(duplex=False)
    try:
        with open("/proc/sys/fs/pipe-max-size") as fh:
            fcntl.fcntl(give.fileno(), fcntl.F_SETPIPE_SZ, int(fh.read()))
    except (OSError, ValueError, AttributeError):
        pass  # refused or unknown: the default size (64 KiB on Linux)
    return take, give


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
