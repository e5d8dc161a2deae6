"""One client's local update round.

Implements the full local pipeline: small-loss filtering, running
class-wise centroids blended against the broadcast global centroids,
confident-sample masking, pseudo-label substitution, and the three-term
loss (classification + centroid-alignment + entropy) optimized with
momentum SGD. Each extra term has one switch: pseudo-targets when they
are given, the centroid term when centroids are given, entropy when its
weight is non-zero. CE_BASELINE is the same loop with every one off.

The update is a pure function of (shard data, broadcast state, round
index, rng stream): it writes nothing it is given, so results do not
depend on the order clients run in. LocalJob runs it in pieces: it can
stop after any SGD step and resume, in another process too, from one
LocalProgress value, to the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .datagen import ClientShard, Dataset
from .errors import ConfigError, ContractViolation, TrainingDiverged
from .metrics import detection_counts
from .numkit import (
    ForwardRecord,
    ModelParams,
    cosine_similarity,
    mlp_backward,
    mlp_features,
    mlp_forward,
    sgd_step,
)

# Method variants. CE_BASELINE reduces the round to plain FedAvg with
# cross-entropy; the two ablations alter pseudo-labeling and centroid
# exchange respectively.
METHOD_PROPOSED = "proposed"
METHOD_CE_BASELINE = "ce_baseline"
METHOD_NAIVE_PSEUDO = "naive_pseudo_ablation"
METHOD_NO_GLOBAL_CENTROIDS = "no_global_centroids_ablation"
METHODS = (
    METHOD_PROPOSED,
    METHOD_CE_BASELINE,
    METHOD_NAIVE_PSEUDO,
    METHOD_NO_GLOBAL_CENTROIDS,
)


@dataclass
class CentroidSet:
    """One feature centroid per class; presence marks classes that have data."""

    C: int
    vectors: np.ndarray  # (C, d_h)
    presence: np.ndarray  # (C,) bool

    @staticmethod
    def empty(C: int, d_h: int) -> "CentroidSet":
        return CentroidSet(C=C, vectors=np.zeros((C, d_h)), presence=np.zeros(C, dtype=bool))

    def copy(self) -> "CentroidSet":
        return CentroidSet(self.C, self.vectors.copy(), self.presence.copy())

    @property
    def d_h(self) -> int:
        return self.vectors.shape[1]


@dataclass
class HyperParams:
    """Training knobs shared by all method variants. A tau left as None
    resolves to the noise ratio (see resolved())."""

    hidden_dim: int = 64
    lambda_cen: float = 1.0
    lambda_e: float = 0.8
    t_pl: int = 30  # first round that uses pseudo-labels
    t_horizon: int = 10  # rounds over which the keep-fraction schedule decays
    tau: float | None = None  # final discarded fraction; defaults to noise epsilon
    local_epochs: int = 5
    batch_size: int = 50
    learning_rate: float = 0.25
    momentum: float = 0.5
    weight_decay: float = 1e-4

    def resolved(self, noise_epsilon: float) -> "HyperParams":
        hp = replace(self)
        if hp.tau is None:
            hp.tau = noise_epsilon
        return hp

    def validate(self) -> None:
        if self.tau is None or not 0.0 <= self.tau < 1.0:
            raise ConfigError(f"hp.tau: must be in [0,1), got {self.tau}")
        if self.t_horizon < 1:
            raise ConfigError("hp.t_horizon: must be >= 1")
        if self.lambda_cen < 0 or self.lambda_e < 0:
            raise ConfigError("hp.lambda_cen and hp.lambda_e must be >= 0")
        if self.batch_size < 1 or self.local_epochs < 0:
            raise ConfigError("hp.batch_size must be >= 1 and hp.local_epochs >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("hp.learning_rate: must be positive")
        if self.weight_decay < 0:
            raise ConfigError("hp.weight_decay: must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("hp.momentum: must be in [0,1)")
        if self.hidden_dim < 1:
            raise ConfigError("hp.hidden_dim: must be >= 1")

    def local_steps(self, n_k: int) -> int:
        """SGD steps of one local update on n_k examples."""
        return self.local_epochs * math.ceil(n_k / self.batch_size)


@dataclass
class LocalStats:
    """Per-round training statistics of one client."""

    mean_train_loss: float
    confident_fraction: float
    # Detection counts against true labels (for round-level precision/recall).
    detected_noisy: int
    detected_true_noisy: int
    actual_noisy: int


@dataclass
class LocalUpdateResult:
    params: ModelParams
    centroids: CentroidSet
    stats: LocalStats


@dataclass
class LossBreakdown:
    classification: float
    centroid: float
    entropy: float
    total: float


def small_loss_filter(losses: np.ndarray, r_t: float) -> np.ndarray:
    """Indices of the ceil(r_t * B) smallest losses, ties to the lower index."""
    losses = np.asarray(losses)
    if losses.size == 0:
        raise ContractViolation("small_loss_filter: empty batch")
    if not 0.0 < r_t <= 1.0:
        raise ContractViolation(f"small_loss_filter: r_t must be in (0,1], got {r_t}")
    k = min(math.ceil(r_t * losses.size), losses.size)
    order = np.argsort(losses, kind="stable")
    return np.sort(order[:k])


def class_mean_features(features: np.ndarray, labels: np.ndarray, C: int) -> CentroidSet:
    """Per-class mean of the feature rows.

    Classes with no row get a zero vector and presence False.
    """
    counts = np.bincount(labels, minlength=C)
    presence = counts > 0
    # add.at sums each class's rows in row order from zero, as a per-class
    # rows.mean(axis=0) does for rows of two or more features, so the means
    # are the same bits. (numpy sums a one-feature column pairwise instead;
    # with hidden_dim = 1 the two may differ in the last place.)
    vectors = np.zeros((C, features.shape[1]))
    np.add.at(vectors, labels, features)
    np.divide(vectors, counts[:, None], out=vectors, where=presence[:, None])
    return CentroidSet(C=C, vectors=vectors, presence=presence)


def blend_with_global(prev: CentroidSet, fresh: CentroidSet) -> CentroidSet:
    """Similarity-squared blend of running centroids with fresh class means.

    Per class, with s = cos(prev, fresh): out = (1-s^2)*prev + s^2*fresh.
    A class absent from fresh keeps the previous centroid; a class the
    running set has never seen adopts the fresh mean outright (the same
    bootstrap rule as the first round).
    """
    if prev.C != fresh.C or prev.d_h != fresh.d_h:
        raise ContractViolation("blend_with_global: centroid sets have mismatched dims")
    P, F = prev.vectors, fresh.vectors
    s = cosine_similarity(P[:, None, :], F[:, None, :])[:, :, 0]
    w = s * s
    blended = (1.0 - w) * P + w * F
    vectors = np.where(
        (prev.presence & fresh.presence)[:, None],
        blended,
        np.where(fresh.presence[:, None], F, P),
    )
    return CentroidSet(prev.C, vectors, prev.presence | fresh.presence)


def similarity_labels(features: np.ndarray, centroids: CentroidSet) -> np.ndarray:
    """Nearest present centroid by cosine similarity; ties to the lowest class."""
    if not centroids.presence.any():
        raise ContractViolation("similarity_labels: no class has a centroid yet")
    sims = cosine_similarity(features, centroids.vectors)
    sims[:, ~centroids.presence] = -np.inf
    return sims.argmax(axis=1).astype(np.int64)


def confident_mask(sim_labels: np.ndarray, given_labels: np.ndarray) -> np.ndarray:
    """1 where the similarity label agrees with the given label."""
    if sim_labels.shape != given_labels.shape:
        raise ContractViolation("confident_mask: label arrays have different lengths")
    return (sim_labels == given_labels).astype(np.int64)


def global_pseudo_labels(global_params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Soft targets: the given model's softmax rows over the shard.

    Used from round t_pl on, in two ways. The proposed method and
    no_global_centroids_ablation pass the broadcast global model, once
    per local update, and hold the result fixed across local epochs.
    naive_pseudo_ablation passes the client's own current weights and
    recomputes at the start of every local epoch (self-training).
    """
    return mlp_forward(global_params, X).probs


def per_example_ce(logp: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Cross-entropy of each log-softmax row against its integer label."""
    return -logp[np.arange(len(labels)), labels]


def lambda_cen_schedule(t: int, hp: HyperParams) -> float:
    """Centroid-loss weight: a linear ramp from 0 to lambda_cen over t_pl rounds."""
    if hp.t_pl <= 0:
        return hp.lambda_cen
    return hp.lambda_cen * min(1.0, t / hp.t_pl)


def total_loss_and_grads(
    rec: ForwardRecord,
    y: np.ndarray,
    y_pseudo: np.ndarray | None,
    mask: np.ndarray,
    centroids: CentroidSet | None,
    lam_cen: float,
    lam_e: float,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Three-term loss of one forward record and its exact output
    partials, all as batch means.

    Classification: cross-entropy against the given labels; when y_pseudo
    is given, confident rows (mask 1) keep their label and the others take
    the pseudo-label rows as soft targets.
    Centroid: masked squared distance of features to their class centroid;
    the term is off (0) when centroids is None.
    Entropy: of every softmax row; the term is off (reported as 0) when
    lam_e is 0. Returns (breakdown, dLoss/dlogits, dLoss/dhidden) ready
    for mlp_backward.
    """
    B, C = rec.probs.shape
    onehot = np.zeros((B, C))
    onehot[np.arange(B), y] = 1.0
    if y_pseudo is not None:
        m = mask.astype(np.float64)[:, None]
        targets = m * onehot + (1.0 - m) * y_pseudo
    else:
        targets = onehot

    logp = rec.logp
    l_class = float(-(targets * logp).sum() / B)
    d_logits = (rec.probs - targets) / B

    # Entropy term: p*logp is exactly 0 for underflowed probabilities
    # because logp stays finite.
    l_entropy = 0.0
    if lam_e != 0.0:
        row_entropy = -(rec.probs * logp).sum(axis=1)
        l_entropy = float(row_entropy.sum() / B)
        d_logits = d_logits + lam_e * (-rec.probs * (logp + row_entropy[:, None])) / B

    # Centroid term: confident samples only. A confident sample's class is
    # always present in the centroid set (its similarity label matched).
    l_centroid = 0.0
    d_hidden = np.zeros_like(rec.hidden)
    if centroids is not None:
        mf = mask.astype(np.float64)
        diff = rec.hidden - centroids.vectors[y]
        l_centroid = float((mf * (diff**2).sum(axis=1)).sum() / B)
        if lam_cen != 0.0:
            d_hidden = lam_cen * (2.0 * mf[:, None] * diff) / B

    total = l_class + lam_cen * l_centroid + lam_e * l_entropy
    for name, value in (
        ("classification", l_class),
        ("centroid", l_centroid),
        ("entropy", l_entropy),
    ):
        if not math.isfinite(value):
            raise TrainingDiverged(f"{name} loss became non-finite")
    return LossBreakdown(l_class, l_centroid, l_entropy, total), d_logits, d_hidden


def local_update(
    dataset: Dataset,
    shard: ClientShard,
    global_params: ModelParams,
    global_centroids: CentroidSet,
    round_t: int,
    r_t: float,
    hp: HyperParams,
    rng: np.random.Generator,
    method: str = METHOD_PROPOSED,
) -> LocalUpdateResult:
    """Run one client's full local round and return its upload.

    Loads the broadcast weights with zero momentum, seeds running
    centroids from the global set (or from the shard's own class means at
    round 1), fixes pseudo-labels once from round t_pl on, then walks
    shuffled mini-batches for local_epochs epochs: forward, small-loss
    filter, confident mask from the current running centroids, one SGD
    step on the composite loss, and finally a fresh-feature class-mean
    blend into the running centroids.

    CE_BASELINE runs the same loop with every extra term off: no
    pseudo-targets, no centroids, both loss weights 0 whatever hp says,
    and an all-ones mask, so it does no centroid or pseudo-label work.
    It and NO_GLOBAL_CENTROIDS, whose clients never read the global
    set, upload an empty centroid set, so the server merges nothing.

    The same as LocalJob's start, advance by every step, finish.
    Raises TrainingDiverged if the weights it would return are not finite.
    """
    job = LocalJob(dataset, shard, round_t, r_t, hp, method)
    progress = job.start(global_params, global_centroids, rng)
    job.advance(progress, job.steps)
    return job.finish(progress)


@dataclass
class LocalProgress:
    """Everything of a local update that crosses an SGD-step boundary.

    A stopped update resumes from this value, in this process or,
    pickled, in another, to the same bytes as an update never stopped.
    After an epoch's last step the next epoch has not begun: its shuffle
    and naive_pseudo_ablation's pseudo-label refresh come with its first
    step.
    """

    params: ModelParams
    velocity: np.ndarray  # momentum buffer, laid out like params.theta
    running: CentroidSet | None  # running centroids; None for CE_BASELINE
    mask: np.ndarray  # latest confident mask of each example
    pseudo: np.ndarray | None  # pseudo-label rows, once the phase has begun
    rng: np.random.Generator
    perm: np.ndarray | None = None  # the current epoch's shuffle
    n_batches: int = 0  # SGD steps taken
    loss_sum: float = 0.0


class LocalJob:
    """One client's local update in round round_t, in resumable pieces:
    start() loads the broadcast state, advance() takes SGD steps, and
    finish() makes the upload once all `steps` are taken.

    The job holds only what is fixed for the whole update (the shard's
    rows and the method's switches), so a job built again from the same
    arguments in another process resumes the same LocalProgress.
    """

    def __init__(
        self,
        dataset: Dataset,
        shard: ClientShard,
        round_t: int,
        r_t: float,
        hp: HyperParams,
        method: str = METHOD_PROPOSED,
    ):
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}")
        if len(shard.indices) == 0:
            raise ContractViolation(f"local_update: client {shard.client_id} shard is empty")
        self.X = dataset.X[shard.indices]
        self.y = dataset.given_labels[shard.indices]
        self.y_true = dataset.true_labels[shard.indices]
        self.C = dataset.C
        self.round_t, self.r_t, self.hp = round_t, r_t, hp
        self.exchange = method != METHOD_CE_BASELINE
        self.local_only = method == METHOD_NO_GLOBAL_CENTROIDS
        self.naive = method == METHOD_NAIVE_PSEUDO
        self.pseudo_phase = self.exchange and round_t >= hp.t_pl
        if self.exchange:
            self.lam_cen, self.lam_e = lambda_cen_schedule(round_t, hp), hp.lambda_e
        else:
            self.lam_cen = self.lam_e = 0.0
        self.batches = math.ceil(len(self.y) / hp.batch_size)  # per epoch
        self.steps = hp.local_steps(len(self.y))

    def start(
        self, global_params: ModelParams, global_centroids: CentroidSet, rng: np.random.Generator
    ) -> LocalProgress:
        """The progress before the first step; writes nothing it is given."""
        X, y = self.X, self.y
        params = global_params.copy()
        if not self.exchange:
            mask = np.ones(len(y), dtype=np.int64)
            running = None
        else:
            # Latest per-example mask; a zero-epoch round flags every example.
            mask = np.zeros(len(y), dtype=np.int64)
            if self.round_t <= 1 or self.local_only or not global_centroids.presence.any():
                running = class_mean_features(mlp_features(params, X), y, self.C)
            else:
                running = global_centroids.copy()
        pseudo = None
        if self.pseudo_phase and not self.naive:
            pseudo = global_pseudo_labels(global_params, X)
        return LocalProgress(params, np.zeros_like(params.theta), running, mask, pseudo, rng)

    def advance(self, p: LocalProgress, n: int) -> None:
        """Take the next n SGD steps of p, in place."""
        if not 0 <= n <= self.steps - p.n_batches:
            raise ContractViolation(
                f"LocalJob.advance: {n} steps after {p.n_batches} of {self.steps}"
            )
        X, y, hp = self.X, self.y, self.hp
        for _ in range(n):
            at = p.n_batches % self.batches * hp.batch_size
            if at == 0:
                if self.pseudo_phase and self.naive:
                    # Self-training variant: pseudo-labels from the current
                    # local model, refreshed every epoch.
                    p.pseudo = global_pseudo_labels(p.params, X)
                p.perm = p.rng.permutation(len(y))
            idx = p.perm[at : at + hp.batch_size]
            Xb, yb = X[idx], y[idx]
            rec = mlp_forward(p.params, Xb)
            if self.exchange:
                sel = small_loss_filter(per_example_ce(rec.logp, yb), self.r_t)
                p.mask[idx] = confident_mask(similarity_labels(rec.hidden, p.running), yb)
            yp = None if p.pseudo is None else p.pseudo[idx]
            losses, d_logits, d_hidden = total_loss_and_grads(
                rec, yb, yp, p.mask[idx], p.running, self.lam_cen, self.lam_e
            )
            grads = mlp_backward(p.params, Xb, rec, d_logits, d_hidden)
            sgd_step(p.params, grads, p.velocity, hp.learning_rate, hp.momentum, hp.weight_decay)
            if self.exchange:
                # Class means come from the just-updated extractor, on the
                # small-loss subset only, then fold into the running centroids.
                fresh = class_mean_features(mlp_features(p.params, Xb[sel]), yb[sel], self.C)
                if self.local_only:
                    p.running = _adopt_fresh(p.running, fresh)
                else:
                    p.running = blend_with_global(p.running, fresh)
            p.loss_sum += losses.total
            p.n_batches += 1

    def finish(self, p: LocalProgress) -> LocalUpdateResult:
        """The upload of a progress that has taken every step.

        Raises TrainingDiverged if its weights are not finite.
        """
        if p.n_batches != self.steps:
            raise ContractViolation(f"LocalJob.finish: {p.n_batches} of {self.steps} steps taken")
        if not np.isfinite(p.params.theta).all():
            raise TrainingDiverged("local weights became non-finite")
        running = p.running
        if running is None or self.local_only:
            running = CentroidSet.empty(self.C, p.params.d_h)
        stats = _make_stats(p.loss_sum, p.n_batches, p.mask, self.y, self.y_true)
        return LocalUpdateResult(params=p.params, centroids=running, stats=stats)


def _adopt_fresh(running: CentroidSet, fresh: CentroidSet) -> CentroidSet:
    """Replace running centroids with the latest naive class means."""
    out = running.copy()
    has = fresh.presence
    out.vectors[has] = fresh.vectors[has]
    out.presence |= has
    return out


def _make_stats(
    loss_sum: float,
    n_batches: int,
    mask: np.ndarray,
    given: np.ndarray,
    true: np.ndarray,
) -> LocalStats:
    detected_true, detected, actual = detection_counts(mask, given, true)
    return LocalStats(
        mean_train_loss=loss_sum / n_batches if n_batches else 0.0,
        confident_fraction=float(mask.mean()),
        detected_noisy=detected,
        detected_true_noisy=detected_true,
        actual_noisy=actual,
    )
