"""One client's local update round.

Implements the full local pipeline: small-loss filtering, running
class-wise centroids blended against the broadcast global centroids,
confident-sample masking, pseudo-label substitution, and the three-term
loss (classification + centroid-alignment + entropy) optimized with
momentum SGD.

The update is a pure function of (shard data, broadcast state, round
index, rng stream): it writes nothing it is given, so results do not
depend on the order clients run in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .datagen import ClientShard, Dataset
from .errors import ConfigError, ContractViolation, TrainingDiverged
from .numkit import (
    ForwardRecord,
    ModelParams,
    ZERO_NORM_EPS,
    cosine_similarity,
    log_softmax_rows,
    mlp_backward,
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
    """Training knobs shared by all method variants.

    tau and lambda_cen_warmup_rounds may be left as None in configs; they
    resolve to the noise ratio and to t_pl respectively (see resolved()).
    """

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
    lambda_cen_warmup_rounds: int | None = None

    def resolved(self, noise_epsilon: float) -> "HyperParams":
        hp = replace(self)
        if hp.tau is None:
            hp.tau = noise_epsilon
        if hp.lambda_cen_warmup_rounds is None:
            hp.lambda_cen_warmup_rounds = hp.t_pl
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
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("hp.momentum: must be in [0,1)")
        if self.hidden_dim < 1:
            raise ConfigError("hp.hidden_dim: must be >= 1")


@dataclass
class LocalStats:
    """Per-round training statistics of one client."""

    mean_train_loss: float
    confident_fraction: float
    # Detection counts against true labels (for round-level precision/recall).
    detected_noisy: int
    detected_true_noisy: int
    actual_noisy: int
    n_examples: int


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


def class_mean_features(
    features: np.ndarray, labels: np.ndarray, selected: np.ndarray, C: int
) -> tuple[CentroidSet, np.ndarray]:
    """Per-class mean feature of the selected examples.

    Classes with no selected example get a zero vector and presence False.
    Also returns the per-class selected counts.
    """
    d_h = features.shape[1]
    vectors = np.zeros((C, d_h))
    counts = np.zeros(C, dtype=np.int64)
    sel_labels = labels[selected]
    sel_features = features[selected]
    for c in range(C):
        rows = sel_features[sel_labels == c]
        counts[c] = rows.shape[0]
        if counts[c] > 0:
            vectors[c] = rows.mean(axis=0)
    return CentroidSet(C=C, vectors=vectors, presence=counts > 0), counts


def blend_with_global(prev: CentroidSet, fresh: CentroidSet) -> CentroidSet:
    """Similarity-squared blend of running centroids with fresh class means.

    Per class, with s = cos(prev, fresh): out = (1-s^2)*prev + s^2*fresh.
    A class absent from fresh keeps the previous centroid; a class the
    running set has never seen adopts the fresh mean outright (the same
    bootstrap rule as the first round).
    """
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


def similarity_labels(features: np.ndarray, centroids: CentroidSet) -> np.ndarray:
    """Nearest present centroid by cosine similarity; ties to the lowest class."""
    if not centroids.presence.any():
        raise ContractViolation("similarity_labels: no class has a centroid yet")
    dots = features @ centroids.vectors.T
    fn = np.linalg.norm(features, axis=1)
    cn = np.linalg.norm(centroids.vectors, axis=1)
    denom = np.outer(fn, cn)
    sims = np.zeros_like(dots)
    ok = (fn[:, None] >= ZERO_NORM_EPS) & (cn[None, :] >= ZERO_NORM_EPS)
    np.divide(dots, denom, out=sims, where=ok)
    sims[:, ~centroids.presence] = -np.inf
    return sims.argmax(axis=1).astype(np.int64)


def confident_mask(sim_labels: np.ndarray, given_labels: np.ndarray) -> np.ndarray:
    """1 where the similarity label agrees with the given label."""
    if sim_labels.shape != given_labels.shape:
        raise ContractViolation("confident_mask: label arrays have different lengths")
    return (sim_labels == given_labels).astype(np.int64)


def global_pseudo_labels(global_params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Soft targets: the broadcast model's softmax rows over the shard.

    Computed once per round at broadcast time and held fixed across local
    epochs; callers must not recompute inside the epoch loop.
    """
    return mlp_forward(global_params, X).probs


def per_example_ce(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Cross-entropy of each row against its integer label."""
    logp = log_softmax_rows(logits)
    return -logp[np.arange(len(labels)), labels]


def lambda_cen_schedule(t: int, hp: HyperParams) -> float:
    """Linear ramp of the centroid-loss weight from 0 to lambda_cen."""
    warmup = hp.lambda_cen_warmup_rounds
    if warmup is None:
        warmup = hp.t_pl
    if warmup <= 0:
        return hp.lambda_cen
    return hp.lambda_cen * min(1.0, t / warmup)


def total_loss_and_grads(
    params: ModelParams,
    X: np.ndarray,
    y: np.ndarray,
    y_pseudo: np.ndarray | None,
    mask: np.ndarray,
    centroids: CentroidSet | None,
    hp: HyperParams,
    use_pseudo: bool,
    lambda_cen_eff: float | None = None,
    rec: ForwardRecord | None = None,
) -> tuple[LossBreakdown, ForwardRecord, np.ndarray, np.ndarray]:
    """Three-term loss and its exact output partials, all as batch means.

    Classification: masked CE against given labels, unmasked against the
    pseudo-labels (or against given labels again when use_pseudo is off;
    y_pseudo may then be None).
    Centroid: masked squared distance of features to their class centroid;
    the term is off (0) when centroids is None.
    Entropy: of every softmax row; the term is off (reported as 0) when
    hp.lambda_e is 0. Returns (breakdown, forward record, dLoss/dlogits,
    dLoss/dhidden) ready for mlp_backward.
    """
    if rec is None:
        rec = mlp_forward(params, X)
    B, C = rec.probs.shape
    lam_cen = hp.lambda_cen if lambda_cen_eff is None else lambda_cen_eff
    lam_e = hp.lambda_e

    onehot = np.zeros((B, C))
    onehot[np.arange(B), y] = 1.0
    if use_pseudo:
        m = mask.astype(np.float64)[:, None]
        targets = m * onehot + (1.0 - m) * y_pseudo
    else:
        targets = onehot

    logp = log_softmax_rows(rec.logits)
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
    return (
        LossBreakdown(l_class, l_centroid, l_entropy, total),
        rec,
        d_logits,
        d_hidden,
    )


def _batches(perm: np.ndarray, batch_size: int):
    for start in range(0, len(perm), batch_size):
        yield perm[start : start + batch_size]


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
    round 1), fixes pseudo-labels once, then walks shuffled mini-batches
    for local_epochs epochs: forward, small-loss filter, confident mask
    from the current running centroids, one SGD step on the composite
    loss, and finally a fresh-feature class-mean blend into the running
    centroids.

    CE_BASELINE runs the same loop with every extra term off: cross-entropy
    on the given labels, an all-ones mask, and no centroid or pseudo-label
    work at all.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if len(shard.indices) == 0:
        raise ContractViolation(f"local_update: client {shard.client_id} shard is empty")

    X = dataset.X[shard.indices]
    y = dataset.given_labels[shard.indices]
    y_true = dataset.true_labels[shard.indices]
    C = dataset.C
    n_k = len(y)

    params = global_params.copy()
    velocity = np.zeros_like(params.theta)
    exchange = method != METHOD_CE_BASELINE
    local_only = method == METHOD_NO_GLOBAL_CENTROIDS

    if not exchange:
        hp = replace(hp, lambda_cen=0.0, lambda_e=0.0)
        mask = np.ones(n_k, dtype=np.int64)
        running = None
        pseudo = None
    else:
        # Latest per-example mask; a zero-epoch round flags every example.
        mask = np.zeros(n_k, dtype=np.int64)
        if round_t <= 1 or local_only or not global_centroids.presence.any():
            rec0 = mlp_forward(params, X)
            running, _ = class_mean_features(rec0.hidden, y, np.arange(n_k), C)
        else:
            running = global_centroids.copy()
        pseudo = global_pseudo_labels(global_params, X)
    use_pseudo = exchange and round_t >= hp.t_pl
    lam_cen = lambda_cen_schedule(round_t, hp)

    loss_sum = 0.0
    n_batches = 0

    for _epoch in range(hp.local_epochs):
        if method == METHOD_NAIVE_PSEUDO:
            # Self-training variant: pseudo-labels from the current local
            # model, refreshed every epoch.
            pseudo = global_pseudo_labels(params, X)
        perm = rng.permutation(n_k)
        for idx in _batches(perm, hp.batch_size):
            Xb, yb = X[idx], y[idx]
            rec = mlp_forward(params, Xb)
            if exchange:
                sel = small_loss_filter(per_example_ce(rec.logits, yb), r_t)
                mask[idx] = confident_mask(similarity_labels(rec.hidden, running), yb)
            yp = pseudo[idx] if use_pseudo else None
            losses, rec, d_logits, d_hidden = total_loss_and_grads(
                params, Xb, yb, yp, mask[idx], running, hp, use_pseudo, lam_cen, rec=rec
            )
            grads = mlp_backward(params, Xb, rec, d_logits, d_hidden)
            sgd_step(params, grads, velocity, hp.learning_rate, hp.momentum, hp.weight_decay)
            if exchange:
                # Class means come from the just-updated extractor, on the
                # small-loss subset only, then fold into the running centroids.
                rec_sel = mlp_forward(params, Xb[sel])
                fresh, _ = class_mean_features(
                    rec_sel.hidden, yb[sel], np.arange(len(sel)), C
                )
                if local_only:
                    running = _adopt_fresh(running, fresh)
                else:
                    running = blend_with_global(running, fresh)
            loss_sum += losses.total
            n_batches += 1

    if running is None:
        running = CentroidSet.empty(C, params.d_h)
    stats = _make_stats(loss_sum, n_batches, mask, y, y_true)
    return LocalUpdateResult(params=params, centroids=running, stats=stats)


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
    detected = mask == 0
    actual = given != true
    return LocalStats(
        mean_train_loss=loss_sum / n_batches if n_batches else 0.0,
        confident_fraction=float(mask.mean()) if len(mask) else 0.0,
        detected_noisy=int(detected.sum()),
        detected_true_noisy=int((detected & actual).sum()),
        actual_noisy=int(actual.sum()),
        n_examples=len(mask),
    )
