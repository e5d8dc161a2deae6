"""One client's local update round.

Implements the full local pipeline: small-loss filtering, running
class-wise centroids blended against the broadcast global centroids,
confident-sample masking, pseudo-label substitution, and the three-term
loss (classification + centroid-alignment + entropy) optimized with
momentum SGD. Each extra term has one switch: pseudo-targets when they
are given, the centroid term when centroids are given, entropy when its
weight is non-zero. A method is a row of METHOD_SPECS that says where
its centroids and pseudo-labels come from; local_update reads the row
and compares no method name, so a new method is a new row.

The update is a pure function of (shard data, broadcast state, round
index, rng stream): it writes nothing it is given, so results do not
depend on the order clients run in.

A client uploads its weights, centroids, mean loss and confident mask.
It reads no true label: the server alone measures detection.

The loss and its partials run a C function of _local.c, and so does
each step's bookkeeping, in two calls: select (the small-loss subset and
the confident mask) before the loss and refresh (the fresh class means
folded into the running centroids) after the step. Each is used where it
loads and passes its probe (_probe); otherwise, or for arrays it cannot
take, the numpy lines run, which give the same bits. select and refresh
also need numpy's own BLAS calls (_calls); without them, or where either
returns 1 (a side of 1, say), that step runs its numpy lines.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _native
from ._native import ref
from .datagen import Dataset
from .errors import ConfigError, ContractViolation, TrainingDiverged
from .numkit import (
    ZERO_NORM_EPS,
    ForwardRecord,
    ModelParams,
    cosine_similarity,
    init_params,
    mlp_backward,
    mlp_features,
    mlp_forward,
    sgd_step,
)


class LocalKernels(NamedTuple):
    """The functions of _local.c (their argument types in _native.ARGTYPES)."""

    loss: Callable
    select: Callable
    refresh: Callable


# numpy's own calls, which select and refresh take, or None.
_calls = _native.numpy_calls()
# The functions of _local.c, bound at the end of this module once they
# pass their probe, or None, where every function runs its numpy lines.
_local = None

# The probe's (B, C, d_h) shapes: sums above 128 elements and below 8.
PROBE_SHAPES = ((36, 10, 67), (5, 2, 3))
PROBE_SEED = 7
# The probe's input width and keep fractions: at 0.1 the cut falls inside
# a tie of losses, at 0.8 (with B = 5) between an inf loss and a NaN.
PROBE_D_IN = 9
PROBE_KEEP = (0.1, 0.5, 0.8, 1.0)


# What checking and passing an argument that the C functions cannot read
# as numpy does raises: a non-array has no dtype, and ref takes only a
# C-contiguous, writeable, non-empty array. Each caller then runs its
# numpy lines.
_UNFIT = (AttributeError, TypeError, ValueError)


@dataclass(frozen=True)
class MethodSpec:
    """A method as a row of switches over the local pipeline.

    centroids: "global" seeds the running centroids from the broadcast
    set (from the shard at round 1 or while the set is empty), blends
    each step's small-loss class means into them and uploads them;
    "local" seeds from the shard every round, adopts each step's means
    outright and uploads none; "none" keeps none (see METHOD_SPECS).
    pseudo: from round t_pl on, soft targets for the unconfident rows
    from the broadcast model once per update ("global"), from the
    client's own weights before every epoch ("self"), or none.
    """

    centroids: str  # "none" | "local" | "global"
    pseudo: str  # "none" | "global" | "self"


METHOD_SPECS = {
    "proposed": MethodSpec(centroids="global", pseudo="global"),
    "ce_baseline": MethodSpec(centroids="none", pseudo="none"),
    "naive_pseudo_ablation": MethodSpec(centroids="global", pseudo="self"),
    "no_global_centroids_ablation": MethodSpec(centroids="local", pseudo="global"),
}
"""Each method's row, by the name a config gives; the first is the default.
centroids="none" also means no small-loss ranking, an all-ones mask and
both extra loss weights 0 whatever hp says, so its pseudo-labels would
change nothing: ce_baseline is plain FedAvg with cross-entropy."""
METHODS = tuple(METHOD_SPECS)


@dataclass
class CentroidSet:
    """One feature centroid per class; presence marks classes that have data.

    Nothing writes a set in place: each step builds a new one, so a
    broadcast set is shared, not copied."""

    C: int
    vectors: np.ndarray  # (C, d_h)
    presence: np.ndarray  # (C,) bool

    @staticmethod
    def empty(C: int, d_h: int) -> "CentroidSet":
        return CentroidSet(C=C, vectors=np.zeros((C, d_h)), presence=np.zeros(C, dtype=bool))

    @property
    def d_h(self) -> int:
        return self.vectors.shape[1]


@dataclass
class HyperParams:
    """Training knobs shared by all method variants. bench.resolve_config
    fills a tau left as None with the noise ratio, noise.epsilon."""

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

    def validate(self) -> None:
        if self.tau is None or not 0.0 <= self.tau < 1.0:
            raise ConfigError(f"hp.tau: must be in [0,1), got {self.tau}")
        if self.t_pl < 0:
            raise ConfigError("hp.t_pl: must be >= 0")
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


@dataclass
class LocalUpdateResult:
    """One client's upload."""

    params: ModelParams
    centroids: CentroidSet
    mean_train_loss: float  # over the update's SGD steps; 0.0 if it took none
    mask: np.ndarray  # (n_k,) int64 confident mask, 0 where flagged as noisy


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

    Used from round t_pl on, in two ways. A row with pseudo="global"
    passes the broadcast global model, once per local update, and holds
    the result fixed across local epochs. pseudo="self" passes the
    client's own current weights and recomputes at the start of every
    local epoch (self-training).
    """
    return mlp_forward(global_params, X).probs


def per_example_ce(logp: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Cross-entropy of each log-softmax row against its integer label."""
    return -logp[np.arange(len(labels)), labels]


def r_schedule(round_t: int, hp: HyperParams) -> float:
    """Keep-fraction for the small-loss filter in round round_t (from 1).

    Keeps everything in round 1, then decays linearly to 1 - tau over the
    next t_horizon rounds, and stays there.
    """
    if round_t < 1:
        raise ContractViolation(f"r_schedule: round_t must be >= 1, got {round_t}")
    return 1.0 - min(hp.tau * (round_t - 1) / hp.t_horizon, hp.tau)


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
    out = _loss_kernel(rec, y, y_pseudo, mask, centroids, lam_cen, lam_e)
    if out is None:
        out = _loss_numpy(rec, y, y_pseudo, mask, centroids, lam_cen, lam_e)
    (l_class, l_centroid, l_entropy), d_logits, d_hidden = out
    total = l_class + lam_cen * l_centroid + lam_e * l_entropy
    for name, value in (
        ("classification", l_class),
        ("centroid", l_centroid),
        ("entropy", l_entropy),
    ):
        if not math.isfinite(value):
            raise TrainingDiverged(f"{name} loss became non-finite")
    return LossBreakdown(l_class, l_centroid, l_entropy, total), d_logits, d_hidden


def _loss_kernel(rec, y, y_pseudo, mask, centroids, lam_cen, lam_e):
    """total_loss_and_grads's terms and partials from _local.c, or None
    where it is not loaded, cannot take these arrays or meets a label out
    of range."""
    if _local is None:
        return None
    probs, logp, hidden = rec.probs, rec.logp, rec.hidden
    vectors = None if centroids is None else centroids.vectors
    # Only the centroid term reads hidden; it and the pseudo-targets read mask.
    masked = vectors is not None or y_pseudo is not None
    try:
        (B, C), d = probs.shape, hidden.shape[-1]
        rows = 0 if vectors is None else len(vectors)
        if not (
            probs.dtype == logp.dtype == hidden.dtype == np.float64
            and logp.shape == (B, C)
            and hidden.shape == (B, d)
            and y.dtype == np.int64
            and y.shape == (B,)
            and (not masked or (mask.dtype == np.int64 and mask.shape == (B,)))
            and (y_pseudo is None or (y_pseudo.dtype == np.float64 and y_pseudo.shape == (B, C)))
            and (vectors is None or (vectors.dtype == np.float64 and vectors.shape == (rows, d)))
        ):
            return None
        grad = vectors is not None and lam_cen != 0.0
        d_logits, d_hidden, terms = np.empty((B, C)), (np.empty if grad else np.zeros)((B, d)), np.empty(3)
        if _local.loss(
            ref(probs), ref(logp), None if vectors is None else ref(hidden), ref(y),
            None if y_pseudo is None else ref(y_pseudo), ref(mask) if masked else None,
            None if vectors is None else ref(vectors), rows, B, C, d, lam_cen, lam_e,
            ref(d_logits), ref(d_hidden) if grad else None, ref(terms),
        ):
            return None
    except _UNFIT:
        return None
    return terms.tolist(), d_logits, d_hidden


def _loss_numpy(rec, y, y_pseudo, mask, centroids, lam_cen, lam_e):
    """total_loss_and_grads's terms and partials, the reference of _loss_kernel."""
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
    return (l_class, l_centroid, l_entropy), d_logits, d_hidden


def _select(rec: ForwardRecord, y: np.ndarray, r_t: float, running: CentroidSet,
            mask: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """A step's bookkeeping before the loss, for the batch at the shard
    rows idx with labels y: its small-loss subset, small_loss_filter
    (per_example_ce(rec.logp, y), r_t), returned, and its confident mask
    against the running centroids, written into mask at idx. One call of
    _local.c's select where it can take these arrays, else numpy's lines."""
    if _local is not None and _calls is not None:
        logp, hidden, V, present = rec.logp, rec.hidden, running.vectors, running.presence
        try:
            (B, C), d = logp.shape, V.shape[-1]
            if (
                logp.dtype == hidden.dtype == V.dtype == np.float64
                and y.dtype == idx.dtype == mask.dtype == np.int64
                and hidden.shape == (B, d)
                and V.shape == (C, d)
                and present.dtype == bool
                and present.shape == (C,)
                and y.shape == idx.shape == (B,)
                and 0.0 < r_t <= 1.0
            ):
                sel = np.empty(math.ceil(r_t * B), dtype=np.int64)
                args = ref(logp), ref(hidden), ref(y), ref(idx), B, C, d, ref(V), ref(present), ZERO_NORM_EPS
                if not _local.select(_calls, *args, len(sel), len(mask), ref(mask), ref(sel)):
                    return sel
        except _UNFIT:
            pass
    sel = small_loss_filter(per_example_ce(rec.logp, y), r_t)
    mask[idx] = confident_mask(similarity_labels(rec.hidden, running), y)
    return sel


def _refresh(params: ModelParams, X: np.ndarray, y: np.ndarray, sel: np.ndarray,
             running: CentroidSet, C: int, replace: bool) -> CentroidSet:
    """A step's bookkeeping after sgd_step: the class means of the batch
    rows sel (of X, labelled y) from the just-updated extractor, folded
    into the running centroids by blend_with_global or, where replace,
    each in place of its class's centroid. One call of _local.c's refresh
    where it can take these arrays, else numpy's lines."""
    if _local is not None and _calls is not None:
        V, had = running.vectors, running.presence
        try:
            (B, d_in), d_h = X.shape, V.shape[-1]
            if (
                X.dtype == V.dtype == np.float64
                and y.dtype == sel.dtype == np.int64
                and y.shape == (B,)
                and sel.ndim == 1
                and params.W1.shape == (d_in, d_h)
                and V.shape == (C, d_h)
                and had.dtype == bool
                and had.shape == (C,)
            ):
                vectors, presence = np.empty((C, d_h)), np.empty(C, dtype=bool)
                args = ref(X), ref(params.theta), ref(y), ref(sel), len(sel), B, d_in, d_h, C, ref(V), ref(had)
                if not _local.refresh(_calls, *args, replace, ZERO_NORM_EPS, ref(vectors), ref(presence)):
                    return CentroidSet(C, vectors, presence)
        except _UNFIT:
            pass
    fresh = class_mean_features(mlp_features(params, X[sel]), y[sel], C)
    if replace:
        vectors = np.where(fresh.presence[:, None], fresh.vectors, running.vectors)
        return CentroidSet(C, vectors, running.presence | fresh.presence)
    return blend_with_global(running, fresh)


def local_update(
    dataset: Dataset,
    rows: np.ndarray,
    global_params: ModelParams,
    global_centroids: CentroidSet,
    round_t: int,
    hp: HyperParams,
    rng: np.random.Generator,
    method: str = METHODS[0],
) -> LocalUpdateResult:
    """Run one client's full local round on its shard, the row indices
    rows into dataset, and return its upload. method names the row of
    METHOD_SPECS to run, read once here.

    Loads the broadcast weights with zero momentum, seeds the running
    centroids, fixes pseudo-labels from round t_pl on (pseudo="global"),
    then walks shuffled mini-batches for local_epochs epochs, refreshing
    pseudo-labels first (pseudo="self"). Each batch: forward, small-loss
    filter keeping r_schedule(round_t, hp), confident mask from the
    running centroids, one SGD step on the composite loss, and a
    fresh-feature class-mean update of the running centroids; a row with
    centroids="none" skips every centroid step. Only centroids="global"
    uploads its centroids; the others upload an empty set.

    Each batch, and each pass over the whole shard (a centroid seed from
    the shard and the pseudo-labels), gathers its rows from dataset.X
    when it runs, so the rows are held once per process, by the dataset.
    Raises TrainingDiverged if the weights it would return are not finite.
    """
    if method not in METHOD_SPECS:
        raise ConfigError(f"unknown method {method!r}")
    if len(rows) == 0:
        raise ContractViolation("local_update: the shard is empty")
    spec = METHOD_SPECS[method]
    X, y, C = dataset.X, dataset.given_labels[rows], dataset.C
    params = global_params.copy()
    velocity = np.zeros_like(params.theta)
    if spec.centroids == "none":
        lam_cen = lam_e = 0.0
        mask = np.ones(len(y), dtype=np.int64)
        running = None
    else:
        lam_cen, lam_e = lambda_cen_schedule(round_t, hp), hp.lambda_e
        r_t = r_schedule(round_t, hp)
        # Latest per-example mask; a zero-epoch round flags every example.
        mask = np.zeros(len(y), dtype=np.int64)
        if round_t <= 1 or spec.centroids == "local" or not global_centroids.presence.any():
            running = class_mean_features(mlp_features(params, X[rows]), y, C)
        else:
            running = global_centroids
    pseudo = None
    if spec.pseudo == "global" and round_t >= hp.t_pl:
        pseudo = global_pseudo_labels(global_params, X[rows])

    loss_sum, steps = 0.0, 0
    for _ in range(hp.local_epochs):
        if spec.pseudo == "self" and round_t >= hp.t_pl:
            pseudo = global_pseudo_labels(params, X[rows])
        perm = rng.permutation(len(y))
        for at in range(0, len(y), hp.batch_size):
            idx = perm[at : at + hp.batch_size]
            Xb, yb = X[rows[idx]], y[idx]
            rec = mlp_forward(params, Xb)
            if spec.centroids != "none":
                sel = _select(rec, yb, r_t, running, mask, idx)
            yp = None if pseudo is None else pseudo[idx]
            losses, d_logits, d_hidden = total_loss_and_grads(
                rec, yb, yp, mask[idx], running, lam_cen, lam_e
            )
            grads = mlp_backward(params, Xb, rec, d_logits, d_hidden)
            sgd_step(params, grads, velocity, hp.learning_rate, hp.momentum, hp.weight_decay)
            if spec.centroids != "none":
                running = _refresh(params, Xb, yb, sel, running, C, spec.centroids == "local")
            loss_sum += losses.total
            steps += 1

    if not np.isfinite(params.theta).all():
        raise TrainingDiverged("local weights became non-finite")
    if spec.centroids != "global":
        running = CentroidSet.empty(C, params.d_h)
    return LocalUpdateResult(params, running, loss_sum / steps if steps else 0.0, mask)


def _probe(kernels: LocalKernels | None) -> bytes:
    """Every result of the functions that _local.c backs, with _local bound
    to kernels, on fixed inputs, as bytes: each of PROBE_SHAPES, -0.0
    entries, every switch of total_loss_and_grads; zero and NaN feature
    rows, an absent class, a tie of cosines, ties of losses across the
    cut, NaN and inf losses; each pair of presences, both refreshes and
    a refresh of one row."""
    global _local
    bound, _local = _local, kernels
    try:
        out = []
        for B, C, d in PROBE_SHAPES:
            rng = np.random.default_rng(PROBE_SEED)
            # Magnitudes from e^-20 to e^20, so a sum in another order would
            # round differently.
            scale = np.exp(rng.uniform(-20.0, 20.0, (B, C + d)))
            hidden = rng.standard_normal((B, d)) * scale[:, C:]
            hidden[0] = -0.0
            rec = ForwardRecord(hidden, rng.random((B, C)), -scale[:, :C])
            y = rng.integers(0, C - 1, B)  # class C-1 has no row
            mask = np.arange(B) % 3 % 2
            pseudo = rng.dirichlet(np.ones(C), B)
            means = class_mean_features(hidden, y, C)
            for centroids in (None, means):
                for y_pseudo in (None, pseudo):
                    for lam_cen in (0.0, 0.7):
                        for lam_e in (0.0, 0.8):
                            terms, d_logits, d_hidden = total_loss_and_grads(
                                rec, y, y_pseudo, mask, centroids, lam_cen, lam_e
                            )
                            out += [np.array(astuple(terms)), d_logits, d_hidden]
            # select: features with a zero row and a NaN row, centroids
            # with a tie between two classes and class C-1 absent; losses
            # i % 4, and then a NaN and an inf loss among them.
            features, vectors = hidden.copy(), hidden[:C].copy()
            features[1], features[2, 0], vectors[1] = 0.0, np.nan, vectors[0]
            running = CentroidSet(C, vectors, np.arange(C) < C - 1)
            logp = rec.logp.copy()
            logp[np.arange(B), y] = -(np.arange(B) % 4.0)
            spoilt = logp.copy()
            spoilt[[1, 2], y[[1, 2]]] = np.nan, -np.inf
            shard_mask, idx = np.zeros(B + 3, np.int64), rng.permutation(B + 3)[:B]
            for z in (logp, spoilt):
                for r_t in PROBE_KEEP:
                    sel = _select(ForwardRecord(features, rec.probs, z), y, r_t, running, shard_mask, idx)
                    out += [sel, shard_mask.copy()]
            # Each class as every row's label: the masks spell out the
            # similarity labels.
            for c in range(C):
                _select(ForwardRecord(features, rec.probs, logp), np.full(B, c), 1.0, running, shard_mask, idx)
                out.append(shard_mask.copy())
            # refresh: each class present before or not, the batch's rows,
            # every other row and one row (which takes numpy's lines).
            params = init_params(PROBE_D_IN, d, C, rng)
            params.b1[...] = rng.standard_normal(d)
            X = rng.standard_normal((B, PROBE_D_IN))
            X[0] = -0.0
            P = rng.standard_normal((C, d))
            P[0] = -0.0
            for had in (np.arange(C) % 2 == 0, np.arange(C) % 2 == 1):
                for sel in (np.arange(B), np.arange(0, B, 2), np.array([1])):
                    for replace in (False, True):
                        fresh = _refresh(params, X, y, sel, CentroidSet(C, P, had), C, replace)
                        out += [fresh.vectors, fresh.presence]
        # A sum of -0.0 alone: numpy adds it to +0.0.
        zeros = np.full((3, 2), -0.0)
        terms, d_logits, d_hidden = total_loss_and_grads(
            ForwardRecord(zeros[:, :1].copy(), zeros, zeros), np.zeros(3, np.int64), None, None, None, 0.0, 0.0
        )
        out += [np.array(astuple(terms)), d_logits, d_hidden]
        return b"".join(a.tobytes() for a in out)
    finally:
        _local = bound


def _loaded() -> LocalKernels | None:
    """The functions of _local.c, or None where the library did not load."""
    functions = [_native.load(name) for name in LocalKernels._fields]
    return None if None in functions else LocalKernels(*functions)


_local = _native.checked(_loaded(), _probe)
