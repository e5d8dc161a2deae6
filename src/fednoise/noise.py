"""Label-noise transition matrices and dataset corruption.

noise.kind is the one axis of the noise model; EPSILON_BOUND holds each
kind's epsilon bound. transition_matrix builds the flip matrix of the two
classic synthetic kinds, symmetric and pair flipping; single_class makes
one random class per client wholly wrong. Any kind can spread its ratio
over the clients (noise.client_variance). apply_noise corrupts in one
loop over groups: each client, or the whole set on the unkeyed stream.
Corruption never touches true labels; those are kept for metrics only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ContractViolation, DataError
from .seeds import STREAM_NOISE, make_rng

if TYPE_CHECKING:
    from .datagen import Dataset

ROW_SUM_TOL = 1e-12

# Each noise kind's epsilon lies in [0, bound): below 0.5, pair flipping
# keeps the true class the majority of its row.
EPSILON_BOUND = {"symmetric": 1.0, "pair": 0.5, "single_class": 1.0}

# Under noise.client_variance, clients fall by position into this many equal
# groups, each with its own noise ratio (client_noise_ratios).
CLIENT_VARIANCE_GROUPS = 5


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix Q with Q[i][j] = Pr(corrupted=j | true=i)."""

    C: int
    Q: np.ndarray

    def __post_init__(self):
        if self.Q.shape != (self.C, self.C):
            raise ContractViolation(f"transition matrix shape {self.Q.shape} != ({self.C}, {self.C})")
        if np.any(self.Q < 0) or np.any(self.Q > 1):
            raise ContractViolation("transition matrix entries must lie in [0,1]")
        if np.max(np.abs(self.Q.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise ContractViolation("transition matrix rows must sum to 1")


@dataclass
class NoiseSpec:
    """Corruption configuration, part of the experiment config file."""

    kind: str = "symmetric"  # the noise model: a key of EPSILON_BOUND
    epsilon: float = 0.0
    client_variance: float = 0.0  # per-client ratio spread (ablation)
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in EPSILON_BOUND:
            raise ConfigError(f"noise.kind: must be one of {tuple(EPSILON_BOUND)}, got {self.kind!r}")
        hi = EPSILON_BOUND[self.kind]
        if not 0.0 <= self.epsilon < hi:
            raise ConfigError(f"noise.epsilon: must be in [0,{hi}) for {self.kind}, got {self.epsilon}")
        if self.client_variance < 0:
            raise ConfigError("noise.client_variance: must be >= 0")
        # Every variance group's ratio must lie in the kind's range too.
        client_noise_ratios(self.kind, self.epsilon, self.client_variance)
        if self.seed < 0:
            raise ConfigError("noise.seed: must be >= 0")


def transition_matrix(kind: str, epsilon: float, C: int) -> TransitionMatrix:
    """Q of the given noise kind at ratio epsilon over C classes: 1-eps on
    the diagonal, and eps spread evenly over the other classes
    ("symmetric") or all on the next class, wrapping ("pair")."""
    if kind not in ("symmetric", "pair"):
        raise ConfigError(f"transition_matrix: no flip matrix for noise kind {kind!r}")
    if C < 2:
        raise ConfigError(f"transition_matrix: need C >= 2, got {C}")
    hi = EPSILON_BOUND[kind]
    if not 0.0 <= epsilon < hi:
        raise ConfigError(f"transition_matrix: epsilon {epsilon} is outside [0,{hi}) for {kind}")
    if kind == "symmetric":
        Q = np.full((C, C), epsilon / (C - 1))
    else:
        Q = np.zeros((C, C))
        Q[np.arange(C), (np.arange(C) + 1) % C] = epsilon
    np.fill_diagonal(Q, 1.0 - epsilon)
    return TransitionMatrix(C=C, Q=Q)


def corrupt(labels: np.ndarray, tm: TransitionMatrix, rng: np.random.Generator) -> np.ndarray:
    """Resample each label independently from its transition-matrix row.

    Inverse-CDF sampling: one uniform draw per example, deterministic for
    a given generator state. Returns a new array.
    """
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= tm.C):
        raise DataError(
            f"corrupt: labels must lie in [0,{tm.C}), got range [{labels.min()},{labels.max()}]"
        )
    cum = np.cumsum(tm.Q, axis=1)
    r = rng.random(labels.shape[0])
    out = (r[:, None] >= cum[labels]).sum(axis=1)
    return np.minimum(out, tm.C - 1).astype(np.int64)


def client_noise_ratios(kind: str, epsilon: float, eta: float) -> np.ndarray:
    """CLIENT_VARIANCE_GROUPS evenly spaced ratios spanning [eps-eta, eps+eta],
    which must lie in [0, EPSILON_BOUND[kind])."""
    lo, hi, bound = epsilon - eta, epsilon + eta, EPSILON_BOUND[kind]
    if lo < 0 or hi >= bound:
        raise ConfigError(
            f"noise.client_variance: ratio range [{lo}, {hi}] escapes [0,{bound}) for {kind}"
        )
    return np.linspace(lo, hi, CLIENT_VARIANCE_GROUPS)


def single_class_corruption(
    labels: np.ndarray, C: int, epsilon: float, rng: np.random.Generator
) -> np.ndarray:
    """Make one uniformly chosen class entirely wrong; corrupt the rest at eps.

    Every example of the chosen class gets a uniform label over the other
    C-1 classes; remaining examples go through symmetric flipping at the
    given ratio. Returns the corrupted labels.
    """
    if C < 2:
        raise ConfigError(f"single_class_corruption: need C >= 2, got {C}")
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= C):
        raise DataError(f"single_class_corruption: labels must lie in [0,{C})")
    chosen = int(rng.integers(C))
    out = labels.copy().astype(np.int64)
    hit = labels == chosen
    # Uniform over the C-1 wrong classes: draw in [0, C-1) and skip the true class.
    draws = rng.integers(C - 1, size=int(hit.sum()))
    out[hit] = np.where(draws >= chosen, draws + 1, draws)
    rest = ~hit
    if epsilon > 0 and rest.any():
        out[rest] = corrupt(labels[rest], transition_matrix("symmetric", epsilon, C), rng)
    return out


def apply_noise(dataset: "Dataset", shards: list[np.ndarray], spec: NoiseSpec) -> None:
    """Corrupt dataset.given_labels in place according to the noise spec.

    shards are the clients' row-index arrays, client k's at position k.
    One loop corrupts group by group. Under single_class or
    client_variance a group is client k's shard, on the sub-stream of
    (noise seed, k) at its variance group's ratio, so parallel setup stays
    reproducible; else the whole set on the unkeyed stream at epsilon > 0.
    """
    spec.validate()
    if spec.kind == "single_class" or spec.client_variance > 0:
        ratios = client_noise_ratios(spec.kind, spec.epsilon, spec.client_variance)
        groups = [
            (rows, (STREAM_NOISE, k), float(ratios[k * CLIENT_VARIANCE_GROUPS // len(shards)]))
            for k, rows in enumerate(shards)
        ]
    else:
        groups = [(slice(None), (STREAM_NOISE,), spec.epsilon)] if spec.epsilon > 0 else []
    for rows, stream, eps in groups:
        rng = make_rng(spec.seed, *stream)
        true = dataset.true_labels[rows]
        if spec.kind == "single_class":
            dataset.given_labels[rows] = single_class_corruption(true, dataset.C, eps, rng)
        else:
            tm = transition_matrix(spec.kind, eps, dataset.C)
            dataset.given_labels[rows] = corrupt(true, tm, rng)
