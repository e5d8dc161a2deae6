"""Label-noise transition matrices and dataset corruption.

Supports the two classic synthetic noise kinds (symmetric and pair
flipping) plus two ablation modes: per-client noise ratios spread over
a range, and fully corrupting one random class per client. Corruption
never touches true labels; those are kept alongside for metrics only.
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

NOISE_KINDS = ("symmetric", "pair")

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

    kind: str = "symmetric"
    epsilon: float = 0.0
    client_variance: float = 0.0  # per-client ratio spread (ablation)
    per_class_mode: bool = False  # one fully-wrong class per client (ablation)
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"noise.kind: must be one of {NOISE_KINDS}, got {self.kind!r}")
        hi = 0.5 if self.kind == "pair" else 1.0
        if not 0.0 <= self.epsilon < hi:
            raise ConfigError(f"noise.epsilon: must be in [0,{hi}) for {self.kind}, got {self.epsilon}")
        if self.client_variance < 0:
            raise ConfigError("noise.client_variance: must be >= 0")
        if self.client_variance > 0:
            lo, hi_r = self.epsilon - self.client_variance, self.epsilon + self.client_variance
            if lo < 0 or hi_r >= hi:
                raise ConfigError(
                    f"noise.client_variance: ratio range [{lo}, {hi_r}] escapes [0,{hi}) "
                    f"for {self.kind}"
                )
        if self.client_variance > 0 and self.per_class_mode:
            raise ConfigError("noise: client_variance and per_class_mode are mutually exclusive")
        if self.per_class_mode and self.kind != "symmetric":
            raise ConfigError(
                f"noise.per_class_mode flips the other classes symmetrically, "
                f"so noise.kind must be symmetric, got {self.kind!r}"
            )
        if self.seed < 0:
            raise ConfigError("noise.seed: must be >= 0")


def symmetric_transition(epsilon: float, C: int) -> TransitionMatrix:
    """1-eps on the diagonal, eps/(C-1) everywhere else."""
    if C < 2:
        raise ConfigError(f"symmetric_transition: need C >= 2, got {C}")
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"symmetric_transition: epsilon must be in [0,1), got {epsilon}")
    Q = np.full((C, C), epsilon / (C - 1))
    np.fill_diagonal(Q, 1.0 - epsilon)
    return TransitionMatrix(C=C, Q=Q)


def pair_transition(epsilon: float, C: int) -> TransitionMatrix:
    """1-eps on the diagonal, eps on the wrapping superdiagonal, 0 elsewhere."""
    if C < 2:
        raise ConfigError(f"pair_transition: need C >= 2, got {C}")
    if not 0.0 <= epsilon < 0.5:
        raise ConfigError(
            f"pair_transition: epsilon must be in [0,0.5) so the true class stays majority, got {epsilon}"
        )
    Q = np.zeros((C, C))
    for i in range(C):
        Q[i, i] = 1.0 - epsilon
        Q[i, (i + 1) % C] = epsilon
    return TransitionMatrix(C=C, Q=Q)


def transition_for(kind: str, epsilon: float, C: int) -> TransitionMatrix:
    if kind == "symmetric":
        return symmetric_transition(epsilon, C)
    if kind == "pair":
        return pair_transition(epsilon, C)
    raise ConfigError(f"unknown noise kind {kind!r}")


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


def client_noise_ratios(epsilon: float, eta: float) -> np.ndarray:
    """CLIENT_VARIANCE_GROUPS evenly spaced ratios spanning [eps-eta, eps+eta]."""
    lo, hi = epsilon - eta, epsilon + eta
    if lo < 0 or hi >= 1:
        raise ConfigError(f"client_noise_ratios: range [{lo}, {hi}] escapes [0,1)")
    return np.linspace(lo, hi, CLIENT_VARIANCE_GROUPS)


def single_class_corruption(
    labels: np.ndarray, C: int, epsilon: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Make one uniformly chosen class entirely wrong; corrupt the rest at eps.

    Every example of the chosen class gets a uniform label over the other
    C-1 classes; remaining examples go through symmetric flipping at the
    given ratio. Returns (corrupted labels, chosen class).
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
        out[rest] = corrupt(labels[rest], symmetric_transition(epsilon, C), rng)
    return out, chosen


def apply_noise(dataset: "Dataset", shards: list[np.ndarray], spec: NoiseSpec) -> None:
    """Corrupt dataset.given_labels in place according to the noise spec.

    shards are the clients' row-index arrays, client k's at position k.
    The standard mode corrupts the whole training set with one transition
    matrix (before looking at the partition). The two ablation modes work
    shard by shard, client k's with its own sub-stream derived from
    (noise seed, k) so parallel setup stays reproducible.
    """
    spec.validate()
    if spec.per_class_mode:
        for k, rows in enumerate(shards):
            rng = make_rng(spec.seed, STREAM_NOISE, k)
            corrupted, _ = single_class_corruption(
                dataset.true_labels[rows], dataset.C, spec.epsilon, rng
            )
            dataset.given_labels[rows] = corrupted
        return
    if spec.client_variance > 0:
        ratios = client_noise_ratios(spec.epsilon, spec.client_variance)
        for k, rows in enumerate(shards):
            group = k * CLIENT_VARIANCE_GROUPS // len(shards)
            tm = transition_for(spec.kind, float(ratios[group]), dataset.C)
            rng = make_rng(spec.seed, STREAM_NOISE, k)
            dataset.given_labels[rows] = corrupt(dataset.true_labels[rows], tm, rng)
        return
    if spec.epsilon > 0:
        tm = transition_for(spec.kind, spec.epsilon, dataset.C)
        dataset.given_labels[:] = corrupt(
            dataset.true_labels, tm, make_rng(spec.seed, STREAM_NOISE)
        )
