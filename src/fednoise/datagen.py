"""Dataset construction: Gaussian blobs, IDX image files, i.i.d. partitioning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .seeds import STREAM_BLOBS, STREAM_PARTITION, make_rng

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Blob centers are pushed apart until their minimum pairwise distance is
# at least this many spreads, so a clean run is nearly separable.
CENTER_SEPARATION = 4.0


@dataclass
class Dataset:
    """Feature rows plus true labels and (possibly corrupted) given labels."""

    X: np.ndarray  # (n, d_in) float64
    true_labels: np.ndarray  # (n,) int64; metrics only, never visible to training
    given_labels: np.ndarray  # (n,) int64
    C: int

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d_in(self) -> int:
        return self.X.shape[1]


@dataclass
class ClientShard:
    """One client's slice of the training set."""

    client_id: int
    indices: np.ndarray  # into the parent Dataset


def make_blobs(
    C: int, per_class: int, d_in: int, spread: float, seed: int
) -> Dataset:
    """Balanced isotropic Gaussian clusters with well-separated centers.

    Centers are standard-normal draws, rescaled (up only) so the closest
    pair sits at least CENTER_SEPARATION * spread apart. Deterministic in
    the seed.
    """
    if C < 2:
        raise ConfigError(f"make_blobs: need C >= 2, got {C}")
    if per_class < 1 or d_in < 1:
        raise ConfigError("make_blobs: per_class and d_in must be positive")
    rng = make_rng(seed, STREAM_BLOBS)
    centers = rng.standard_normal((C, d_in))
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    np.fill_diagonal(dists, np.inf)
    dmin = float(dists.min())
    target = CENTER_SEPARATION * spread
    if 0 < dmin < target:
        centers = centers * (target / dmin)
    labels = np.repeat(np.arange(C, dtype=np.int64), per_class)
    # Built in place, class by contiguous row block: no full-size temporary.
    X = rng.standard_normal((C * per_class, d_in))
    X *= spread
    blocks = X.reshape(C, per_class, d_in)
    blocks += centers[:, None, :]
    return Dataset(X=X, true_labels=labels, given_labels=labels.copy(), C=C)


def split_per_class(dataset: Dataset, train_per_class: int) -> tuple[Dataset, Dataset]:
    """First train_per_class rows of each class to train, the rest to test.

    Rows within a class are i.i.d. draws, so positional splitting is
    unbiased and keeps both sides exactly balanced on balanced input.
    """
    train_idx, test_idx = [], []
    for c in range(dataset.C):
        idx_c = np.flatnonzero(dataset.true_labels == c)
        if len(idx_c) <= train_per_class:
            raise ConfigError(
                f"split_per_class: class {c} has {len(idx_c)} rows, "
                f"need more than train_per_class={train_per_class}"
            )
        train_idx.append(idx_c[:train_per_class])
        test_idx.append(idx_c[train_per_class:])
    tr = np.concatenate(train_idx)
    te = np.concatenate(test_idx)

    def take(idx: np.ndarray) -> Dataset:
        # Fancy indexing copies, so the three arrays share no memory.
        return Dataset(
            X=dataset.X[idx],
            true_labels=dataset.true_labels[idx],
            given_labels=dataset.true_labels[idx],
            C=dataset.C,
        )

    return take(tr), take(te)


def partition_iid(dataset: Dataset, num_clients: int, seed: int) -> list[ClientShard]:
    """Random near-equal split: shard sizes differ by at most one."""
    if num_clients < 1:
        raise ConfigError("partition_iid: need at least one client")
    if num_clients > dataset.n:
        raise ConfigError(
            f"partition_iid: {num_clients} clients > {dataset.n} examples"
        )
    rng = make_rng(seed, STREAM_PARTITION)
    perm = rng.permutation(dataset.n)
    parts = np.array_split(perm, num_clients)
    return [
        ClientShard(client_id=k, indices=np.sort(part).astype(np.int64))
        for k, part in enumerate(parts)
    ]


def _read_be32(data: bytes, offset: int, path: str, what: str) -> int:
    if offset + 4 > len(data):
        raise FormatError(f"{path}: truncated {what} at byte {offset}")
    return int.from_bytes(data[offset : offset + 4], "big")


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Read an IDX image/label file pair into a flattened float dataset.

    Big-endian headers; pixel bytes are scaled to [0,1]. Raises FormatError
    (with the offending byte offset) on bad magic, truncation, or an
    image/label count mismatch.
    """
    with open(images_path, "rb") as f:
        img = f.read()
    with open(labels_path, "rb") as f:
        lab = f.read()

    magic = _read_be32(img, 0, images_path, "magic")
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(
            f"{images_path}: bad image magic 0x{magic:08x} at byte 0, "
            f"expected 0x{IDX_IMAGE_MAGIC:08x}"
        )
    n = _read_be32(img, 4, images_path, "count")
    rows = _read_be32(img, 8, images_path, "row count")
    cols = _read_be32(img, 12, images_path, "column count")
    need = 16 + n * rows * cols
    if len(img) < need:
        raise FormatError(
            f"{images_path}: truncated pixel data at byte {len(img)}, expected {need} bytes"
        )

    magic_l = _read_be32(lab, 0, labels_path, "magic")
    if magic_l != IDX_LABEL_MAGIC:
        raise FormatError(
            f"{labels_path}: bad label magic 0x{magic_l:08x} at byte 0, "
            f"expected 0x{IDX_LABEL_MAGIC:08x}"
        )
    n_l = _read_be32(lab, 4, labels_path, "count")
    if len(lab) < 8 + n_l:
        raise FormatError(
            f"{labels_path}: truncated label data at byte {len(lab)}, expected {8 + n_l} bytes"
        )
    if n != n_l:
        raise FormatError(
            f"image/label count mismatch: {images_path} has {n}, {labels_path} has {n_l}"
        )

    pixels = np.frombuffer(img, dtype=np.uint8, count=n * rows * cols, offset=16)
    X = pixels.astype(np.float64).reshape(n, rows * cols) / 255.0
    labels = np.frombuffer(lab, dtype=np.uint8, count=n, offset=8).astype(np.int64)
    C = int(labels.max()) + 1 if n else 0
    return Dataset(X=X, true_labels=labels, given_labels=labels.copy(), C=C)


def subset(dataset: Dataset, n: int) -> Dataset:
    """First n rows (IDX files are already shuffled upstream of us)."""
    if n <= 0 or n >= dataset.n:
        return dataset
    return Dataset(
        X=dataset.X[:n].copy(),
        true_labels=dataset.true_labels[:n].copy(),
        given_labels=dataset.given_labels[:n].copy(),
        C=dataset.C,
    )
