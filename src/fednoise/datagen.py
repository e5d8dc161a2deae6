"""Dataset construction: Gaussian blobs, IDX image files, i.i.d. partitioning.

Set-up writes every array once: the blob generator draws each class's
train and test rows straight into the final arrays, and the IDX reader
reads and converts only the rows a run keeps.
"""

from __future__ import annotations

import os
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


def make_blob_split(
    C: int,
    train_per_class: int,
    test_per_class: int,
    d_in: int,
    spread: float,
    seed: int,
) -> tuple[Dataset, Dataset]:
    """Balanced isotropic Gaussian clusters, drawn straight into (train, test).

    Centers are standard-normal draws, rescaled (up only) so the closest
    pair sits at least CENTER_SEPARATION * spread apart. Then, class by
    class, it draws that class's train rows and then its test rows into
    the final arrays, so every array is written once. Deterministic in
    the seed; rows within a class are i.i.d., so the positional split is
    unbiased and both sides are exactly balanced.
    """
    if C < 2:
        raise ConfigError(f"blobs: need C >= 2, got {C}")
    if train_per_class < 1 or test_per_class < 0 or d_in < 1:
        raise ConfigError("blobs: need d_in >= 1, train rows >= 1 and test rows >= 0 per class")
    rng = make_rng(seed, STREAM_BLOBS)
    centers = rng.standard_normal((C, d_in))
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    np.fill_diagonal(dists, np.inf)
    dmin = float(dists.min())
    target = CENTER_SEPARATION * spread
    if 0 < dmin < target:
        centers = centers * (target / dmin)
    sizes = (train_per_class, test_per_class)
    Xs = [np.empty((C * m, d_in)) for m in sizes]
    blocks = [X.reshape(C, m, d_in) for X, m in zip(Xs, sizes)]
    # Class c's train rows, then its test rows: the order of one
    # (C, train + test, d_in) draw, so the bytes match drawing it whole.
    for c in range(C):
        for block in blocks:
            rng.standard_normal(out=block[c])
            block[c] *= spread
            block[c] += centers[c]
    labels = [np.repeat(np.arange(C, dtype=np.int64), m) for m in sizes]
    train, test = (
        Dataset(X=X, true_labels=y, given_labels=y.copy(), C=C) for X, y in zip(Xs, labels)
    )
    return train, test


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


def load_idx(images_path: str, labels_path: str, keep: int = 0) -> Dataset:
    """Read an IDX image/label file pair into a flattened float dataset.

    Only the first `keep` rows are read and converted (0, or at least the
    file's count, keeps all; IDX files are already shuffled upstream of
    us). The whole of both files is still checked, and C comes from every
    label in the file, so a prefix cannot shrink the class count.

    Big-endian headers; pixel bytes are scaled to [0,1]. Raises FormatError
    (with the offending byte offset) on bad magic, truncation, or an
    image/label count mismatch.
    """
    with open(images_path, "rb") as f:
        head = f.read(16)
        magic = _read_be32(head, 0, images_path, "magic")
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(
                f"{images_path}: bad image magic 0x{magic:08x} at byte 0, "
                f"expected 0x{IDX_IMAGE_MAGIC:08x}"
            )
        n = _read_be32(head, 4, images_path, "count")
        rows = _read_be32(head, 8, images_path, "row count")
        cols = _read_be32(head, 12, images_path, "column count")
        size = os.fstat(f.fileno()).st_size
        need = 16 + n * rows * cols
        if size < need:
            raise FormatError(
                f"{images_path}: truncated pixel data at byte {size}, expected {need} bytes"
            )
        m = n if keep <= 0 or keep >= n else keep
        pixels = f.read(m * rows * cols)

    with open(labels_path, "rb") as f:
        lab = f.read()
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

    X = np.frombuffer(pixels, dtype=np.uint8).reshape(m, rows * cols).astype(np.float64)
    X /= 255.0
    labels = np.frombuffer(lab, dtype=np.uint8, count=n, offset=8)
    C = int(labels.max()) + 1 if n else 0
    kept = labels[:m].astype(np.int64)
    return Dataset(X=X, true_labels=kept, given_labels=kept.copy(), C=C)
