"""Dataset construction: Gaussian blobs, IDX image files, i.i.d. partitioning.

Set-up writes every array once: the blob generator draws each class's
train and test rows straight into the final arrays, and the IDX reader
reads and converts only the rows a run keeps.

The blob draw runs the C kernel of _normal.c where it loads and passes
its probe (_probe); otherwise numpy's lines, which it reproduces bit
for bit, run instead. The kernel draws a large block in parts, one
thread each, with the same bits for any number of parts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import _native
from ._native import ref
from .errors import ConfigError, FormatError
from .seeds import STREAM_BLOBS, STREAM_PARTITION, make_rng

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Blob centers are pushed apart until their minimum pairwise distance is
# at least this many spreads, so a clean run is nearly separable.
CENTER_SEPARATION = 4.0

# The kernel's probe: a Philox key, the draws made before it (so it
# starts mid-block), the rows of its two blocks, its columns and spread.
# This key's stream takes the ziggurat's tail 3 times and its wedge 27
# times within the probe (tested).
PROBE_KEY = 16
PROBE_SKIP = 3
PROBE_ROWS = (30, 3)
PROBE_COLS = 67
PROBE_SPREAD = 0.7
# The probe draws its blocks whole and in this many parts, so a kernel
# whose split drifts is never used.
PROBE_PARTS = (1, 3)

# A block is drawn in one part per MIN_PART normals, up to the CPUs this
# process may use and MAX_PARTS (the cap of _normal.c). On 2 CPUs two
# parts beat one from about 2^15 normals a block (2^17: 0.72 ms against
# 1.02 ms; 2^14 lost in one of two sets), so each part gets at least
# 2^16: the 10-d desk blocks (5,000 normals) stay whole and the 784-d
# ones (156,800 and 784,000) split.
MIN_PART = 1 << 16
MAX_PARTS = 8


@dataclass
class Dataset:
    """Feature rows plus true labels and (possibly corrupted) given labels."""

    X: np.ndarray  # (n, d_in) float64
    # (n,) int64; server metrics and set-up only; no training code reads it (tested)
    true_labels: np.ndarray
    given_labels: np.ndarray  # (n,) int64
    C: int

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d_in(self) -> int:
        return self.X.shape[1]


def _philox_words(rng: np.random.Generator) -> np.ndarray:
    """The 11 uint64 words of a Philox generator's state that the kernel
    reads and writes: counter, key, buffer and buffer_pos."""
    state = rng.bit_generator.state
    parts = (state["state"]["counter"], state["state"]["key"], state["buffer"], [state["buffer_pos"]])
    return np.concatenate([np.asarray(part, dtype=np.uint64) for part in parts])


def _draw_blocks(
    kernel,
    rng: np.random.Generator,
    blocks: list[np.ndarray],
    spread: float,
    centers: np.ndarray,
    parts: int | None = None,
) -> None:
    """Fill class c's rows of each block in turn, class by class, with
    standard normals times spread plus centers[c]. The kernel, where it
    is not None, gives the bits of numpy's lines and leaves rng in the
    state they leave; blocks and centers are C-contiguous float64. It
    draws each block in the given number of parts, else in one per
    MIN_PART normals up to the usable CPUs and MAX_PARTS; it raises
    ValueError, having drawn nothing, for a number outside 1..MAX_PARTS."""
    if kernel is None:
        for c in range(len(centers)):
            for block in blocks:
                rng.standard_normal(out=block[c])
                block[c] *= spread
                block[c] += centers[c]
        return
    words = _philox_words(rng)
    cpus = _native.usable_cpus()
    for c in range(len(centers)):
        for block in blocks:
            n = block[c].size
            if n:  # ref takes no empty array; the kernel would draw nothing
                count = parts if parts is not None else max(1, min(cpus, n // MIN_PART, MAX_PARTS))
                if kernel(ref(words), ref(block[c]), *block[c].shape, spread, ref(centers[c]), count):
                    raise ValueError(f"the blob draw takes 1 to {MAX_PARTS} parts, not {count}")
    state = rng.bit_generator.state
    state["state"]["counter"] = words[:4]
    state["buffer"] = words[6:10]
    state["buffer_pos"] = int(words[10])
    rng.bit_generator.state = state


def _probe(kernel) -> bytes:
    """The probe's blocks and the generator's state after it, drawn with
    kernel (or numpy's lines where None) in each of PROBE_PARTS, as bytes."""
    centers = (np.arange(PROBE_COLS) * 0.37 - 9.0)[None]
    centers[0, :3] = (-0.0, 0.0, 1e300)
    drawn = []
    for parts in PROBE_PARTS:
        rng = np.random.Generator(np.random.Philox(key=PROBE_KEY))
        rng.standard_normal(PROBE_SKIP)
        blocks = [np.empty((1, rows, PROBE_COLS)) for rows in PROBE_ROWS]
        _draw_blocks(kernel, rng, blocks, PROBE_SPREAD, centers, parts)
        drawn += [a.tobytes() for a in blocks + [_philox_words(rng)]]
    return b"".join(drawn)


# The blob draw of _normal.c, or None, where make_blob_split runs numpy's lines.
_normal_kernel = _native.checked(_native.load("normal_fill"), _probe)


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
    _draw_blocks(_normal_kernel, rng, blocks, spread, centers)
    labels = [np.repeat(np.arange(C, dtype=np.int64), m) for m in sizes]
    train, test = (
        Dataset(X=X, true_labels=y, given_labels=y.copy(), C=C) for X, y in zip(Xs, labels)
    )
    return train, test


def partition_iid(dataset: Dataset, num_clients: int, seed: int) -> list[np.ndarray]:
    """Random near-equal split into shards, one per client: sorted int64
    arrays of row indices into dataset, whose sizes differ by at most
    one. A client is its position in the list: shard k is client k's."""
    if num_clients < 1:
        raise ConfigError("partition_iid: need at least one client")
    if num_clients > dataset.n:
        raise ConfigError(
            f"partition_iid: {num_clients} clients > {dataset.n} examples"
        )
    rng = make_rng(seed, STREAM_PARTITION)
    perm = rng.permutation(dataset.n)
    parts = np.array_split(perm, num_clients)
    return [np.sort(part).astype(np.int64) for part in parts]


def _idx_dims(path: str, kind: str, magic: int) -> tuple[int, ...]:
    """The dimension counts in the header of an IDX file of the given kind
    ("image" or "label"). The low byte of the magic number is the number
    of dimensions, and each dimension has one big-endian 32-bit count.
    Raises FormatError, naming the kind and the byte offset, on a wrong
    magic, a short header, or data shorter than the counts' product."""
    size = 4 * (1 + (magic & 0xFF))
    with open(path, "rb") as f:
        head = f.read(size)
        length = os.fstat(f.fileno()).st_size
    found = int.from_bytes(head[:4], "big")
    if len(head) >= 4 and found != magic:
        raise FormatError(
            f"{path}: bad {kind} magic 0x{found:08x} at byte 0, expected 0x{magic:08x}"
        )
    if len(head) < size:
        raise FormatError(
            f"{path}: truncated {kind} header at byte {len(head)}, expected {size} bytes"
        )
    dims = tuple(int.from_bytes(head[at : at + 4], "big") for at in range(4, size, 4))
    need = size + math.prod(dims)
    if length < need:
        raise FormatError(f"{path}: truncated {kind} data at byte {length}, expected {need} bytes")
    return dims


def idx_header(images_path: str, labels_path: str) -> tuple[int, int, int]:
    """(count, rows, columns) of an IDX image/label file pair, from the
    headers (_idx_dims) and the file sizes alone. Raises FormatError
    (with the offending byte offset) on bad magic, truncation, or an
    image/label count mismatch, and OSError if a file cannot be opened."""
    n, rows, cols = _idx_dims(images_path, "image", IDX_IMAGE_MAGIC)
    (n_l,) = _idx_dims(labels_path, "label", IDX_LABEL_MAGIC)
    if n != n_l:
        raise FormatError(
            f"image/label count mismatch: {images_path} has {n}, {labels_path} has {n_l}"
        )
    return n, rows, cols


def load_idx(images_path: str, labels_path: str, keep: int = 0) -> Dataset:
    """Read an IDX image/label file pair, checked by idx_header, into a
    flattened float dataset with pixel bytes scaled to [0,1].

    Only the first `keep` rows are read and converted (0, or at least the
    file's count, keeps all; IDX files are already shuffled upstream of
    us). C comes from every label in the file, so a prefix cannot shrink
    the class count.
    """
    n, rows, cols = idx_header(images_path, labels_path)
    m = n if keep <= 0 or keep >= n else keep
    with open(images_path, "rb") as f:
        f.seek(16)
        pixels = f.read(m * rows * cols)
    with open(labels_path, "rb") as f:
        f.seek(8)
        labels = np.frombuffer(f.read(n), dtype=np.uint8)

    X = np.frombuffer(pixels, dtype=np.uint8).reshape(m, rows * cols).astype(np.float64)
    X /= 255.0
    C = int(labels.max()) + 1 if n else 0
    kept = labels[:m].astype(np.int64)
    return Dataset(X=X, true_labels=kept, given_labels=kept.copy(), C=C)
