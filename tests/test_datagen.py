import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fednoise.datagen import (
    CENTER_SEPARATION,
    make_blobs,
    load_idx,
    partition_iid,
    split_per_class,
    subset,
)
from fednoise.bench import DatasetSpec, build_datasets
from fednoise.errors import ConfigError, FormatError


def test_make_blobs_shapes_and_labels():
    ds = make_blobs(C=4, per_class=25, d_in=6, spread=0.5, seed=3)
    assert ds.X.shape == (100, 6)
    assert ds.n == 100 and ds.d_in == 6 and ds.C == 4
    np.testing.assert_array_equal(np.bincount(ds.true_labels), [25] * 4)
    np.testing.assert_array_equal(ds.given_labels, ds.true_labels)


def test_make_blobs_deterministic():
    a = make_blobs(C=3, per_class=10, d_in=4, spread=0.5, seed=11)
    b = make_blobs(C=3, per_class=10, d_in=4, spread=0.5, seed=11)
    np.testing.assert_array_equal(a.X, b.X)
    c = make_blobs(C=3, per_class=10, d_in=4, spread=0.5, seed=12)
    assert not np.array_equal(a.X, c.X)


def test_make_blobs_centers_separated():
    spread = 0.5
    ds = make_blobs(C=5, per_class=200, d_in=8, spread=spread, seed=0)
    centers = np.stack([ds.X[ds.true_labels == c].mean(axis=0) for c in range(5)])
    dmin = min(
        np.linalg.norm(centers[i] - centers[j])
        for i in range(5)
        for j in range(i + 1, 5)
    )
    # Empirical means sit close to true centers, so allow 10% slack.
    assert dmin > CENTER_SEPARATION * spread * 0.9


def test_make_blobs_rejects_bad_args():
    with pytest.raises(ConfigError):
        make_blobs(C=1, per_class=5, d_in=2, spread=0.5, seed=0)
    with pytest.raises(ConfigError):
        make_blobs(C=3, per_class=0, d_in=2, spread=0.5, seed=0)


def test_split_per_class_counts():
    ds = make_blobs(C=3, per_class=20, d_in=4, spread=0.5, seed=1)
    train, test = split_per_class(ds, 15)
    assert train.n == 45 and test.n == 15
    np.testing.assert_array_equal(np.bincount(train.true_labels), [15] * 3)
    np.testing.assert_array_equal(np.bincount(test.true_labels), [5] * 3)
    # Same underlying points, no overlap, nothing lost.
    joined = np.vstack([train.X, test.X])
    assert joined.shape == ds.X.shape
    assert len(np.unique(joined, axis=0)) == ds.n


@pytest.mark.parametrize(
    "spec, digest",
    [
        # blobs.cfg's dataset.
        (DatasetSpec(), "4dd62c37c0d26707bdc7647dac2418f9314151075ffbf1737046e0fcc9f9a84b"),
        # The MNIST-shaped benchmark dataset at seed 1.
        (
            DatasetSpec(classes=10, dim=784, train_per_class=1000, test_per_class=200, seed=1),
            "0dba552eb4f5b7ae0872de19318296e2fe63ad9560467fa9fc339f25956bd17e",
        ),
    ],
    ids=["desk", "mnist_shaped"],
)
def test_build_datasets_bytes_are_pinned(spec, digest):
    # Digests of the arrays the generator wrote before X was built in
    # place; every CSV hash depends on these bytes.
    train, test = build_datasets(spec)
    h = hashlib.sha256()
    for ds in (train, test):
        for arr in (ds.X, ds.true_labels, ds.given_labels):
            h.update(arr.tobytes())
        # Noise is applied to given_labels in place; it must not reach
        # the true labels.
        assert not np.shares_memory(ds.true_labels, ds.given_labels)
        assert not np.shares_memory(ds.X, ds.true_labels)
    assert h.hexdigest() == digest


def test_split_per_class_needs_leftover():
    ds = make_blobs(C=3, per_class=10, d_in=4, spread=0.5, seed=1)
    with pytest.raises(ConfigError):
        split_per_class(ds, 10)


def test_partition_iid_even_split():
    ds = make_blobs(C=2, per_class=50, d_in=3, spread=0.5, seed=2)
    shards = partition_iid(ds, 10, seed=0)
    assert len(shards) == 10
    assert all(len(s.indices) == 10 for s in shards)
    allidx = np.concatenate([s.indices for s in shards])
    assert len(allidx) == 100 and len(np.unique(allidx)) == 100
    assert [s.client_id for s in shards] == list(range(10))


@given(st.integers(1, 17), st.integers(0, 5))
def test_partition_iid_disjoint_cover(num_clients, seed):
    ds = make_blobs(C=2, per_class=30, d_in=2, spread=0.5, seed=4)
    shards = partition_iid(ds, num_clients, seed=seed)
    allidx = np.concatenate([s.indices for s in shards])
    assert sorted(allidx.tolist()) == list(range(60))
    # Balanced to within one example.
    sizes = [len(s.indices) for s in shards]
    assert max(sizes) - min(sizes) <= 1


def test_partition_iid_rejects_too_many_clients():
    ds = make_blobs(C=2, per_class=5, d_in=2, spread=0.5, seed=4)
    with pytest.raises(ConfigError):
        partition_iid(ds, 11, seed=0)


def _idx_bytes(images: np.ndarray, labels: np.ndarray) -> tuple[bytes, bytes]:
    n, rows, cols = images.shape
    img = struct.pack(">IIII", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes()
    lab = struct.pack(">II", 0x00000801, len(labels)) + labels.astype(np.uint8).tobytes()
    return img, lab


def _write_pair(tmp_path, img: bytes, lab: bytes):
    ip = tmp_path / "img.idx"
    lp = tmp_path / "lab.idx"
    ip.write_bytes(img)
    lp.write_bytes(lab)
    return str(ip), str(lp)


def test_load_idx_roundtrip(tmp_path, rng):
    images = rng.integers(0, 256, size=(7, 4, 5)).astype(np.uint8)
    labels = rng.integers(0, 3, size=7).astype(np.uint8)
    ip, lp = _write_pair(tmp_path, *_idx_bytes(images, labels))
    ds = load_idx(ip, lp)
    assert ds.X.shape == (7, 20)
    assert ds.C == int(labels.max()) + 1
    np.testing.assert_allclose(ds.X, images.reshape(7, 20) / 255.0)
    np.testing.assert_array_equal(ds.true_labels, labels)
    np.testing.assert_array_equal(ds.given_labels, labels)
    assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0


def test_load_idx_bad_image_magic(tmp_path, rng):
    images = rng.integers(0, 256, size=(2, 3, 3)).astype(np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    img, lab = _idx_bytes(images, labels)
    img = struct.pack(">I", 0x00000802) + img[4:]
    ip, lp = _write_pair(tmp_path, img, lab)
    with pytest.raises(FormatError, match="byte 0"):
        load_idx(ip, lp)


def test_load_idx_truncated_pixels(tmp_path, rng):
    images = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    img, lab = _idx_bytes(images, labels)
    ip, lp = _write_pair(tmp_path, img[:-5], lab)
    with pytest.raises(FormatError, match="byte"):
        load_idx(ip, lp)


def test_load_idx_count_mismatch(tmp_path, rng):
    images = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
    img, _ = _idx_bytes(images, np.zeros(3, dtype=np.uint8))
    _, lab = _idx_bytes(images[:2], np.zeros(2, dtype=np.uint8))
    ip, lp = _write_pair(tmp_path, img, lab)
    with pytest.raises(FormatError, match="count"):
        load_idx(ip, lp)


def test_load_idx_truncated_header(tmp_path):
    ip = tmp_path / "img.idx"
    lp = tmp_path / "lab.idx"
    ip.write_bytes(b"\x00\x00")
    lp.write_bytes(b"\x00\x00")
    with pytest.raises(FormatError, match="byte"):
        load_idx(str(ip), str(lp))


def test_subset_takes_prefix():
    ds = make_blobs(C=2, per_class=10, d_in=3, spread=0.5, seed=6)
    small = subset(ds, 5)
    assert small.n == 5
    np.testing.assert_array_equal(small.X, ds.X[:5])
    assert subset(ds, 0).n == ds.n
    assert subset(ds, 999).n == ds.n
