import hashlib
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fednoise.datagen import (
    CENTER_SEPARATION,
    Dataset,
    make_blob_split,
    load_idx,
    partition_iid,
)
from fednoise.bench import DatasetSpec, build_datasets, main
from fednoise.errors import ConfigError, FormatError
from fednoise.metrics import read_csv
from fednoise.seeds import STREAM_BLOBS, make_rng


# ------------------------------------------------ reference implementations


def make_then_split(C, train_per_class, test_per_class, d_in, spread, seed):
    """Reference: draw every class's rows as one array, then split each
    class's first train_per_class rows off by fancy indexing (a copy)."""
    rng = make_rng(seed, STREAM_BLOBS)
    centers = rng.standard_normal((C, d_in))
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    np.fill_diagonal(dists, np.inf)
    dmin = float(dists.min())
    target = CENTER_SEPARATION * spread
    if 0 < dmin < target:
        centers = centers * (target / dmin)
    per_class = train_per_class + test_per_class
    labels = np.repeat(np.arange(C, dtype=np.int64), per_class)
    X = rng.standard_normal((C * per_class, d_in))
    X *= spread
    blocks = X.reshape(C, per_class, d_in)
    blocks += centers[:, None, :]
    train_idx, test_idx = [], []
    for c in range(C):
        idx_c = np.flatnonzero(labels == c)
        train_idx.append(idx_c[:train_per_class])
        test_idx.append(idx_c[train_per_class:])

    def take(idx):
        idx = np.concatenate(idx)
        return Dataset(X=X[idx], true_labels=labels[idx], given_labels=labels[idx], C=C)

    return take(train_idx), take(test_idx)


def decode_whole_file(images_path, labels_path):
    """Reference: every image in the file as float64, divided out of place."""
    with open(images_path, "rb") as f:
        img = f.read()
    with open(labels_path, "rb") as f:
        lab = f.read()
    n, rows, cols = struct.unpack(">III", img[4:16])
    X = np.frombuffer(img, np.uint8, n * rows * cols, 16).astype(np.float64).reshape(n, -1) / 255.0
    return X, np.frombuffer(lab, np.uint8, n, 8).astype(np.int64)


def _arrays(*datasets):
    return [a for ds in datasets for a in (ds.X, ds.true_labels, ds.given_labels)]


def _assert_no_shared_memory(*datasets):
    for a, b in itertools.combinations(_arrays(*datasets), 2):
        assert not np.shares_memory(a, b)


def test_make_blobs_shapes_and_labels():
    ds = make_blob_split(4, 25, 0, 6, 0.5, 3)[0]
    assert ds.X.shape == (100, 6)
    assert ds.n == 100 and ds.d_in == 6 and ds.C == 4
    np.testing.assert_array_equal(np.bincount(ds.true_labels), [25] * 4)
    np.testing.assert_array_equal(ds.given_labels, ds.true_labels)


def test_make_blobs_deterministic():
    a = make_blob_split(3, 10, 0, 4, 0.5, 11)[0]
    b = make_blob_split(3, 10, 0, 4, 0.5, 11)[0]
    np.testing.assert_array_equal(a.X, b.X)
    c = make_blob_split(3, 10, 0, 4, 0.5, 12)[0]
    assert not np.array_equal(a.X, c.X)


def test_make_blobs_centers_separated():
    spread = 0.5
    ds = make_blob_split(5, 200, 0, 8, spread, 0)[0]
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
        make_blob_split(1, 5, 0, 2, 0.5, 0)
    with pytest.raises(ConfigError):
        make_blob_split(3, 0, 0, 2, 0.5, 0)


def test_split_per_class_counts():
    train, test = make_blob_split(C=3, train_per_class=15, test_per_class=5, d_in=4, spread=0.5, seed=1)
    assert train.n == 45 and test.n == 15
    np.testing.assert_array_equal(np.bincount(train.true_labels), [15] * 3)
    np.testing.assert_array_equal(np.bincount(test.true_labels), [5] * 3)
    # The same points as one 20-per-class draw: no overlap, nothing lost.
    joined = np.vstack([train.X, test.X])
    whole = make_blob_split(3, 20, 0, 4, 0.5, 1)[0]
    assert joined.shape == whole.X.shape
    assert len(np.unique(joined, axis=0)) == whole.n


@given(
    C=st.integers(2, 6),
    train_per_class=st.integers(1, 12),
    test_per_class=st.integers(1, 6),
    d_in=st.integers(1, 9),
    spread=st.floats(0.05, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_make_blob_split_bit_equals_make_then_split(C, train_per_class, test_per_class, d_in, spread, seed):
    train, test = make_blob_split(C, train_per_class, test_per_class, d_in, spread, seed)
    ref_train, ref_test = make_then_split(C, train_per_class, test_per_class, d_in, spread, seed)
    for got, ref in zip(_arrays(train, test), _arrays(ref_train, ref_test)):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    assert train.C == test.C == C
    _assert_no_shared_memory(train, test)
    # With no test rows it is the same generator.
    whole = make_blob_split(C, train_per_class + test_per_class, 0, d_in, spread, seed)[0]
    ref_whole, _ = make_then_split(C, train_per_class + test_per_class, 0, d_in, spread, seed)
    assert np.array_equal(whole.X, ref_whole.X)
    assert np.array_equal(whole.true_labels, ref_whole.true_labels)
    _assert_no_shared_memory(whole)


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
    # Noise is applied to given_labels in place; it must not reach the
    # true labels, and no array may alias another.
    _assert_no_shared_memory(train, test)
    assert h.hexdigest() == digest


def test_split_per_class_needs_leftover():
    with pytest.raises(ConfigError):
        build_datasets(DatasetSpec(classes=3, train_per_class=10, test_per_class=0))


def test_partition_iid_even_split():
    ds = make_blob_split(2, 50, 0, 3, 0.5, 2)[0]
    shards = partition_iid(ds, 10, seed=0)
    assert len(shards) == 10
    assert all(len(s) == 10 for s in shards)
    allidx = np.concatenate(shards)
    assert len(allidx) == 100 and len(np.unique(allidx)) == 100


@given(st.integers(1, 17), st.integers(0, 5))
def test_partition_iid_disjoint_cover(num_clients, seed):
    ds = make_blob_split(2, 30, 0, 2, 0.5, 4)[0]
    shards = partition_iid(ds, num_clients, seed=seed)
    allidx = np.concatenate(shards)
    assert sorted(allidx.tolist()) == list(range(60))
    # Balanced to within one example.
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1


def test_partition_iid_rejects_too_many_clients():
    ds = make_blob_split(2, 5, 0, 2, 0.5, 4)[0]
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


def test_subset_takes_prefix(tmp_path, rng):
    # Rows past the kept ones are decoded by nothing: the kept rows are a
    # prefix of the whole-file decode, and 0 or at least n keeps all.
    images = rng.integers(0, 256, size=(9, 4, 5)).astype(np.uint8)
    labels = rng.integers(0, 4, size=9).astype(np.uint8)
    ip, lp = _write_pair(tmp_path, *_idx_bytes(images, labels))
    X_all, y_all = decode_whole_file(ip, lp)
    for keep in range(13):
        ds = load_idx(ip, lp, keep=keep)
        m = 9 if keep == 0 else min(keep, 9)
        assert ds.X.dtype == np.float64 and ds.true_labels.dtype == np.int64
        assert np.array_equal(ds.X, X_all[:m])
        assert np.array_equal(ds.true_labels, y_all[:m])
        assert np.array_equal(ds.given_labels, y_all[:m])
        _assert_no_shared_memory(ds)


def test_load_idx_class_count_from_every_label(tmp_path, rng):
    # Class 6 appears only after the kept rows; C still counts it.
    images = rng.integers(0, 256, size=(8, 3, 3)).astype(np.uint8)
    labels = np.array([0, 1, 2, 1, 0, 2, 6, 3], dtype=np.uint8)
    ip, lp = _write_pair(tmp_path, *_idx_bytes(images, labels))
    ds = load_idx(ip, lp, keep=5)
    assert ds.n == 5 and ds.C == 7
    spec = DatasetSpec(kind="idx", images=ip, labels=lp, test_images=ip, test_labels=lp, subset=3)
    train, test = build_datasets(spec)
    assert (train.n, test.n) == (3, 8)
    assert train.C == test.C == 7


def test_load_idx_truncated_after_kept_rows(tmp_path, rng):
    images = rng.integers(0, 256, size=(6, 2, 2)).astype(np.uint8)
    labels = np.zeros(6, dtype=np.uint8)
    img, lab = _idx_bytes(images, labels)
    # The kept two rows are whole; the file ends inside row 5.
    ip, lp = _write_pair(tmp_path, img[:-3], lab)
    with pytest.raises(FormatError, match=f"at byte {len(img) - 3}, expected {len(img)} bytes"):
        load_idx(ip, lp, keep=2)
    ip, lp = _write_pair(tmp_path, img, lab[:-1])
    with pytest.raises(FormatError, match=f"label data at byte {len(lab) - 1}"):
        load_idx(ip, lp, keep=2)


# ------------------------------------------------------------ set-up memory


def _write_idx_set(root, rng, n_train, n_test, C=10):
    """The four IDX files of a 28x28 image set; returns their paths."""
    paths = []
    for split, n in (("train", n_train), ("test", n_test)):
        labels = rng.integers(0, C, size=n).astype(np.uint8)
        # Class-dependent brightness, so a run has something to learn.
        images = np.minimum(rng.integers(0, 64, size=(n, 28, 28)) + 19 * labels[:, None, None], 255)
        img, lab = _idx_bytes(images, labels)
        ip, lp = root / f"{split}-images.idx", root / f"{split}-labels.idx"
        ip.write_bytes(img)
        lp.write_bytes(lab)
        paths += [str(ip), str(lp)]
    return paths


@pytest.mark.parametrize("kind", ["mnist_shaped_blobs", "idx_subset"])
def test_build_datasets_peak_memory(tmp_path, rng, kind):
    # Set-up writes each array once, so its traced peak is the arrays it
    # returns plus small change (one image file's kept bytes, the centers).
    if kind == "idx_subset":
        images, labels, test_images, test_labels = _write_idx_set(tmp_path, rng, 6000, 1000)
        spec = DatasetSpec(
            kind="idx", images=images, labels=labels,
            test_images=test_images, test_labels=test_labels, subset=1000,
        )
    else:
        spec = DatasetSpec(classes=10, dim=784, train_per_class=1000, test_per_class=200, seed=1)
    tracemalloc.start()
    try:
        train, test = build_datasets(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in _arrays(train, test))
    assert kept > 10_000_000
    assert peak <= 1.25 * kept, f"peak {peak / kept:.2f}x the {kept} bytes returned"


def test_idx_run_end_to_end(tmp_path, capsys):
    images, labels, test_images, test_labels = _write_idx_set(tmp_path, np.random.default_rng(5), 400, 100)
    cfg = tmp_path / "idx.cfg"
    cfg.write_text(
        "dataset.kind = idx\n"
        f"dataset.images = {images}\n"
        f"dataset.labels = {labels}\n"
        f"dataset.test_images = {test_images}\n"
        f"dataset.test_labels = {test_labels}\n"
        "dataset.subset = 300\n"
        "fed.num_clients = 6\nfed.clients_per_round = 3\nfed.rounds = 2\n"
        "hp.local_epochs = 1\nhp.batch_size = 25\nhp.t_pl = 1\n"
    )
    outputs = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    for out in outputs:
        assert main(["run", "--config", str(cfg), "--output", out]) == 0
    assert "rounds=2" in capsys.readouterr().out
    assert [r.round for r in read_csv(outputs[0])] == [1, 2]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
