import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fednoise.datagen import Dataset, partition_iid
from fednoise.errors import ConfigError, DataError
from fednoise.noise import (
    NoiseSpec,
    TransitionMatrix,
    apply_noise,
    client_noise_ratios,
    corrupt,
    pair_transition,
    single_class_corruption,
    symmetric_transition,
    transition_for,
)
from fednoise.seeds import STREAM_NOISE, make_rng


def test_symmetric_matrix_values():
    tm = symmetric_transition(0.3, 4)
    assert tm.Q[0, 0] == pytest.approx(0.7)
    assert tm.Q[0, 1] == pytest.approx(0.1)
    np.testing.assert_allclose(np.diag(tm.Q), 0.7)
    off = tm.Q[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, 0.1)


def test_pair_matrix_values():
    tm = pair_transition(0.2, 5)
    np.testing.assert_allclose(np.diag(tm.Q), 0.8)
    for i in range(5):
        assert tm.Q[i, (i + 1) % 5] == pytest.approx(0.2)
    assert tm.Q.sum() == pytest.approx(5.0)
    # All other entries are zero.
    mask = np.eye(5, dtype=bool)
    for i in range(5):
        mask[i, (i + 1) % 5] = True
    assert (tm.Q[~mask] == 0).all()


@given(st.floats(0.0, 0.89), st.integers(2, 12))
def test_symmetric_rows_sum_to_one(eps, C):
    tm = symmetric_transition(eps, C)
    np.testing.assert_allclose(tm.Q.sum(axis=1), 1.0, atol=1e-12)


@given(st.floats(0.0, 0.49), st.integers(2, 12))
def test_pair_rows_sum_to_one(eps, C):
    tm = pair_transition(eps, C)
    np.testing.assert_allclose(tm.Q.sum(axis=1), 1.0, atol=1e-12)


def test_pair_rejects_half_and_up():
    with pytest.raises(ConfigError):
        pair_transition(0.5, 4)


def test_transition_matrix_validates_rows():
    bad = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(Exception):
        TransitionMatrix(C=2, Q=bad)


def test_transition_for_dispatch():
    assert transition_for("symmetric", 0.2, 3).Q[0, 0] == pytest.approx(0.8)
    assert transition_for("pair", 0.2, 3).Q[0, 1] == pytest.approx(0.2)
    with pytest.raises(ConfigError):
        transition_for("gaussian", 0.2, 3)


def test_corrupt_identity_at_zero_eps(rng):
    labels = rng.integers(0, 6, size=400)
    out = corrupt(labels, symmetric_transition(0.0, 6), make_rng(7, STREAM_NOISE))
    np.testing.assert_array_equal(out, labels)


def test_corrupt_deterministic(rng):
    labels = rng.integers(0, 4, size=300)
    tm = symmetric_transition(0.4, 4)
    a, b, c = (corrupt(labels, tm, make_rng(s, STREAM_NOISE)) for s in (5, 5, 6))
    np.testing.assert_array_equal(a, b)
    assert (a != c).any()


def test_corrupt_rejects_out_of_range():
    with pytest.raises(DataError):
        corrupt(np.array([0, 5]), symmetric_transition(0.1, 3), make_rng(0, STREAM_NOISE))


def test_corrupt_flip_rate_within_3_sigma(rng):
    n = 20000
    labels = rng.integers(0, 10, size=n)
    for eps in (0.2, 0.5):
        out = corrupt(labels, symmetric_transition(eps, 10), make_rng(11, STREAM_NOISE))
        flips = int((out != labels).sum())
        sigma = np.sqrt(n * eps * (1 - eps))
        assert abs(flips - n * eps) <= 3 * sigma


def test_pair_corrupt_support(rng):
    labels = rng.integers(0, 5, size=5000)
    out = corrupt(labels, pair_transition(0.3, 5), make_rng(3, STREAM_NOISE))
    moved = out != labels
    np.testing.assert_array_equal(out[moved], (labels[moved] + 1) % 5)


def test_client_noise_ratios_values():
    ratios = client_noise_ratios(0.4, 0.2)
    np.testing.assert_allclose(ratios, [0.2, 0.3, 0.4, 0.5, 0.6], atol=1e-12)
    with pytest.raises(ConfigError):
        client_noise_ratios(0.9, 0.2)


def test_single_class_corruption(rng):
    labels = rng.integers(0, 4, size=2000)
    out, chosen = single_class_corruption(labels, 4, 0.0, make_rng(17, STREAM_NOISE))
    assert 0 <= chosen < 4
    was_chosen = labels == chosen
    # Every example of the chosen class moved, and to a valid other class.
    assert (out[was_chosen] != chosen).all()
    assert set(np.unique(out[was_chosen])) <= set(range(4)) - {chosen}
    # eps=0 leaves the other classes untouched.
    np.testing.assert_array_equal(out[~was_chosen], labels[~was_chosen])


def test_single_class_corruption_rest_at_eps(rng):
    labels = rng.integers(0, 4, size=8000)
    out, chosen = single_class_corruption(labels, 4, 0.3, make_rng(23, STREAM_NOISE))
    rest = labels != chosen
    n = int(rest.sum())
    flips = int((out[rest] != labels[rest]).sum())
    sigma = np.sqrt(n * 0.3 * 0.7)
    assert abs(flips - n * 0.3) <= 4 * sigma


def _toy_dataset(rng, n=600, C=4) -> Dataset:
    labels = rng.integers(0, C, size=n).astype(np.int64)
    return Dataset(
        X=rng.normal(size=(n, 3)),
        true_labels=labels,
        given_labels=labels.copy(),
        C=C,
    )


def test_apply_noise_full_dataset(rng):
    ds = _toy_dataset(rng)
    shards = partition_iid(ds, 6, seed=0)
    spec = NoiseSpec(kind="symmetric", epsilon=0.4, seed=5)
    apply_noise(ds, shards, spec)
    frac = (ds.given_labels != ds.true_labels).mean()
    assert 0.25 < frac < 0.55
    np.testing.assert_array_equal(
        ds.given_labels,
        corrupt(ds.true_labels, symmetric_transition(0.4, 4), make_rng(5, STREAM_NOISE)),
    )


def test_apply_noise_zero_is_noop(rng):
    ds = _toy_dataset(rng)
    shards = partition_iid(ds, 6, seed=0)
    apply_noise(ds, shards, NoiseSpec(kind="symmetric", epsilon=0.0, seed=5))
    np.testing.assert_array_equal(ds.given_labels, ds.true_labels)


def test_apply_noise_client_variance_groups(rng):
    ds = _toy_dataset(rng, n=2000)
    shards = partition_iid(ds, 10, seed=0)
    spec = NoiseSpec(kind="symmetric", epsilon=0.4, client_variance=0.2, seed=5)
    apply_noise(ds, shards, spec)
    ratios = client_noise_ratios(0.4, 0.2)
    # Clients 0-1 form the lowest-noise group, 8-9 the highest.
    lo = np.concatenate([shards[0].indices, shards[1].indices])
    hi = np.concatenate([shards[8].indices, shards[9].indices])
    lo_rate = (ds.given_labels[lo] != ds.true_labels[lo]).mean()
    hi_rate = (ds.given_labels[hi] != ds.true_labels[hi]).mean()
    assert abs(lo_rate - ratios[0]) < 0.1
    assert abs(hi_rate - ratios[-1]) < 0.1
    assert lo_rate < hi_rate


def test_apply_noise_per_class_mode(rng):
    ds = _toy_dataset(rng, n=1200)
    shards = partition_iid(ds, 4, seed=0)
    spec = NoiseSpec(kind="symmetric", epsilon=0.0, per_class_mode=True, seed=5)
    apply_noise(ds, shards, spec)
    for shard in shards:
        given = ds.given_labels[shard.indices]
        true = ds.true_labels[shard.indices]
        wrong_rate_per_class = [
            (given[true == c] != c).mean() for c in range(4) if (true == c).any()
        ]
        # Exactly one class fully corrupted, the rest untouched (eps=0).
        assert sorted(wrong_rate_per_class)[-1] == 1.0
        assert sum(r == 1.0 for r in wrong_rate_per_class) == 1


def test_noise_spec_validation():
    NoiseSpec(kind="symmetric", epsilon=0.4).validate()
    with pytest.raises(ConfigError):
        NoiseSpec(kind="pair", epsilon=0.5).validate()
    with pytest.raises(ConfigError):
        NoiseSpec(kind="symmetric", epsilon=0.4, client_variance=0.7).validate()
    with pytest.raises(ConfigError):
        NoiseSpec(
            kind="symmetric", epsilon=0.2, client_variance=0.1, per_class_mode=True
        ).validate()
    # The spread is bounded by the kind's own upper bound.
    NoiseSpec(kind="symmetric", epsilon=0.4, client_variance=0.2).validate()
    NoiseSpec(kind="pair", epsilon=0.3, client_variance=0.15).validate()
    with pytest.raises(ConfigError, match="noise.client_variance"):
        NoiseSpec(kind="pair", epsilon=0.4, client_variance=0.2).validate()
    # per_class_mode corrupts symmetrically; it cannot honour another kind.
    NoiseSpec(kind="symmetric", epsilon=0.2, per_class_mode=True).validate()
    with pytest.raises(ConfigError, match="noise.per_class_mode.*noise.kind"):
        NoiseSpec(kind="pair", epsilon=0.2, per_class_mode=True).validate()
    with pytest.raises(ConfigError, match="noise.seed: must be >= 0"):
        NoiseSpec(epsilon=0.2, seed=-1).validate()


def test_apply_noise_rejects_negative_seed(rng):
    ds = _toy_dataset(rng)
    shards = partition_iid(ds, 6, seed=0)
    with pytest.raises(ConfigError, match="noise.seed"):
        apply_noise(ds, shards, NoiseSpec(epsilon=0.2, seed=-1))
    np.testing.assert_array_equal(ds.given_labels, ds.true_labels)


def test_corrupt_accepts_generator(rng):
    labels = rng.integers(0, 3, size=50)
    tm = symmetric_transition(0.3, 3)
    gen = make_rng(4, STREAM_NOISE)
    a, b = corrupt(labels, tm, gen), corrupt(labels, tm, gen)
    # The first call's draws are a fresh generator's; the second's follow them.
    np.testing.assert_array_equal(a, corrupt(labels, tm, make_rng(4, STREAM_NOISE)))
    assert (a != b).any()
