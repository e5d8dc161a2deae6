import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fednoise.errors import ContractViolation
from fednoise.metrics import (
    CSV_HEADER_TAG,
    MetricsRecord,
    detection_rates,
    read_csv,
    records_to_csv,
    weight_divergence,
    write_csv,
)


def brute_detection(mask, given, true):
    detected = {i for i, m in enumerate(mask) if m == 0}
    actual = {i for i in range(len(given)) if given[i] != true[i]}
    hit = detected & actual
    p = len(hit) / len(detected) if detected else 1.0
    r = len(hit) / len(actual) if actual else 1.0
    return p, r


def test_detection_perfect_mask():
    given = np.array([0, 1, 2, 0])
    true = np.array([0, 2, 2, 1])
    mask = (given == true).astype(int)
    assert detection_rates(mask, given, true) == (1.0, 1.0)


def test_detection_degenerate_denominators():
    y = np.array([0, 1])
    assert detection_rates(np.ones(2, dtype=int), y, y.copy()) == (1.0, 1.0)
    # Nothing detected but noise exists: precision vacuously 1, recall 0.
    noisy = np.array([1, 1])
    assert detection_rates(np.ones(2, dtype=int), y, noisy) == (1.0, 0.0)


def test_detection_hand_case():
    mask = np.array([0, 0, 1, 0])
    given = np.array([1, 0, 0, 0])
    true = np.array([0, 0, 0, 1])
    # detected {0,1,3}, actual {0,3}, hit {0,3}
    p, r = detection_rates(mask, given, true)
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(1.0)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2)), max_size=40))
def test_detection_matches_brute_force(rows):
    mask = np.array([r[0] for r in rows], dtype=int)
    given = np.array([r[1] for r in rows], dtype=int)
    true = np.array([r[2] for r in rows], dtype=int)
    got = detection_rates(mask, given, true)
    assert got == brute_detection(mask, given, true)


def test_detection_misaligned():
    with pytest.raises(ContractViolation):
        detection_rates(np.zeros(2, dtype=int), np.zeros(3, dtype=int), np.zeros(3, dtype=int))


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2)), max_size=40))
def test_detection_rates_count_the_same_hits(rows):
    # Both rates count the flagged noisy rows: precision over the flagged
    # rows, recall over the noisy ones, and a rate with nothing to count
    # is 1.
    mask, given, true = (np.array([r[i] for r in rows], dtype=int) for i in range(3))
    p, r = detection_rates(mask, given, true)
    flagged, noisy = int((mask == 0).sum()), int((given != true).sum())
    assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0
    if flagged and noisy:
        assert round(p * flagged) == round(r * noisy)
    assert flagged or p == 1.0
    assert noisy or r == 1.0


def test_weight_divergence_identical_is_zero():
    v = np.array([1.0, 2.0, 3.0])
    assert weight_divergence([v, v.copy(), v.copy()]) == 0.0


def test_weight_divergence_opposite_pair():
    v = np.array([3.0, 4.0])
    assert weight_divergence([v, -v]) == pytest.approx(2.0)


def test_weight_divergence_scale_free(rng):
    flats = [rng.normal(size=8) for _ in range(4)]
    a = weight_divergence(flats)
    b = weight_divergence([37.0 * f for f in flats])
    assert a == pytest.approx(b, rel=1e-12)


def test_weight_divergence_permutation_invariant(rng):
    flats = [rng.normal(size=6) for _ in range(5)]
    a = weight_divergence(flats)
    b = weight_divergence(list(reversed(flats)))
    assert a == pytest.approx(b, rel=1e-12)


def test_weight_divergence_needs_two():
    # Fewer than two clients have no pairwise distance: 0.0, as a round
    # with a single participant records.
    assert weight_divergence([np.ones(3)]) == 0.0
    assert weight_divergence([]) == 0.0


def test_weight_divergence_all_zero():
    assert weight_divergence([np.zeros(3), np.zeros(3)]) == 0.0


def stacked_weight_divergence(client_flats):
    """The reference: the same norms, over the rows of one stacked copy."""
    stacked = np.stack(client_flats)
    n = stacked.shape[0]
    dists = []
    for i in range(n):
        for j in range(i + 1, n):
            dists.append(float(np.linalg.norm(stacked[i] - stacked[j])))
    mean_norm = float(np.linalg.norm(stacked, axis=1).mean())
    if mean_norm < 1e-12:
        return 0.0
    return float(np.mean(dists)) / mean_norm


_entries = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(1e149, 1e151),  # squares near 1e300: sums may overflow
    st.floats(-1e151, -1e149),
    st.just(0.0),
)


@given(
    st.integers(2, 6).flatmap(
        lambda k: st.tuples(
            st.integers(1, 300).flatmap(lambda d: arrays(np.float64, (k, d), elements=_entries)),
            st.lists(st.booleans(), min_size=k, max_size=k),
        )
    )
)
def test_weight_divergence_bits_match_the_stacked_formula(case):
    # Up to 300 entries, so the row sums take numpy's pairwise blocks; the
    # flags zero whole vectors. NaN results compare by their bits too.
    X, zeroed = case
    X[np.array(zeroed)] = 0.0
    want = np.float64(stacked_weight_divergence(list(X))).tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        # Rows of one table, as slot weights are, and separate vectors.
        for flats in (list(X), [row.copy() for row in X]):
            assert np.float64(weight_divergence(flats)).tobytes() == want


def test_weight_divergence_allocates_no_stacked_copy():
    # Five 784-d clients' weights: reading them in place needs one
    # temporary vector at a time, not a 5 x 50,890 stack (2 MB).
    rng = np.random.default_rng(0)
    flats = [rng.normal(size=50_890) for _ in range(5)]
    tracemalloc.start()
    try:
        weight_divergence(flats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * flats[0].nbytes, f"peak {peak} bytes"


def _records(n=3):
    return [
        MetricsRecord(
            round=t,
            test_accuracy=0.5 + 0.1 * t,
            mean_train_loss=1.0 / (t + 1),
            confident_fraction=0.9,
            mask_precision=0.95,
            mask_recall=0.8,
            weight_divergence=0.01 * t,
            r_t=1.0 - 0.04 * t,
        )
        for t in range(1, n + 1)
    ]


def test_csv_header_and_row_count():
    text = records_to_csv(_records(4))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER_TAG
    assert lines[1].startswith("round,test_accuracy,")
    assert len(lines) == 2 + 4
    assert "wall" not in text


def test_csv_roundtrip(tmp_path):
    path = str(tmp_path / "m.csv")
    recs = _records(5)
    write_csv(path, recs)
    back = read_csv(path)
    assert len(back) == 5
    for a, b in zip(recs, back):
        assert a.round == b.round
        assert a.test_accuracy == b.test_accuracy  # repr round-trips exactly
        assert a.r_t == b.r_t


def test_csv_byte_stable():
    assert records_to_csv(_records()) == records_to_csv(_records())


def test_csv_rejects_foreign_file(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("round,acc\n1,0.5\n")
    with pytest.raises(ContractViolation):
        read_csv(str(p))
