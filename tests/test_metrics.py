import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fednoise.errors import ContractViolation
from fednoise.metrics import (
    CSV_HEADER_TAG,
    MetricsRecord,
    detection_counts,
    detection_from_counts,
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
    assert detection_from_counts(*detection_counts(mask, given, true)) == (1.0, 1.0)


def test_detection_degenerate_denominators():
    y = np.array([0, 1])
    clean = detection_counts(np.ones(2, dtype=int), y, y.copy())
    assert detection_from_counts(*clean) == (1.0, 1.0)
    # Nothing detected but noise exists: precision vacuously 1, recall 0.
    noisy = np.array([1, 1])
    missed = detection_counts(np.ones(2, dtype=int), y, noisy)
    assert detection_from_counts(*missed) == (1.0, 0.0)


def test_detection_hand_case():
    mask = np.array([0, 0, 1, 0])
    given = np.array([1, 0, 0, 0])
    true = np.array([0, 0, 0, 1])
    # detected {0,1,3}, actual {0,3}, hit {0,3}
    p, r = detection_from_counts(*detection_counts(mask, given, true))
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(1.0)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2)), max_size=40))
def test_detection_matches_brute_force(rows):
    mask = np.array([r[0] for r in rows], dtype=int)
    given = np.array([r[1] for r in rows], dtype=int)
    true = np.array([r[2] for r in rows], dtype=int)
    got = detection_from_counts(*detection_counts(mask, given, true))
    assert got == brute_detection(mask, given, true)


def test_detection_misaligned():
    with pytest.raises(ContractViolation):
        detection_counts(np.zeros(2, dtype=int), np.zeros(3, dtype=int), np.zeros(3, dtype=int))


def test_detection_from_counts_guards():
    with pytest.raises(ContractViolation):
        detection_from_counts(3, 2, 5)
    with pytest.raises(ContractViolation):
        detection_from_counts(3, 5, 2)


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
    with pytest.raises(ContractViolation):
        weight_divergence([np.ones(3)])


def test_weight_divergence_all_zero():
    assert weight_divergence([np.zeros(3), np.zeros(3)]) == 0.0


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
