"""Round-level metrics and their CSV serialization.

Detection precision/recall treat "flagged as noisy" (confident mask 0)
as the positive class, judged against the ground-truth corruption flags.
CSV output is byte-stable across runs and machines: fixed column order,
repr-based float formatting, LF line endings, no timestamps.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .errors import ContractViolation

CSV_HEADER_TAG = "# fednoise-v1"


@dataclass
class MetricsRecord:
    """One federated round's summary row, a pure function of (config, seed)."""

    round: int
    test_accuracy: float
    mean_train_loss: float
    confident_fraction: float
    mask_precision: float
    mask_recall: float
    weight_divergence: float
    r_t: float


# The record is the CSV schema: its fields are the columns, in order, and
# each column is read back with its field's type.
_COLUMN_TYPES = get_type_hints(MetricsRecord)
CSV_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


def detection_counts(
    mask: np.ndarray, given_labels: np.ndarray, true_labels: np.ndarray
) -> tuple[int, int, int]:
    """(detected_true_noisy, detected_noisy, actual_noisy) of one mask.

    An example counts as detected when its confident mask is 0 and as
    actually noisy when its given label differs from its true label.
    """
    mask, given_labels, true_labels = map(np.asarray, (mask, given_labels, true_labels))
    if not (mask.shape == given_labels.shape == true_labels.shape):
        raise ContractViolation("detection_counts: input arrays must align")
    detected = mask == 0
    actual = given_labels != true_labels
    return int((detected & actual).sum()), int(detected.sum()), int(actual.sum())


def detection_from_counts(
    detected_true_noisy: int, detected_noisy: int, actual_noisy: int
) -> tuple[float, float]:
    """(precision, recall) of noisy-sample detection from detection_counts'
    three counts, one mask's or summed over a round's clients.

    Degenerate denominators yield 1.0: flagging nothing means no false
    positives, and a clean shard has nothing to miss.
    """
    if not 0 <= detected_true_noisy <= detected_noisy:
        raise ContractViolation("detection metrics: true positives exceed detections")
    if detected_true_noisy > actual_noisy:
        raise ContractViolation("detection metrics: true positives exceed actual noise")
    precision = detected_true_noisy / detected_noisy if detected_noisy else 1.0
    recall = detected_true_noisy / actual_noisy if actual_noisy else 1.0
    return precision, recall


def weight_divergence(client_flats: list[np.ndarray]) -> float:
    """Scale-free dispersion of client weight vectors.

    Mean pairwise euclidean distance divided by the mean vector norm, so
    the value is invariant to a global rescaling of the weights. All-zero
    inputs return 0.0.
    """
    if len(client_flats) < 2:
        raise ContractViolation("weight_divergence: needs at least two clients")
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


def _fmt(value: float | int) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def records_to_csv(records: list[MetricsRecord]) -> str:
    """Render rows to the deterministic CSV format (tag line + header)."""
    buf = io.StringIO()
    buf.write(CSV_HEADER_TAG + "\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        buf.write(",".join(_fmt(getattr(rec, col)) for col in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def write_csv(path: str, records: list[MetricsRecord]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(records_to_csv(records))


def read_csv(path: str) -> list[MetricsRecord]:
    """Parse a file written by write_csv back into records."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER_TAG:
        raise ContractViolation(f"{path}: missing {CSV_HEADER_TAG!r} header line")
    if len(lines) < 2 or lines[1] != ",".join(CSV_COLUMNS):
        raise ContractViolation(f"{path}: unexpected column header")
    out = []
    for line in lines[2:]:
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ContractViolation(f"{path}: malformed row {line!r}")
        values = {col: _COLUMN_TYPES[col](raw) for col, raw in zip(CSV_COLUMNS, parts)}
        out.append(MetricsRecord(**values))
    return out
