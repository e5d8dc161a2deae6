"""Round-level metrics and their CSV serialization.

Detection precision/recall treat "flagged as noisy" (confident mask 0)
as the positive class, judged against the ground-truth corruption flags.
CSV output is byte-stable across runs and machines: fixed column order,
repr-based float formatting, LF line endings, no timestamps.
"""

from __future__ import annotations

import io
import itertools
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


def detection_rates(
    mask: np.ndarray, given_labels: np.ndarray, true_labels: np.ndarray
) -> tuple[float, float]:
    """(precision, recall) of noisy-sample detection by a confident mask,
    one client's or a round's masks pooled.

    An example counts as detected when its mask is 0 and as actually
    noisy when its given label differs from its true label. Degenerate
    denominators yield 1.0: flagging nothing means no false positives,
    and a clean shard has nothing to miss.
    """
    mask, given_labels, true_labels = map(np.asarray, (mask, given_labels, true_labels))
    if not (mask.shape == given_labels.shape == true_labels.shape):
        raise ContractViolation("detection_rates: input arrays must align")
    detected = mask == 0
    actual = given_labels != true_labels
    hit = int((detected & actual).sum())
    n_detected, n_actual = int(detected.sum()), int(actual.sum())
    precision = hit / n_detected if n_detected else 1.0
    recall = hit / n_actual if n_actual else 1.0
    return precision, recall


def weight_divergence(client_flats: list[np.ndarray]) -> float:
    """Scale-free dispersion of client weight vectors.

    Mean pairwise euclidean distance divided by the mean vector norm, so
    the value is invariant to a global rescaling of the weights. Fewer
    than two clients, or all-zero weights, return 0.0.

    Reads the vectors where they lie, with no stacked copy. A distance is
    the 1-D norm of a difference (a BLAS dot) and a norm a row norm (a
    pairwise sum): the bits of the same norms over np.stack(client_flats).
    """
    if len(client_flats) < 2:
        return 0.0
    dists = [float(np.linalg.norm(a - b)) for a, b in itertools.combinations(client_flats, 2)]
    norms = [np.linalg.norm(v[None], axis=1)[0] for v in client_flats]
    mean_norm = float(np.mean(norms))
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
