"""Accuracy matrix, Avg Acc / BWT metrics, held-out-view scoring, reports.

R[after, c] is the test accuracy on class c after training through the
(after+1)-th class in arrival order. Avg Acc is the mean of the final row;
BWT is the mean retention gap between each class's final and just-learned
accuracy. Argmax ties break toward the lowest class id so evaluation is
reproducible.
"""

from __future__ import annotations

import csv

import numpy as np

from .container import atomic_open


class AccuracyMatrix:
    """C x C lower-triangular accuracy record with an explicit fill mask."""

    def __init__(self, num_classes: int):
        if num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {num_classes}")
        self.num_classes = num_classes
        self.R = np.full((num_classes, num_classes), np.nan)
        self.mask = np.zeros((num_classes, num_classes), dtype=bool)
        self.n_samples = np.zeros((num_classes, num_classes), dtype=np.int64)

    def set_cell(self, after: int, cls: int, accuracy: float, n_samples: int = 0) -> None:
        if not 0 <= cls <= after < self.num_classes:
            raise ValueError(f"cell ({after}, {cls}) is above the diagonal or outside "
                             f"the {self.num_classes} x {self.num_classes} matrix")
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy {accuracy} outside [0, 1]")
        self.R[after, cls] = accuracy
        self.mask[after, cls] = True
        self.n_samples[after, cls] = n_samples


def _tally(model, batches) -> dict[int, tuple[int, int]]:
    """{class_id: (hits, samples)}, predicting each batch once in list order."""
    tally: dict[int, tuple[int, int]] = {}
    for b in batches:
        pred = np.asarray(model.predict_labels(b))
        hits, n = tally.get(b.class_id, (0, 0))
        tally[b.class_id] = (hits + int(np.sum(pred == b.labels)), n + b.num_samples)
    return tally


def evaluate_classes(model, test_batches, classes_seen) -> list[float]:
    """Per-class top-1 accuracy after training through the seen classes.

    `classes_seen` holds the class ids in arrival order. `model` exposes
    predict_labels(batch) -> predicted class ids; predictions range over all
    seen classes jointly (no task identity is passed). A class's accuracy
    pools all its test views' samples equally.
    """
    seen = set(classes_seen)
    tally = _tally(model, [b for b in test_batches if b.class_id in seen])
    if untested := [c for c in classes_seen if c not in tally]:
        raise ValueError(f"no test samples for classes {untested}")
    return [hits / n for hits, n in map(tally.get, classes_seen)]


def avg_acc(matrix: AccuracyMatrix) -> float:
    """Mean of the final row (requires it to be completely filled)."""
    final = matrix.num_classes - 1
    if not matrix.mask[final, :].all():
        raise ValueError("final row of the accuracy matrix is incomplete")
    return float(np.mean(matrix.R[final, :]))


def bwt(matrix: AccuracyMatrix) -> float | None:
    """Mean over c < C of R[C-1, c] - R[c, c]; None when C == 1."""
    c_total = matrix.num_classes
    if c_total < 2:
        return None
    final = c_total - 1
    if not matrix.mask[final, :].all() or not np.all(np.diag(matrix.mask)):
        raise ValueError("accuracy matrix diagonal or final row incomplete")
    gaps = [matrix.R[final, c] - matrix.R[c, c] for c in range(c_total - 1)]
    return float(np.mean(gaps))


def familiar_view_eval(model, heldout_batches, shared_batches) -> dict:
    """Accuracy on held-out (never-trained) views vs the trained views.

    Returns per-class held-out accuracy, the pooled held-out and shared-view
    accuracies, and the gap (held-out minus shared; negative means the model
    loses accuracy on unfamiliar views).
    """
    for side, batches in (("held-out", heldout_batches), ("shared", shared_batches)):
        if not batches:
            raise ValueError(f"{side} view set is empty")
    held = _tally(model, heldout_batches)
    shared = _tally(model, shared_batches)
    held_acc = sum(h for h, _ in held.values()) / sum(n for _, n in held.values())
    shared_acc = sum(h for h, _ in shared.values()) / sum(n for _, n in shared.values())
    return {
        "heldout_per_class": {c: h / n for c, (h, n) in sorted(held.items())},
        "heldout_accuracy": held_acc,
        "shared_accuracy": shared_acc,
        "gap": held_acc - shared_acc,
    }


REPORT_SCHEMA_VERSION = 1
REPORT_COLUMNS = ("after_class", "class", "accuracy", "n_samples")


def emit_report(path: str, matrix: AccuracyMatrix) -> None:
    """CSV report: header row then one row per filled (after, class) cell.

    Written atomically; masked cells are omitted.
    """
    with atomic_open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"# schema_version={REPORT_SCHEMA_VERSION}"])
        writer.writerow(REPORT_COLUMNS)
        for after in range(matrix.num_classes):
            for c in range(after + 1):
                if matrix.mask[after, c]:
                    writer.writerow([after, c, repr(float(matrix.R[after, c])),
                                     matrix.n_samples[after, c]])


def parse_report(path: str) -> AccuracyMatrix:
    """Inverse of emit_report; round-trips to an identical AccuracyMatrix."""
    with open(path, "r", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or not rows[0] or not rows[0][0].startswith("# schema_version="):
        raise ValueError(f"{path!r}: missing schema header")
    columns = rows[1] if len(rows) > 1 else None
    if columns != list(REPORT_COLUMNS):
        raise ValueError(f"{path!r}: unexpected columns {columns}")
    cells = []
    for line, row in enumerate(rows[2:], start=3):
        try:
            after, c, acc, n = row
            after, c, acc, n = int(after), int(c), float(acc), int(n)
        except ValueError as exc:
            raise ValueError(f"{path!r} line {line}: bad row {row}: {exc}") from exc
        if not 0 <= c <= after:
            raise ValueError(f"{path!r} line {line}: row {row} is not a cell on or "
                             "below the diagonal")
        cells.append((after, c, acc, n))
    if not cells:
        raise ValueError(f"{path!r}: report has no cells")
    num_classes = max(after for after, *_ in cells) + 1
    matrix = AccuracyMatrix(num_classes)
    for after, c, acc, n in cells:
        matrix.set_cell(after, c, acc, n)
    return matrix

