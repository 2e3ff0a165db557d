"""Accuracy matrix, Avg Acc / BWT metrics, held-out-view scoring, reports.

R[after, c] is the test accuracy on class c after training through the
(after+1)-th class in arrival order. Avg Acc is the mean of the final row;
BWT is the mean retention gap between each class's final and just-learned
accuracy. Argmax ties break toward the lowest class id so evaluation is
reproducible.
"""

from __future__ import annotations

import csv
import os
import tempfile

import numpy as np


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
        if cls > after:
            raise ValueError(f"cell ({after}, {cls}) is above the diagonal")
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy {accuracy} outside [0, 1]")
        self.R[after, cls] = accuracy
        self.mask[after, cls] = True
        self.n_samples[after, cls] = n_samples

    def row(self, after: int) -> np.ndarray:
        return self.R[after, : after + 1]


def evaluate_classes(model, test_batches, classes_seen) -> list[float]:
    """Per-class top-1 accuracy after training through the seen classes.

    `classes_seen` is either a count (classes 0..n-1) or the explicit class
    ids in arrival order. `model` exposes predict_labels(batch) -> predicted
    class ids; predictions range over all seen classes jointly (no task
    identity is passed). A class's accuracy pools all its test views' samples
    equally. Classes with no test samples get nan (caller masks the cell).
    """
    if isinstance(classes_seen, (int, np.integer)):
        class_ids = list(range(classes_seen))
    else:
        class_ids = list(classes_seen)
    accs = []
    for c in class_ids:
        correct = 0
        total = 0
        for batch in test_batches:
            if batch.class_id != c:
                continue
            pred = np.asarray(model.predict_labels(batch))
            correct += int(np.sum(pred == batch.labels))
            total += batch.num_samples
        accs.append(correct / total if total else float("nan"))
    return accs


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
    if not heldout_batches:
        raise ValueError("held-out view set is empty")

    def pooled(batches):
        per_class: dict[int, list[int]] = {}
        for b in batches:
            pred = np.asarray(model.predict_labels(b))
            hits = int(np.sum(pred == b.labels))
            per_class.setdefault(b.class_id, [0, 0])
            per_class[b.class_id][0] += hits
            per_class[b.class_id][1] += b.num_samples
        acc = {c: h / n for c, (h, n) in sorted(per_class.items())}
        total_h = sum(h for h, _ in per_class.values())
        total_n = sum(n for _, n in per_class.values())
        return acc, total_h / total_n

    held_per_class, held_acc = pooled(heldout_batches)
    _, shared_acc = pooled(shared_batches)
    return {
        "heldout_per_class": held_per_class,
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
    dirpath = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirpath, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow([f"# schema_version={REPORT_SCHEMA_VERSION}"])
            writer.writerow(REPORT_COLUMNS)
            for after in range(matrix.num_classes):
                for c in range(after + 1):
                    if matrix.mask[after, c]:
                        writer.writerow([after, c, repr(float(matrix.R[after, c])),
                                         matrix.n_samples[after, c]])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_report(path: str) -> AccuracyMatrix:
    """Inverse of emit_report; round-trips to an identical AccuracyMatrix."""
    with open(path, "r", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or not rows[0] or not rows[0][0].startswith("# schema_version="):
        raise ValueError(f"{path!r}: missing schema header")
    if rows[1] != list(REPORT_COLUMNS):
        raise ValueError(f"{path!r}: unexpected columns {rows[1]}")
    cells = [(int(r[0]), int(r[1]), float(r[2]), int(r[3])) for r in rows[2:] if r]
    if not cells:
        raise ValueError(f"{path!r}: report has no cells")
    num_classes = max(after for after, *_ in cells) + 1
    matrix = AccuracyMatrix(num_classes)
    for after, c, acc, n in cells:
        matrix.set_cell(after, c, acc, n)
    return matrix

