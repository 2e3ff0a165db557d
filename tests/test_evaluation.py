import math

import numpy as np
import pytest

from mvcil.dataset import ViewBatch
from mvcil.evaluation import (
    AccuracyMatrix,
    avg_acc,
    bwt,
    emit_report,
    evaluate_classes,
    familiar_view_eval,
    parse_report,
)


class StubModel:
    """predict_labels looked up from a fixed (class_id, view_id) table."""

    def __init__(self, table):
        self.table = table

    def predict_labels(self, batch):
        return self.table[(batch.class_id, batch.view_id)]


def filled_matrix(num_classes, rng):
    m = AccuracyMatrix(num_classes)
    for after in range(num_classes):
        for c in range(after + 1):
            m.set_cell(after, c, float(rng.uniform()), int(rng.integers(1, 50)))
    return m


def test_metrics_match_brute_force_recomputation():
    rng = np.random.default_rng(0)
    for _ in range(20):
        C = int(rng.integers(2, 9))
        m = filled_matrix(C, rng)
        brute_avg = sum(m.R[C - 1, c] for c in range(C)) / C
        brute_bwt = sum(m.R[C - 1, c] - m.R[c, c] for c in range(C - 1)) / (C - 1)
        assert abs(avg_acc(m) - brute_avg) < 1e-12
        assert abs(bwt(m) - brute_bwt) < 1e-12


def test_hand_two_class_matrix():
    m = AccuracyMatrix(2)
    m.set_cell(0, 0, 0.9)
    m.set_cell(1, 0, 0.5)
    m.set_cell(1, 1, 0.8)
    assert avg_acc(m) == pytest.approx(0.65)
    assert bwt(m) == pytest.approx(-0.4)


def test_perfect_retention_gives_zero_bwt():
    m = AccuracyMatrix(4)
    per_class = [0.9, 0.7, 1.0, 0.6]
    for after in range(4):
        for c in range(after + 1):
            m.set_cell(after, c, per_class[c])
    assert bwt(m) == 0.0
    assert avg_acc(m) == pytest.approx(np.mean(per_class))


def test_single_class_matrix():
    m = AccuracyMatrix(1)
    m.set_cell(0, 0, 0.75)
    assert avg_acc(m) == 0.75
    assert bwt(m) is None


def test_matrix_validation():
    with pytest.raises(ValueError, match=">= 1"):
        AccuracyMatrix(0)
    m = AccuracyMatrix(3)
    with pytest.raises(ValueError, match="above the diagonal"):
        m.set_cell(0, 1, 0.5)
    with pytest.raises(ValueError, match="outside"):
        m.set_cell(1, 0, 1.5)
    m.set_cell(2, 0, 0.5)
    m.set_cell(2, 1, 0.5)
    with pytest.raises(ValueError, match="incomplete"):
        avg_acc(m)  # (2, 2) never filled
    m.set_cell(2, 2, 0.5)
    with pytest.raises(ValueError, match="incomplete"):
        bwt(m)  # diagonal cells (0, 0) and (1, 1) never filled


def test_row_returns_filled_prefix():
    m = AccuracyMatrix(3)
    m.set_cell(1, 0, 0.25)
    m.set_cell(1, 1, 0.75)
    assert m.R[1, :2].tolist() == [0.25, 0.75]
    assert m.R[0, :1].shape == (1,)


def test_evaluate_classes_pools_views():
    batches = [
        ViewBatch(0, 0, np.zeros((3, 2)), np.zeros(3, np.int64)),
        ViewBatch(0, 1, np.zeros((5, 2)), np.zeros(5, np.int64)),
        ViewBatch(1, 0, np.zeros((4, 2)), np.ones(4, np.int64)),
    ]
    model = StubModel({
        (0, 0): np.array([0, 0, 1]),
        (0, 1): np.array([0, 0, 0, 0, 2]),
        (1, 0): np.array([1, 1, 0, 0]),
    })
    assert evaluate_classes(model, batches, [0, 1]) == [pytest.approx(6 / 8), pytest.approx(0.5)]
    assert evaluate_classes(model, batches, [1]) == [pytest.approx(0.5)]
    assert math.isnan(evaluate_classes(model, batches, [2])[0])


def test_familiar_view_eval_hand_case():
    held = [
        ViewBatch(0, 2, np.zeros((4, 2)), np.zeros(4, np.int64)),
        ViewBatch(1, 2, np.zeros((2, 2)), np.ones(2, np.int64)),
    ]
    shared = [ViewBatch(0, 0, np.zeros((5, 2)), np.zeros(5, np.int64))]
    model = StubModel({
        (0, 2): np.array([0, 0, 0, 1]),
        (1, 2): np.array([1, 0]),
        (0, 0): np.zeros(5, np.int64),
    })
    out = familiar_view_eval(model, held, shared)
    assert out["heldout_per_class"] == {0: pytest.approx(0.75), 1: pytest.approx(0.5)}
    assert out["heldout_accuracy"] == pytest.approx(4 / 6)
    assert out["shared_accuracy"] == 1.0
    assert out["gap"] == pytest.approx(4 / 6 - 1.0)
    with pytest.raises(ValueError, match="empty"):
        familiar_view_eval(model, [], shared)


def test_report_round_trips_bit_exactly(tmp_path):
    rng = np.random.default_rng(3)
    m = filled_matrix(6, rng)
    path = str(tmp_path / "report.csv")
    emit_report(path, m)
    back = parse_report(path)
    assert back.num_classes == 6
    assert np.array_equal(back.mask, m.mask)
    assert np.array_equal(back.R, m.R, equal_nan=True)  # repr() keeps full precision
    assert np.array_equal(back.n_samples, m.n_samples)


def test_report_golden_format(tmp_path):
    m = AccuracyMatrix(2)
    m.set_cell(0, 0, 0.9, 12)
    m.set_cell(1, 0, 0.5, 12)
    m.set_cell(1, 1, 0.8125, 7)
    path = tmp_path / "report.csv"
    emit_report(str(path), m)
    assert path.read_bytes() == (
        b"# schema_version=1\r\n"
        b"after_class,class,accuracy,n_samples\r\n"
        b"0,0,0.9,12\r\n"
        b"1,0,0.5,12\r\n"
        b"1,1,0.8125,7\r\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]  # no temp litter


def test_report_skips_masked_cells(tmp_path):
    m = AccuracyMatrix(3)
    m.set_cell(0, 0, 1.0)
    m.set_cell(2, 1, 0.5)
    path = str(tmp_path / "partial.csv")
    emit_report(path, m)
    back = parse_report(path)
    assert back.mask.sum() == 2
    assert back.R[2, 1] == 0.5
    assert np.isnan(back.R[1, 0])


def test_parse_report_errors(tmp_path):
    bogus = tmp_path / "bogus.csv"
    bogus.write_text("nope\n")
    with pytest.raises(ValueError, match="schema header"):
        parse_report(str(bogus))
    cols = tmp_path / "cols.csv"
    cols.write_text("# schema_version=1\r\na,b\r\n")
    with pytest.raises(ValueError, match="unexpected columns"):
        parse_report(str(cols))
    empty = tmp_path / "empty.csv"
    empty.write_text("# schema_version=1\r\nafter_class,class,accuracy,n_samples\r\n")
    with pytest.raises(ValueError, match="no cells"):
        parse_report(str(empty))
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("# schema_version=1\r\n")
    with pytest.raises(ValueError, match="unexpected columns"):
        parse_report(str(header_only))
    # short and long rows, and a negative class that would index the last column
    for name, row, why in (("short", "2,1", "bad row"), ("long", "1,0,0.5,3,9", "bad row"),
                           ("negative", "1,-1,0.5,3", "below the diagonal")):
        path = tmp_path / f"{name}.csv"
        path.write_text(f"# schema_version=1\r\nafter_class,class,accuracy,n_samples\r\n"
                        f"0,0,1.0,4\r\n{row}\r\n")
        with pytest.raises(ValueError, match=why) as err:
            parse_report(str(path))
        assert str(path) in str(err.value) and "line 4" in str(err.value)

