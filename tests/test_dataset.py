import gzip
import json
import re
import struct

import numpy as np
import pytest

from mvcil import container, dataset
from mvcil.dataset import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    FeatureTableError,
    IdxFormatError,
    SplitDataset,
    StreamProtocol,
    ViewBatch,
    load_feature_views,
    load_idx,
    load_split,
    make_permuted_views,
    make_protocol,
    make_synthesized_views,
    save_split,
    split_by_class,
    stream_sessions,
    zscore_views,
)
from mvcil.sparse_features import ExtractionConfig


def toy_base(num_classes=2, dim=8, n_train=5, n_test=3, seed=0):
    rng = np.random.default_rng(seed)
    train, test = [], []
    for c in range(num_classes):
        train.append(ViewBatch(c, 0, rng.standard_normal((n_train, dim)),
                               np.full(n_train, c, np.int64)))
        test.append(ViewBatch(c, 0, rng.standard_normal((n_test, dim)),
                              np.full(n_test, c, np.int64)))
    return SplitDataset(train, test, num_classes, 1, dim)


def train_pool(data):
    """The training batch of each (class, view) pair of `data`, as
    `StreamProtocol.check` maps them."""
    classes = tuple(range(data.num_classes))
    return StreamProtocol("t", data.num_classes, data.views_per_class, classes, 0).check(data)


def assert_batches_own_inputs(batches, sources):
    """No batch's inputs or labels share memory with a source array or
    with another batch's."""
    arrays = [a for b in batches for a in (b.inputs, b.labels)]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, src) for src in sources)
        assert not any(np.shares_memory(a, other) for other in arrays[i + 1:])


def write_idx_images(path, images, gzipped=False):
    n, rows, cols = images.shape
    payload = struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols) + images.tobytes()
    path.write_bytes(gzip.compress(payload) if gzipped else payload)


def write_idx_labels(path, labels, gzipped=False):
    payload = struct.pack(">II", IDX_LABELS_MAGIC, len(labels)) + bytes(labels)
    path.write_bytes(gzip.compress(payload) if gzipped else payload)


def test_view_batch_rejects_bad_shapes_and_ids():
    X = np.zeros((2, 3))
    y = np.zeros(2, np.int64)
    with pytest.raises(ValueError, match=">= 0"):
        ViewBatch(-1, 0, X, y)
    with pytest.raises(ValueError, match="^class_id and view_id must be >= 0, got 0, -1$"):
        ViewBatch(0, -1, X, y)
    with pytest.raises(ValueError,
                       match=re.escape("inputs must be [N >= 1 x dim], got shape (3,)")):
        ViewBatch(0, 0, np.zeros(3), np.zeros(3, np.int64))
    with pytest.raises(ValueError, match=re.escape("got shape (0, 3)")):
        ViewBatch(0, 0, np.zeros((0, 3)), np.zeros(0, np.int64))
    with pytest.raises(ValueError, match=re.escape("labels shape (3,) does not match 2 samples")):
        ViewBatch(0, 0, X, np.zeros(3, np.int64))
    with pytest.raises(ValueError, match="non-finite"):
        ViewBatch(0, 0, np.array([[1.0, np.nan]]), np.zeros(1, np.int64))


def test_view_batch_takes_real_inputs_and_integer_labels():
    y = np.zeros(2, np.int64)
    for inputs in (np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.int32),
                   np.zeros((2, 3), np.float32)):
        assert ViewBatch(0, 0, inputs, y).inputs is inputs
    assert ViewBatch(0, 0, np.zeros((2, 3)), np.zeros(2, np.uint8)).labels.dtype == np.uint8
    # no cast: each of these would be scored as something it is not
    for dtype in (np.complex128, np.bool_, "<U3", "|S8", object, "f8,i4"):
        with pytest.raises(ValueError, match=re.escape(
                f"inputs must be real numbers, got dtype {np.dtype(dtype).str!r}")):
            ViewBatch(0, 0, np.zeros((2, 3)).astype(dtype), y)
    for dtype in (np.float64, np.bool_, "<U3", object):
        with pytest.raises(ValueError, match=re.escape(
                f"labels must be integers, got dtype {np.dtype(dtype).str!r}")):
            ViewBatch(0, 0, np.zeros((2, 3)), y.astype(dtype))


def test_view_batch_properties():
    b = ViewBatch(2, 1, np.zeros((4, 7)), np.full(4, 2, np.int64))
    assert b.num_samples == 4
    assert b.input_dim == 7


def test_protocol_rejects_bad_class_order():
    with pytest.raises(ValueError, match=r"permutation of 0\.\.2$"):
        StreamProtocol("t", 3, 1, (0, 1, 1), 0)
    with pytest.raises(ValueError, match="permutation"):
        StreamProtocol("t", 3, 1, (0, 1), 0)
    with pytest.raises(ValueError, match=">= 1 classes"):
        StreamProtocol("t", 0, 1, (), 0)
    # the order's length is compared first, so no range of 10**20 is built
    with pytest.raises(ValueError, match="permutation"):
        StreamProtocol("t", 10**20, 1, (0,), 0)


def test_protocol_normalises_its_held_out_map():
    # any class -> views map, with JSON's string keys too, is stored one way
    for held in ({1: [0]}, {"1": (0, 0)}, {np.int64(1): frozenset({np.int64(0)})}):
        protocol = StreamProtocol("t", 2, 2, (0, 1), 0, held)
        assert protocol.heldout_views == {1: frozenset({0})}
        assert all(type(c) is int and all(type(v) is int for v in views)
                   for c, views in protocol.heldout_views.items())
    for empty in (None, {}):
        assert StreamProtocol("t", 2, 2, (0, 1), 0, empty).heldout_views is None
    held = make_protocol("t", 2, 2, seed=0, heldout_views={1: [0]})
    assert StreamProtocol.from_dict(json.loads(json.dumps(held.to_dict()))) == held


def test_protocol_rejects_bad_heldout():
    with pytest.raises(ValueError, match="out of range"):
        StreamProtocol("t", 2, 2, (0, 1), 0, {5: frozenset({0})})
    with pytest.raises(ValueError, match="out of range"):
        StreamProtocol("t", 2, 2, (0, 1), 0, {0: frozenset({3})})
    with pytest.raises(ValueError, match="no training views left"):
        StreamProtocol("t", 2, 2, (0, 1), 0, {0: frozenset({0, 1})})


def test_make_protocol_is_seeded_and_reproducible():
    a = make_protocol("p", 10, 3, seed=1)
    b = make_protocol("p", 10, 3, seed=1)
    c = make_protocol("p", 10, 3, seed=2)
    assert a.class_order == b.class_order
    assert sorted(a.class_order) == list(range(10))
    assert a.class_order != c.class_order
    held = make_protocol("p", 4, 2, seed=0, heldout_views={1: [0]})
    assert held.heldout_views == {1: frozenset({0})}


def test_split_dataset_validates_batches():
    good = ViewBatch(0, 0, np.zeros((2, 3)), np.zeros(2, np.int64))
    with pytest.raises(ValueError, match="class_id 1 out of range"):
        SplitDataset([ViewBatch(1, 0, np.zeros((2, 3)), np.ones(2, np.int64))],
                     [], 1, 1, 3)
    with pytest.raises(ValueError, match="view_id 1 out of range"):
        SplitDataset([ViewBatch(0, 1, np.zeros((2, 3)), np.zeros(2, np.int64))],
                     [], 1, 1, 3)
    with pytest.raises(ValueError, match="disagree on input_dim"):
        SplitDataset([good, ViewBatch(0, 0, np.zeros((2, 4)), np.zeros(2, np.int64))],
                     [], 1, 1, 3)
    with pytest.raises(ValueError, match="tuple length"):
        SplitDataset([good], [], 1, 1, (3, 4))
    with pytest.raises(ValueError, match=">= 1 classes"):
        SplitDataset([], [], 0, 1, 3)
    with pytest.raises(ValueError, match=">= 1 classes"):
        SplitDataset([], [], 1, 0, 3)
    # an int or a list stands for the per-view tuple
    assert SplitDataset([good], [], 1, 2, 3).input_dim == (3, 3)
    assert SplitDataset([good], [], 1, 2, [3, 5]).input_dim == (3, 5)


def test_load_idx_hand_bytes(tmp_path):
    images = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    write_idx_images(tmp_path / "im", images)
    write_idx_labels(tmp_path / "lb", [5, 0])
    X, y = load_idx(str(tmp_path / "im"), str(tmp_path / "lb"))
    assert X.shape == (2, 6)
    assert X.dtype == np.float64
    assert np.allclose(X[0], np.arange(6) / 255.0)
    assert np.allclose(X[1], np.arange(6, 12) / 255.0)
    assert y.dtype == np.int64
    assert y.tolist() == [5, 0]


def test_load_idx_reads_the_published_magic_bytes(tmp_path):
    # the magic numbers as the IDX format defines them: unsigned byte data,
    # then 3 dimensions for images and 1 for labels
    (tmp_path / "im").write_bytes(bytes([0x00, 0x00, 0x08, 0x03])
                                  + struct.pack(">III", 2, 2, 3) + bytes(range(12)))
    (tmp_path / "lb").write_bytes(bytes([0x00, 0x00, 0x08, 0x01]) + struct.pack(">I", 2)
                                  + bytes([7, 1]))
    X, y = load_idx(str(tmp_path / "im"), str(tmp_path / "lb"))
    assert np.array_equal(X * 255.0, np.arange(12.0).reshape(2, 6))
    assert y.tolist() == [7, 1]


def test_load_idx_gzip_matches_plain(tmp_path):
    images = np.arange(24, dtype=np.uint8).reshape(4, 2, 3)
    labels = [1, 0, 3, 2]
    write_idx_images(tmp_path / "im", images)
    write_idx_labels(tmp_path / "lb", labels)
    write_idx_images(tmp_path / "im.gz", images, gzipped=True)
    write_idx_labels(tmp_path / "lb.gz", labels, gzipped=True)
    X_plain, y_plain = load_idx(str(tmp_path / "im"), str(tmp_path / "lb"))
    X_gz, y_gz = load_idx(str(tmp_path / "im.gz"), str(tmp_path / "lb.gz"))
    assert np.array_equal(X_plain, X_gz)
    assert np.array_equal(y_plain, y_gz)


def test_idx_error_wrong_magic(tmp_path):
    write_idx_labels(tmp_path / "lb", [1, 2])
    write_idx_images(tmp_path / "im", np.zeros((1, 2, 2), np.uint8))
    with pytest.raises(IdxFormatError, match=re.escape(
            f"images file {str(tmp_path / 'lb')!r}: magic 0x00000801, expected 0x00000803")):
        load_idx(str(tmp_path / "lb"), str(tmp_path / "lb"))
    with pytest.raises(IdxFormatError, match=re.escape(
            f"labels file {str(tmp_path / 'im')!r}: magic 0x00000803, expected 0x00000801")):
        load_idx(str(tmp_path / "im"), str(tmp_path / "im"))


def test_idx_error_truncations(tmp_path):
    (tmp_path / "short").write_bytes(b"\x00\x00\x08")
    with pytest.raises(IdxFormatError, match="truncated header"):
        load_idx(str(tmp_path / "short"), str(tmp_path / "short"))
    (tmp_path / "nodims").write_bytes(struct.pack(">II", IDX_IMAGES_MAGIC, 1))
    with pytest.raises(IdxFormatError, match="truncated dimension"):
        load_idx(str(tmp_path / "nodims"), str(tmp_path / "nodims"))
    # count field says 3 images but only one image worth of pixels follows
    payload = struct.pack(">IIII", IDX_IMAGES_MAGIC, 3, 2, 2) + bytes(4)
    (tmp_path / "cut").write_bytes(payload)
    write_idx_labels(tmp_path / "lb", [0, 0, 0])
    with pytest.raises(IdxFormatError, match=re.escape(
            "count field says 3 items but data is truncated (4 of 12 bytes)")):
        load_idx(str(tmp_path / "cut"), str(tmp_path / "lb"))


def test_idx_error_impossible_size(tmp_path):
    # 2**31 images of 2**16 x 2**16 pixels: no read of that size is attempted
    payload = struct.pack(">IIII", IDX_IMAGES_MAGIC, 2**31, 2**16, 2**16) + bytes(4)
    write_idx_labels(tmp_path / "lb", [0])
    for name, blob in (("huge", payload), ("huge.gz", gzip.compress(payload))):
        (tmp_path / name).write_bytes(blob)
        with pytest.raises(IdxFormatError, match="says 2147483648 items"):
            load_idx(str(tmp_path / name), str(tmp_path / "lb"))


def test_idx_error_trailing_bytes(tmp_path):
    payload = struct.pack(">II", IDX_LABELS_MAGIC, 2) + bytes([1, 2, 9])
    (tmp_path / "long").write_bytes(payload)
    write_idx_images(tmp_path / "im", np.zeros((2, 1, 1), np.uint8))
    with pytest.raises(IdxFormatError, match="count field says 2 items but the file has trailing "
                                             "bytes$"):
        load_idx(str(tmp_path / "im"), str(tmp_path / "long"))


def test_idx_error_count_mismatch(tmp_path):
    write_idx_images(tmp_path / "im", np.zeros((2, 2, 2), np.uint8))
    write_idx_labels(tmp_path / "lb", [0, 1, 0])
    with pytest.raises(IdxFormatError, match="^count mismatch: 2 images vs 3 labels$"):
        load_idx(str(tmp_path / "im"), str(tmp_path / "lb"))


def test_split_by_class_caps_take_first_in_file_order():
    X = (np.arange(10, dtype=np.float64) / 10).reshape(10, 1)
    y = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
    data = split_by_class(X, y, X, y, 2, max_train_per_class=2, max_test_per_class=1)
    pool = train_pool(data)
    assert pool[0, 0].inputs[:, 0].tolist() == [0.0, 0.2]
    assert pool[1, 0].inputs[:, 0].tolist() == [0.1, 0.3]
    (test_b,) = [b for b in data.test if b.class_id == 1]
    assert test_b.num_samples == 1
    assert test_b.inputs[0, 0] == 0.1
    uncapped = split_by_class(X, y, X, y, 2)
    assert train_pool(uncapped)[0, 0].num_samples == 5
    for split in (data, uncapped):
        assert_batches_own_inputs(split.train + split.test, [X, y])


def test_split_by_class_refuses_caps_below_one():
    X = np.zeros((8, 2))
    y = np.array([0, 1] * 4)
    for key in ("max_train_per_class", "max_test_per_class"):
        for cap in (0, -1):
            with pytest.raises(ValueError, match=f"{key} must be >= 1, got {cap}"):
                split_by_class(X, y, X, y, 2, **{key: cap})


def test_split_by_class_missing_class():
    X = np.zeros((4, 2))
    y = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError, match="class 2 has no samples"):
        split_by_class(X, y, X, y, 3)
    # one empty split is enough: class 1 has training samples but no test sample
    with pytest.raises(ValueError, match="^class 1 has no samples in one of the splits$"):
        split_by_class(X, y, X, np.zeros(4, np.int64), 2)
    with pytest.raises(ValueError, match="^class 1 has no samples in one of the splits$"):
        split_by_class(X, np.zeros(4, np.int64), X, y, 2)
    with pytest.raises(ValueError, match=">= 1 classes"):
        split_by_class(X, y, X, y, 0)


def test_permuted_views_identity_and_shared_perms():
    base = toy_base(num_classes=2, dim=8)
    # plant a probe row so the applied permutation can be read back
    probe = np.arange(8, dtype=np.float64)
    base.train[0].inputs[0] = probe
    data = make_permuted_views(base, 3, seed=4)
    assert data.views_per_class == 3
    assert len(data.train) == 2 * 3
    pool = train_pool(data)
    for c in range(2):
        assert np.array_equal(pool[c, 0].inputs, base.train[c].inputs)
    perm1 = pool[0, 1].inputs[0].astype(int)
    perm2 = pool[0, 2].inputs[0].astype(int)
    assert sorted(perm1) == list(range(8))
    assert not np.array_equal(perm1, perm2)
    # same perm across classes and across the train/test pools
    assert np.array_equal(pool[1, 1].inputs, base.train[1].inputs[:, perm1])
    test_v1 = [b for b in data.test if b.class_id == 0 and b.view_id == 1]
    assert np.array_equal(test_v1[0].inputs, base.test[0].inputs[:, perm1])


def test_permuted_views_deterministic_by_seed():
    base = toy_base(num_classes=1, dim=10)
    a = make_permuted_views(base, 2, seed=7)
    b = make_permuted_views(base, 2, seed=7)
    c = make_permuted_views(base, 2, seed=8)
    assert np.array_equal(train_pool(a)[0, 1].inputs, train_pool(b)[0, 1].inputs)
    assert not np.array_equal(train_pool(a)[0, 1].inputs, train_pool(c)[0, 1].inputs)


def test_permuted_views_validation():
    base = toy_base(num_classes=1)
    with pytest.raises(ValueError, match=">= 1"):
        make_permuted_views(base, 0, seed=0)
    with pytest.raises(ValueError, match="^num_views 65 exceeds cap 64$"):
        make_permuted_views(base, 65, seed=0)
    assert make_permuted_views(base, 64, seed=0).views_per_class == 64
    multi = make_permuted_views(base, 2, seed=0)
    with pytest.raises(ValueError, match="single-view base"):
        make_permuted_views(multi, 2, seed=0)
    same = make_permuted_views(base, 1, seed=0)
    assert same.views_per_class == 1
    assert np.array_equal(same.train[0].inputs, base.train[0].inputs)


def test_synthesized_views_shapes_and_determinism():
    base = toy_base(num_classes=1, dim=10, n_train=6, n_test=3)
    cfg = ExtractionConfig(n=2, L=3, max_iter=5)
    data = make_synthesized_views(base, 2, cfg, seed=11)
    again = make_synthesized_views(base, 2, cfg, seed=11)
    assert data.views_per_class == 2
    assert data.input_dim == (cfg.n * cfg.L,) * 2
    assert len(data.train) == 2 and len(data.test) == 2
    pool = train_pool(data)
    v0, v1 = pool[0, 0], pool[0, 1]
    assert v0.inputs.shape == (6, 6)
    assert np.array_equal(v0.labels, base.train[0].labels)
    assert not np.array_equal(v0.inputs, v1.inputs)  # independently seeded encoders
    assert np.array_equal(v0.inputs, train_pool(again)[0, 0].inputs)
    with pytest.raises(ValueError, match="single-view base"):
        make_synthesized_views(data, 2, cfg, seed=0)
    with pytest.raises(ValueError, match=">= 1"):
        make_synthesized_views(base, 0, cfg, seed=0)


def test_synthesized_views_are_pinned_by_their_seed():
    # each view's encoder seed tag decides every input of an s-protocol cache
    base = toy_base(num_classes=1, dim=10, n_train=6, n_test=3)
    data = make_synthesized_views(base, 2, ExtractionConfig(n=2, L=3, max_iter=5), seed=11)
    np.testing.assert_allclose([b.inputs.sum() for b in data.train + data.test],
                               [2.8662853103358943, 2.8935367625754527,
                                2.9867404688578674, -0.8592351300180329], rtol=1e-9)


def test_feature_split_is_pinned_by_its_seed(tmp_path):
    # row i holds i, so the inputs name the rows each side drew
    (tmp_path / "v.txt").write_text("\n".join(str(i) for i in range(10)) + "\n")
    (tmp_path / "y.txt").write_text("0\n1\n" * 5)
    data = load_feature_views([str(tmp_path / "v.txt")], str(tmp_path / "y.txt"),
                              train_fraction=0.6)
    assert [b.inputs[:, 0].tolist() for b in data.train] == [[8, 6, 4], [5, 9, 7]]
    assert [b.inputs[:, 0].tolist() for b in data.test] == [[2, 0], [1, 3]]


def test_feature_tables_round_trip_and_remap(tmp_path, monkeypatch):
    tables = []

    def record(path, load=dataset._load_table):
        tables.append(load(path))
        return tables[-1]

    monkeypatch.setattr(dataset, "_load_table", record)
    (tmp_path / "v0.csv").write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n7.0,8.0\n")
    (tmp_path / "v1.txt").write_text("10 0\n20 0\n30 0\n40 0\n")
    (tmp_path / "y.txt").write_text("7\n3\n7\n3\n")
    data = load_feature_views(
        [str(tmp_path / "v0.csv"), str(tmp_path / "v1.txt")],
        str(tmp_path / "y.txt"), train_fraction=0.5, seed=0,
    )
    assert data.num_classes == 2
    assert data.views_per_class == 2
    assert data.input_dim == (2, 2)
    # labels 3 and 7 remap to 0 and 1 by sorted value; class 0 owns rows 1, 3
    got = np.concatenate([train_pool(data)[0, 0].inputs,
                          [b for b in data.test if b.class_id == 0][0].inputs])
    assert np.array_equal(got[np.argsort(got[:, 0])], np.array([[3.0, 4.0], [7.0, 8.0]]))
    for b in data.train + data.test:
        assert b.num_samples == 1  # 2 per class split half train, half test
    assert len(tables) == 3  # the labels file and both views
    assert_batches_own_inputs(data.train + data.test, tables)
    same = load_feature_views(
        [str(tmp_path / "v0.csv"), str(tmp_path / "v1.txt")],
        str(tmp_path / "y.txt"), train_fraction=0.5, seed=0,
    )
    assert np.array_equal(train_pool(data)[1, 1].inputs, train_pool(same)[1, 1].inputs)


def test_feature_tables_heterogeneous_dims(tmp_path):
    (tmp_path / "v0.txt").write_text("1 2\n3 4\n5 6\n7 8\n")
    (tmp_path / "v1.txt").write_text("1 2 3\n4 5 6\n7 8 9\n10 11 12\n")
    (tmp_path / "y.txt").write_text("0\n0\n1\n1\n")
    data = load_feature_views(
        [str(tmp_path / "v0.txt"), str(tmp_path / "v1.txt")],
        str(tmp_path / "y.txt"), train_fraction=0.5, seed=0,
    )
    assert data.input_dim == (2, 3)
    assert train_pool(data)[0, 1].input_dim == 3


def test_feature_table_errors(tmp_path):
    y = tmp_path / "y.txt"
    y.write_text("0\n1\n")
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 2\n3 4 5\n")
    with pytest.raises(FeatureTableError, match="row 1: expected 2 columns, got 3"):
        load_feature_views([str(ragged)], str(y))
    # the first row sets the width and the delimiter
    for text, message in (("1 2 3\n4 5\n", "row 1: expected 3 columns, got 2"),
                          ("1,2\n3 4\n", "row 1: expected 2 columns, got 1")):
        ragged.write_text(text)
        with pytest.raises(FeatureTableError, match=f"{re.escape(repr(str(ragged)))} {message}$"):
            load_feature_views([str(ragged)], str(y))
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3 oops\n")
    with pytest.raises(FeatureTableError, match="row 1, column 1: not numeric"):
        load_feature_views([str(bad)], str(y))
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(FeatureTableError, match="is empty"):
        load_feature_views([str(empty)], str(y))
    wide_y = tmp_path / "wide.txt"
    wide_y.write_text("0 1\n1 0\n")
    ok = tmp_path / "ok.txt"
    ok.write_text("1 2\n3 4\n")
    with pytest.raises(FeatureTableError, match="one column"):
        load_feature_views([str(ok)], str(wide_y))
    short_y = tmp_path / "short.txt"
    short_y.write_text("0\n1\n0\n")
    with pytest.raises(FeatureTableError, match="2 rows but labels file has 3"):
        load_feature_views([str(ok)], str(short_y))
    # three columns, so the count named is the table's rows, not its columns
    wide = tmp_path / "wide3.txt"
    wide.write_text("1 2 3\n4 5 6\n")
    with pytest.raises(FeatureTableError, match="has 2 rows but labels file has 3"):
        load_feature_views([str(wide)], str(short_y))
    for word in ("nan", "inf"):
        odd_y = tmp_path / f"{word}.txt"
        odd_y.write_text(f"0\n{word}\n")
        with pytest.raises(FeatureTableError, match="row 1, column 0: not finite") as exc:
            load_feature_views([str(ok)], str(odd_y))
        assert str(odd_y) in str(exc.value)
    odd = tmp_path / "odd.txt"
    odd.write_text("1 2\n3 nan\n")
    with pytest.raises(FeatureTableError, match="row 1, column 1: not finite") as exc:
        load_feature_views([str(odd)], str(y))
    assert str(odd) in str(exc.value)
    with pytest.raises(ValueError, match="at least one feature file"):
        load_feature_views([], str(y))
    for fraction in (0.0, 1.0):
        with pytest.raises(ValueError, match="train_fraction"):
            load_feature_views([str(ok)], str(y), train_fraction=fraction)


def test_feature_split_keeps_a_test_sample_per_class(tmp_path):
    (tmp_path / "v.txt").write_text("\n".join(str(i) for i in range(8)) + "\n")
    (tmp_path / "y.txt").write_text("0\n0\n0\n0\n0\n0\n1\n1\n")
    data = load_feature_views([str(tmp_path / "v.txt")], str(tmp_path / "y.txt"),
                              train_fraction=0.9, seed=0)
    # round(0.9 * 2) would leave class 1 without test data; the split caps at n-1
    assert train_pool(data)[1, 0].num_samples == 1
    assert [b for b in data.test if b.class_id == 1][0].num_samples == 1
    (tmp_path / "y1.txt").write_text("0\n0\n0\n0\n0\n0\n0\n1\n")
    with pytest.raises(ValueError, match="too few samples"):
        load_feature_views([str(tmp_path / "v.txt")], str(tmp_path / "y1.txt"))
    # 3 samples at 0.2: round(0.6) keeps one training row, and two test rows
    (tmp_path / "y3.txt").write_text("0\n0\n0\n1\n1\n1\n1\n1\n")
    data = load_feature_views([str(tmp_path / "v.txt")], str(tmp_path / "y3.txt"),
                              train_fraction=0.2)
    assert train_pool(data)[0, 0].num_samples == 1
    assert [b for b in data.test if b.class_id == 0][0].num_samples == 2


def test_zscore_uses_train_statistics():
    rng = np.random.default_rng(5)
    train, test = [], []
    for c in range(2):
        for v, scale in enumerate((3.0, 0.5)):
            train.append(ViewBatch(c, v, rng.standard_normal((20, 4)) * scale + c,
                                   np.full(20, c, np.int64)))
    test.append(ViewBatch(0, 0, rng.standard_normal((5, 4)), np.full(5, 0, np.int64)))
    test.append(ViewBatch(0, 1, rng.standard_normal((5, 4)), np.full(5, 0, np.int64)))
    data = SplitDataset(train, test, 2, 2, 4)
    z = zscore_views(data)
    for v in range(2):
        stacked = np.concatenate([b.inputs for b in z.train if b.view_id == v])
        assert np.allclose(stacked.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(stacked.std(axis=0), 1.0, atol=1e-6)
    raw = np.concatenate([b.inputs for b in data.train if b.view_id == 0])
    mean, std = raw.mean(axis=0), raw.std(axis=0) + 1e-8
    z_test0 = [b for b in z.test if b.view_id == 0][0]
    assert np.allclose(z_test0.inputs, (data.test[0].inputs - mean) / std)


def test_stream_order_and_heldout_skip():
    base = toy_base(num_classes=3, dim=6)
    data = make_permuted_views(base, 2, seed=0)
    proto = StreamProtocol("t", 3, 2, (2, 0, 1), 0, {0: frozenset({1})})
    order = [(b.class_id, b.view_id) for b in stream_sessions(proto, data)]
    assert order == [(2, 0), (2, 1), (0, 0), (1, 0), (1, 1)]


def test_stream_protocol_data_mismatch():
    data = toy_base(num_classes=2)
    with pytest.raises(ValueError, match="3 classes, dataset has 2"):
        list(stream_sessions(StreamProtocol("t", 3, 1, (0, 1, 2), 0), data))
    with pytest.raises(ValueError, match="2 views"):
        list(stream_sessions(StreamProtocol("t", 2, 2, (0, 1), 0), data))
    full = toy_base(num_classes=3)
    proto = StreamProtocol("t", 3, 1, (2, 0, 1), 0)
    proto.check(full)
    # every missing pair, sorted, is named before any untested class
    with pytest.raises(ValueError, match=r"pairs \[\(1, 0\), \(2, 0\)\] that the protocol"):
        list(stream_sessions(proto, SplitDataset(full.train[:1], full.test[1:], 3, 1, 8)))
    with pytest.raises(ValueError, match=r"no test samples for classes \[0\]$"):
        list(stream_sessions(proto, SplitDataset(full.train, full.test[1:], 3, 1, 8)))


def repeated_pair_pool():
    """Two classes, one view, and a second training batch for (0, 0): 5 rows
    and then 7, as two sessions of one pair would arrive."""
    data = toy_base(num_classes=2, dim=4)
    extra = ViewBatch(0, 0, np.ones((7, 4)), np.zeros(7, np.int64))
    return SplitDataset(data.train + [extra], data.test, 2, 1, 4)


def test_check_maps_each_training_pair_to_its_batch():
    data = make_permuted_views(toy_base(num_classes=2, dim=5), 2, seed=3)
    pool = StreamProtocol("t", 2, 2, (1, 0), 0, {0: frozenset({1})}).check(data)
    # held-out pairs are mapped too: the map is the pool, not the stream
    assert list(pool) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(pool[b.class_id, b.view_id] is b for b in data.train)


def test_a_training_pair_claimed_twice_is_refused():
    data = repeated_pair_pool()
    proto = StreamProtocol("t", 2, 1, (0, 1), 0)
    message = r"two training batches claim the \(class, view\) pair \(0, 0\)"
    with pytest.raises(ValueError, match=message):
        proto.check(data)
    with pytest.raises(ValueError, match=message):
        list(stream_sessions(proto, data))
    # a repeated pair that the protocol holds out is refused as well
    views = make_permuted_views(toy_base(num_classes=2, dim=4), 2, seed=0)
    twice = SplitDataset(views.train + [views.train[1]], views.test, 2, 2, 4)
    with pytest.raises(ValueError, match=r"pair \(0, 1\)"):
        StreamProtocol("t", 2, 2, (0, 1), 0, {0: frozenset({1})}).check(twice)
    # test pools may repeat a pair
    data = toy_base(num_classes=2, dim=4)
    mixed = SplitDataset(data.train, data.test + data.test, 2, 1, 4)
    assert [b.num_samples for b in stream_sessions(proto, mixed)] == [5, 5]


def test_check_refuses_training_labels_of_another_class():
    data = toy_base(num_classes=2, dim=4)
    wrong = ViewBatch(0, 0, data.train[0].inputs, np.array([0, 0, 1, 0, 0]))
    proto = StreamProtocol("t", 2, 1, (0, 1), 0)
    with pytest.raises(ValueError, match=re.escape(
            "the training batch of the (class, view) pair (0, 0) holds labels other than 0")):
        proto.check(SplitDataset([wrong, data.train[1]], data.test, 2, 1, 4))
    # a test batch may mix classes (the benchmark's serve batches do)
    mixed = ViewBatch(0, 0, data.test[0].inputs, np.array([0, 1, 1]))
    proto.check(SplitDataset(data.train, data.test + [mixed], 2, 1, 4))


def test_load_split_refuses_a_repeated_training_pair(tmp_path):
    path = str(tmp_path / "twice.mvcl")
    save_split(path, toy_base(num_classes=2, dim=4), StreamProtocol("t", 2, 1, (0, 1), 0))
    header, arrays = container.read_container(path)
    header["batches"]["train"].append([0, 0])
    arrays["train/2/inputs"] = np.ones((7, 4))
    arrays["train/2/labels"] = np.zeros(7, np.int64)
    container.write_container(path, header, arrays)
    with pytest.raises(container.ContainerError,
                       match=rf"^{re.escape(repr(path))}, entry 'protocol': two training "
                             r"batches claim the \(class, view\) pair \(0, 0\)$"):
        load_split(path)


def test_save_load_round_trip(tmp_path):
    base = toy_base(num_classes=2, dim=5)
    data = make_permuted_views(base, 2, seed=7)
    proto = make_protocol("toy", 2, 2, seed=7, heldout_views={1: [0]})
    path = str(tmp_path / "toy.mvcl")
    save_split(path, data, proto)
    loaded, lproto, header = load_split(path)
    assert header["protocol"] == proto.to_dict()
    assert loaded.num_classes == 2
    assert loaded.views_per_class == 2
    assert loaded.input_dim == (5, 5)
    for a, b in zip(loaded.train + loaded.test, data.train + data.test):
        assert (a.class_id, a.view_id) == (b.class_id, b.view_id)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
    assert lproto == proto


def test_save_split_refuses_a_dataset_its_protocol_cannot_stream(tmp_path):
    data = make_permuted_views(toy_base(num_classes=2, dim=5), 2, seed=7)
    proto = make_protocol("toy", 2, 2, seed=7)
    gappy = SplitDataset([b for b in data.train if (b.class_id, b.view_id) != (1, 0)],
                         data.test, 2, 2, data.input_dim)
    path = tmp_path / "gappy.mvcl"
    with pytest.raises(ValueError, match=r"pairs \[\(1, 0\)\] that the protocol streams"):
        save_split(str(path), gappy, proto)
    with pytest.raises(ValueError, match=r"two training batches claim .* pair \(0, 0\)"):
        save_split(str(path), repeated_pair_pool(), StreamProtocol("t", 2, 1, (0, 1), 0))
    assert list(tmp_path.iterdir()) == []


def test_protocol_dict_round_trips_through_json():
    for proto in (make_protocol("toy", 3, 2, seed=1),
                  make_protocol("toy", 3, 2, seed=1, heldout_views={2: [1], 0: [0]})):
        raw = json.loads(json.dumps(proto.to_dict()))
        assert StreamProtocol.from_dict(raw) == proto
    assert make_protocol("toy", 3, 2, seed=1).to_dict()["heldout_views"] is None


def test_save_load_keeps_per_view_dims(tmp_path):
    train = [ViewBatch(0, 0, np.ones((2, 3)), np.zeros(2, np.int64)),
             ViewBatch(0, 1, np.ones((2, 4)), np.zeros(2, np.int64))]
    data = SplitDataset(train, list(train), 1, 2, (3, 4))
    proto = StreamProtocol("hetero", 1, 2, (0,), 0)
    path = str(tmp_path / "hetero.mvcl")
    save_split(path, data, proto)
    loaded, lproto, _ = load_split(path)
    assert lproto == proto
    assert loaded.input_dim == (3, 4)


def test_load_split_refuses_int_input_dim_header(tmp_path):
    # caches written before the per-view list stored input_dim as one int and
    # carried a "counts" entry; `mvcil prepare` rebuilds them
    data = make_permuted_views(toy_base(num_classes=2, dim=5), 3, seed=1)
    path = str(tmp_path / "old.mvcl")
    save_split(path, data, make_protocol("old", 2, 3, seed=1))
    header, arrays = container.read_container(path)
    assert header["input_dim"] == [5, 5, 5]
    header.update(input_dim=5, counts={"train": 6, "test": 6})
    container.write_container(path, header, arrays)
    with pytest.raises(container.ContainerError,
                       match=rf"^{re.escape(repr(path))}: entry 'input_dim' is malformed: 5$"):
        load_split(path)


def test_load_split_rejects_other_containers(tmp_path):
    path = str(tmp_path / "other.mvcl")
    container.write_container(path, {"kind": "report"}, {})
    with pytest.raises(container.ContainerError, match="not a dataset cache"):
        load_split(path)
