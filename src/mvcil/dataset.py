"""Datasets, view synthesis, and the (class, view) session stream.

Raw sources are IDX image/label pairs (big-endian, magic 0x00000803 /
0x00000801, gzip transparently supported) or delimited-text feature tables.
View protocols multiply a single-view split into V views, either by seeded
pixel permutations or by re-encoding through independently seeded sparse
feature extractors. Training arrives as a class-major, view-minor stream of
ViewBatch sessions under a seeded class order.
"""

from __future__ import annotations

import dataclasses
import gzip
import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import container
from .sparse_features import ExtractionConfig, extract_view_feature

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
MAX_PERMUTED_VIEWS = 64
# added to each column's train std so a constant column scales to 0, not nan
_ZSCORE_EPS = 1e-8


class IdxFormatError(ValueError):
    """IDX parse failure; the message names the offending field."""


class FeatureTableError(ValueError):
    """Delimited-text feature table parse failure."""


@dataclass(frozen=True, eq=False)
class ViewBatch:
    """One (class, view) session: the unit of arrival in the stream. Compared
    and hashed by identity, so a batch can key the feature memo of run()."""

    class_id: int
    view_id: int
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.class_id < 0 or self.view_id < 0:
            raise ValueError(f"class_id and view_id must be >= 0, got "
                             f"{self.class_id}, {self.view_id}")
        # nothing is cast: a string label equals no prediction, a complex input loses a part
        if self.inputs.dtype.kind not in "iuf":
            raise ValueError(f"inputs must be real numbers, got dtype {self.inputs.dtype.str!r}")
        if self.labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be integers, got dtype {self.labels.dtype.str!r}")
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ValueError(f"inputs must be [N >= 1 x dim], got shape {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {self.inputs.shape[0]} samples"
            )
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs contain non-finite values")

    @property
    def num_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class StreamProtocol:
    """Session ordering: C classes x V views, class-major under class_order."""

    name: str
    num_classes: int
    views_per_class: int
    class_order: tuple[int, ...]
    seed: int
    heldout_views: Mapping[int, frozenset[int]] | None = None

    def __post_init__(self) -> None:
        # any map of class -> views is stored as {int: frozenset[int]}, an empty one as None
        held = self.heldout_views
        object.__setattr__(self, "heldout_views", {int(c): frozenset(map(int, vs))
                                                   for c, vs in held.items()} if held else None)
        c, v = self.num_classes, self.views_per_class
        if c < 1 or v < 1:
            raise ValueError(f"need >= 1 classes and views, got C={c}, V={v}")
        # the length first: a huge num_classes must not build its range
        if len(self.class_order) != c or sorted(self.class_order) != list(range(c)):
            raise ValueError(f"class_order must be a permutation of 0..{c - 1}")
        if self.heldout_views:
            for cls, views in self.heldout_views.items():
                if not 0 <= cls < c:
                    raise ValueError(f"heldout class {cls} out of range")
                if any(not 0 <= w < v for w in views):
                    raise ValueError(f"heldout views {sorted(views)} out of range for class {cls}")
                if len(views) >= v:
                    raise ValueError(f"class {cls} would have no training views left")

    def to_dict(self) -> dict:
        """JSON-ready form, as stored in dataset caches and run manifests."""
        held = self.heldout_views
        return {**dataclasses.asdict(self), "class_order": list(self.class_order),
                "heldout_views": {str(c): sorted(v) for c, v in held.items()} if held else None}

    def sessions(self) -> list[tuple[int, int]]:
        """The streamed (class, view) pairs: class-major under class_order,
        view-minor, held-out pairs skipped."""
        held = self.heldout_views or {}
        return [(c, v) for c in self.class_order for v in range(self.views_per_class)
                if v not in held.get(c, ())]

    def check(self, data: "SplitDataset") -> dict[tuple[int, int], ViewBatch]:
        """Refuse a dataset that cannot run this stream; return its training batches by pair."""
        for what, mine, theirs in (("classes", self.num_classes, data.num_classes),
                                   ("views", self.views_per_class, data.views_per_class)):
            if mine != theirs:
                raise ValueError(f"protocol has {mine} {what}, dataset has {theirs}")
        pool = {}
        for b in data.train:
            if (pair := (b.class_id, b.view_id)) in pool:
                raise ValueError(f"two training batches claim the (class, view) pair {pair}")
            # the trainer trains a batch as its class, whatever its labels say
            if np.count_nonzero(b.labels != b.class_id):
                raise ValueError(f"the training batch of the (class, view) pair {pair} "
                                 f"holds labels other than {b.class_id}")
            pool[pair] = b
        streamed = set(self.sessions())
        if missing := streamed - pool.keys():
            raise ValueError(f"the dataset lacks the training batches of the (class, view) "
                             f"pairs {sorted(missing)} that the protocol streams")
        if untested := sorted(set(self.class_order) - {b.class_id for b in data.test}):
            raise ValueError(f"no test samples for classes {untested}")
        if self.heldout_views:
            tested = {(b.class_id, b.view_id) in streamed for b in data.test}
            for side, is_streamed in (("held-out", False), ("streamed", True)):
                if is_streamed not in tested:
                    raise ValueError(f"a held-out protocol needs test samples of {side} views")
        return pool

    @classmethod
    def from_dict(cls, raw: dict) -> "StreamProtocol":
        return cls(raw["name"], raw["num_classes"], raw["views_per_class"],
                   tuple(raw["class_order"]), raw["seed"], raw.get("heldout_views"))


def derive_seed(*parts: int) -> np.random.SeedSequence:
    """One independent random stream per tuple of integer parts."""
    return np.random.SeedSequence([int(p) for p in parts])


def make_protocol(
    name: str,
    num_classes: int,
    views_per_class: int,
    seed: int,
    heldout_views: Mapping[int, Sequence[int]] | None = None,
) -> StreamProtocol:
    """Protocol with a seeded random class order (recorded, reproducible)."""
    rng = np.random.default_rng(derive_seed(seed, 0x5747))
    order = tuple(int(i) for i in rng.permutation(num_classes))
    return StreamProtocol(name, num_classes, views_per_class, order, seed, heldout_views)


@dataclass
class SplitDataset:
    """Train/test ViewBatch pools plus protocol-shape metadata.

    `input_dim` holds one width per view; a list is stored as that tuple.
    An int stands for one width in every view, for in-memory builders only:
    a cache stores the list.
    """

    train: list[ViewBatch]
    test: list[ViewBatch]
    num_classes: int
    views_per_class: int
    input_dim: tuple[int, ...]

    def __post_init__(self) -> None:
        c, v = self.num_classes, self.views_per_class
        if c < 1 or v < 1:
            raise ValueError(f"need >= 1 classes and views, got C={c}, V={v}")
        dims = self.input_dim
        self.input_dim = tuple(dims) if np.ndim(dims) else (dims,) * v
        if len(self.input_dim) != v:
            raise ValueError("per-view input_dim tuple length must equal views_per_class")
        for batch in self.train + self.test:
            if not 0 <= batch.class_id < c:
                raise ValueError(f"batch class_id {batch.class_id} out of range")
            if not 0 <= batch.view_id < v:
                raise ValueError(f"batch view_id {batch.view_id} out of range")
            if batch.input_dim != self.input_dim[batch.view_id]:
                raise ValueError(
                    f"view {batch.view_id} batches disagree on input_dim: "
                    f"{batch.input_dim} vs {self.input_dim[batch.view_id]}"
                )


def _read_idx(path: str, expected_magic: int, what: str) -> np.ndarray:
    opener = gzip.open if _is_gzip(path) else open
    with opener(path, "rb") as f:
        head = f.read(8)
        if len(head) < 8:
            raise IdxFormatError(f"{what} file {path!r}: truncated header")
        magic, count = struct.unpack(">II", head)
        if magic != expected_magic:
            raise IdxFormatError(
                f"{what} file {path!r}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
            )
        shape = (count,)
        if expected_magic == IDX_IMAGES_MAGIC:
            dims_raw = f.read(8)
            if len(dims_raw) < 8:
                raise IdxFormatError(f"{what} file {path!r}: truncated dimension fields")
            rows, cols = struct.unpack(">II", dims_raw)
            shape = (count, rows * cols)
        expected = math.prod(shape)
        data = f.read()
        if len(data) != expected:
            problem = ("the file has trailing bytes" if len(data) > expected
                       else f"data is truncated ({len(data)} of {expected} bytes)")
            raise IdxFormatError(
                f"{what} file {path!r}: count field says {count} items but {problem}"
            )
        return np.frombuffer(data, dtype=np.uint8).reshape(shape)


def _is_gzip(path: str) -> bool:
    with open(path, "rb") as f:
        return f.read(2) == b"\x1f\x8b"


def load_idx(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load an IDX image/label pair; pixels scaled to [0, 1] by /255."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, "images")
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "labels")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    return images.astype(np.float64) / 255.0, labels.astype(np.int64)


def split_by_class(
    train_X: np.ndarray,
    train_y: np.ndarray,
    test_X: np.ndarray,
    test_y: np.ndarray,
    num_classes: int,
    max_train_per_class: int | None = None,
    max_test_per_class: int | None = None,
) -> SplitDataset:
    """Single-view SplitDataset with one (class, view=0) batch per class.

    Optional per-class caps take the first samples in file order (used by the
    reduced-data mode).
    """
    for name, cap in (("max_train_per_class", max_train_per_class),
                      ("max_test_per_class", max_test_per_class)):
        if cap is not None and cap < 1:
            raise ValueError(f"{name} must be >= 1, got {cap}")
    train_rows, test_rows = (
        [np.flatnonzero(y == c)[:cap] for c in range(num_classes)]
        for y, cap in ((train_y, max_train_per_class), (test_y, max_test_per_class))
    )
    for c in range(num_classes):
        if train_rows[c].size == 0 or test_rows[c].size == 0:
            raise ValueError(f"class {c} has no samples in one of the splits")
    return SplitDataset(_class_batches([train_X], train_rows), _class_batches([test_X], test_rows),
                        num_classes, 1, train_X.shape[1])


def _class_batches(views: Sequence[np.ndarray], rows: Sequence[np.ndarray]) -> list[ViewBatch]:
    """Batch (c, v) holds views[v][rows[c]], labelled c; listed class-major.
    Index selection copies, so every batch owns its inputs."""
    return [ViewBatch(c, v, table[idx], np.full(idx.size, c, np.int64))
            for c, idx in enumerate(rows) for v, table in enumerate(views)]


def _derive_views(
    base: SplitDataset,
    num_views: int,
    view_inputs: Callable[[int, ViewBatch], np.ndarray],
    dim: int,
) -> SplitDataset:
    """Views 0..num_views-1 of each batch of a single-view base, listed
    batch-major; `view_inputs(v, batch)` gives view v's inputs, `dim` wide."""
    if base.views_per_class != 1:
        raise ValueError("derived views require a single-view base dataset")
    train, test = (
        [ViewBatch(b.class_id, v, view_inputs(v, b), b.labels)
         for b in pool for v in range(num_views)]
        for pool in (base.train, base.test)
    )
    return SplitDataset(train, test, base.num_classes, num_views, dim)


def make_permuted_views(base: SplitDataset, num_views: int, seed: int) -> SplitDataset:
    """View 0 is the identity; views 1..V-1 apply distinct seeded pixel
    permutations, shared across classes and across train/test."""
    if num_views > MAX_PERMUTED_VIEWS:
        raise ValueError(f"num_views {num_views} exceeds cap {MAX_PERMUTED_VIEWS}")
    dim = base.input_dim[0]
    rng = np.random.default_rng(derive_seed(seed, 0x9E3B))
    perms = [rng.permutation(dim) for _ in range(num_views - 1)]
    return _derive_views(
        base, num_views, lambda v, b: b.inputs[:, perms[v - 1]] if v else b.inputs, dim
    )


def make_synthesized_views(
    base: SplitDataset,
    num_views: int,
    encoder_config: ExtractionConfig,
    seed: int,
) -> SplitDataset:
    """Each view is the view-optimal feature output of an independently seeded
    random encoder + sparse decoder fit over the raw inputs; dim n*L."""
    encoders = [
        encoder_config.make_encoder(
            base.input_dim[0], seed=int(derive_seed(seed, 0x53, v).generate_state(1)[0])
        )
        for v in range(num_views)
    ]
    return _derive_views(
        base, num_views,
        lambda v, b: extract_view_feature(encoders[v], b, encoder_config).features,
        encoder_config.n * encoder_config.L,
    )


def load_feature_views(
    paths: Sequence[str],
    labels_path: str,
    train_fraction: float = 0.8,
    seed: int = 0,
) -> SplitDataset:
    """Pre-extracted per-view feature tables (comma or whitespace delimited).

    Labels are remapped to 0..C-1 by sorted value. Unless the caller slices
    the result, samples are split stratified train/test by `train_fraction`
    under `seed` (sources with a published split should be loaded per split
    and merged by the caller).
    """
    if not paths:
        raise ValueError("need at least one feature file")
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    labels_raw = _load_table(labels_path)
    if labels_raw.shape[1] != 1:
        raise FeatureTableError(f"labels file {labels_path!r} must have one column")
    uniq, labels = np.unique(labels_raw[:, 0], return_inverse=True)

    views = []
    for p in paths:
        table = _load_table(p)
        if table.shape[0] != labels.shape[0]:
            raise FeatureTableError(
                f"{p!r} has {table.shape[0]} rows but labels file has {labels.shape[0]}"
            )
        views.append(table)

    rng = np.random.default_rng(derive_seed(seed, 0xFE47))
    train_rows, test_rows = [], []
    for c in range(uniq.size):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(idx.size)]
        n_train = min(max(1, int(round(train_fraction * idx.size))), idx.size - 1)
        if n_train < 1:
            raise ValueError(f"class {c} has too few samples ({idx.size}) to split")
        train_rows.append(idx[:n_train])
        test_rows.append(idx[n_train:])
    return SplitDataset(_class_batches(views, train_rows), _class_batches(views, test_rows),
                        uniq.size, len(views), tuple(t.shape[1] for t in views))


def _load_table(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln for ln in map(str.strip, f) if ln]
    if not lines:
        raise FeatureTableError(f"{path!r} is empty")
    delim = "," if "," in lines[0] else None
    table = np.empty((len(lines), len(lines[0].split(delim))))
    for i, ln in enumerate(lines):
        cells = ln.split(delim)
        if len(cells) != table.shape[1]:
            raise FeatureTableError(
                f"{path!r} row {i}: expected {table.shape[1]} columns, got {len(cells)}"
            )
        for j, cell in enumerate(cells):
            try:
                table[i, j] = float(cell)
            except ValueError as exc:
                raise FeatureTableError(f"{path!r} row {i}, column {j}: not numeric") from exc
            if not math.isfinite(table[i, j]):
                raise FeatureTableError(f"{path!r} row {i}, column {j}: not finite")
    return table


def zscore_views(data: SplitDataset) -> SplitDataset:
    """Per-view z-score using train statistics; optional, off by default."""
    train, test = [], []
    for v in range(data.views_per_class):
        tr = [b for b in data.train if b.view_id == v]
        stacked = np.concatenate([b.inputs for b in tr], axis=0)
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0) + _ZSCORE_EPS
        for pool, out in ((tr, train), ([b for b in data.test if b.view_id == v], test)):
            for b in pool:
                out.append(ViewBatch(b.class_id, v, (b.inputs - mean) / std, b.labels))
    return SplitDataset(train, test, data.num_classes, data.views_per_class, data.input_dim)


def stream_sessions(protocol: StreamProtocol, data: SplitDataset) -> Iterator[ViewBatch]:
    """`protocol.check(data)`, then the training batch of each of `protocol.sessions()`."""
    pool = protocol.check(data)
    for pair in protocol.sessions():
        yield pool[pair]


def save_split(path: str, data: SplitDataset, protocol: StreamProtocol) -> None:
    """Cache a SplitDataset and the protocol that streams it in the binary
    container; round-trips bit-exactly. A dataset that fails
    `protocol.check` is refused before anything is written."""
    protocol.check(data)
    header = {
        "kind": "split_dataset",
        "num_classes": data.num_classes,
        "views_per_class": data.views_per_class,
        "input_dim": list(data.input_dim),
        "batches": {
            split: [[b.class_id, b.view_id] for b in pool]
            for split, pool in (("train", data.train), ("test", data.test))
        },
        "protocol": protocol.to_dict(),
    }
    arrays = {}
    for split, pool in (("train", data.train), ("test", data.test)):
        for i, b in enumerate(pool):
            arrays[f"{split}/{i}/inputs"] = b.inputs
            arrays[f"{split}/{i}/labels"] = b.labels
    container.write_container(path, header, arrays)


def load_split(path: str) -> tuple[SplitDataset, StreamProtocol, dict]:
    header, arrays = container.read_container(path)
    if header.get("kind") != "split_dataset":
        raise container.ContainerError(f"{path!r} is not a dataset cache")
    kinds = {"batches.train": list[tuple[int, int]], "batches.test": list[tuple[int, int]],
             "num_classes": int, "views_per_class": int, "input_dim": list[int],
             "protocol.name": str, "protocol.num_classes": int, "protocol.seed": int,
             "protocol.views_per_class": int, "protocol.class_order": list[int],
             "protocol.heldout_views": (type(None), dict[str, list[int]])}
    entries = {key: container.entry(path, header, key, kind) for key, kind in kinds.items()}
    pools: dict[str, list[ViewBatch]] = {"train": [], "test": []}
    try:
        for split in ("train", "test"):
            for i, (cid, vid) in enumerate(entries[f"batches.{split}"]):
                where = f"{split}/{i}"
                pools[split].append(
                    ViewBatch(cid, vid, arrays[f"{where}/inputs"], arrays[f"{where}/labels"])
                )
        where = "batches"
        data = SplitDataset(pools["train"], pools["test"], entries["num_classes"],
                            entries["views_per_class"], entries["input_dim"])
        where = "protocol"
        protocol = StreamProtocol.from_dict(header["protocol"])
        protocol.check(data)
    except KeyError as exc:
        raise container.ContainerError(f"{path!r} lacks entry {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise container.ContainerError(f"{path!r}, entry {where!r}: {exc}") from exc
    return data, protocol, header
