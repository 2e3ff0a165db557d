"""Training orchestration over the (class, view) session stream.

Each session: extract the view-optimal feature, train the fusion layer with
projector-modulated gradient steps and the decision head with the
consolidation penalty, then absorb the session's features into the
projector(s); `Model._supervised_loop` states the fusion-step rule. The head
imprints, pools and consolidates each class (`mvcil.consolidation`). Live
state is flat in the number of sessions; the head gains one column per class.

Modes:
    full            projector on the fusion layer + consolidated head
    net1_orth_only  projector only; head trains plain (mu forced to 0)
    net2_orth_both  projectors on fusion and on the head's hidden space; no
                    consolidation penalty
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import container, evaluation
from .config import ConfigError, check, setting
from .consolidation import (
    DecisionHead,
    FisherEstimate,
    end_of_class,
    expand_head,
    fisher_diag,
    swc_loss_and_grad,
)
from .dataset import SplitDataset, StreamProtocol, ViewBatch, derive_seed, stream_sessions
from .orthogonal_fusion import FusionLayer, Projector
from .sparse_features import ExtractionConfig, extract_view_feature

MODES = ("full", "net1_orth_only", "net2_orth_both")
CONFIG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FusionConfig:
    alpha: float = setting(1.0, gt=0)
    eta: float = setting(0.01, gt=0)
    width: int = setting(200, ge=1)
    projector_enabled: bool = setting(True)
    head_projector_alpha: float = setting(1.0, gt=0)

    def __post_init__(self) -> None:
        check("fusion", self)


@dataclass(frozen=True)
class ConsolidationConfig:
    mu: float = setting(1000.0, ge=0)
    epochs_per_session: int = setting(8, ge=1)
    batch_size: int = setting(64, ge=1)
    max_steps_per_session: int = setting(60, ge=1)
    head_lr: float = setting(2e-3, gt=0)

    def __post_init__(self) -> None:
        check("consolidation", self)


@dataclass(frozen=True)
class RunConfig:
    seed: int = setting(0, ge=0)
    mode: str = setting("full", choices=MODES)
    encoder: ExtractionConfig = field(default_factory=ExtractionConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    consolidation: ConsolidationConfig = field(default_factory=ConsolidationConfig)

    def __post_init__(self) -> None:
        check("", self)

    def to_dict(self) -> dict:
        return {"schema_version": CONFIG_SCHEMA_VERSION, **dataclasses.asdict(self)}

    @classmethod
    def from_dict(cls, raw: dict, overrides: dict | None = None) -> "RunConfig":
        """The config `raw` (in the form `to_dict` writes) with the dotted
        `overrides` (`section.field` or a top-level field) on top."""
        if type(raw) is not dict:
            raise ConfigError(f"config must be an object, got {type(raw).__name__}")
        raw = dict(raw)
        version = raw.pop("schema_version", CONFIG_SCHEMA_VERSION)
        if version != CONFIG_SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema_version {version}")
        flat: dict = {}
        for key, value in raw.items():
            if key in SECTIONS:
                if not isinstance(value, dict):
                    raise ConfigError(f"config section {key!r} must be an object")
                flat.update((f"{key}.{name}", v) for name, v in value.items())
            else:
                flat[key] = value
        flat.update(overrides or {})
        # a dotted key belongs to `overrides`; at the top of `raw` it is unknown
        unknown = (flat.keys() - config_field_types()) | {key for key in raw if "." in key}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        top: dict = {}
        sections: dict = {section: {} for section in SECTIONS}
        for key, value in flat.items():
            section, _, name = key.rpartition(".")
            (sections[section] if section else top)[name] = value
        return cls(**top, **{s: SECTIONS[s](**kw) for s, kw in sections.items()})


# the settings sections: RunConfig's fields that `setting` does not declare
SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig) if not f.metadata}


def config_field_types() -> dict[str, type]:
    """Dotted config key -> expected scalar type (for override parsing)."""
    out = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)
           if f.name not in SECTIONS}
    for section, klass in SECTIONS.items():
        for f in dataclasses.fields(klass):
            out[f"{section}.{f.name}"] = type(f.default)
    return out


def _step_plan(rng: np.random.Generator, n: int,
               cfg: ConsolidationConfig) -> list[np.ndarray]:
    """A session's mini-batches: per epoch a fresh permutation of its n rows,
    cut into batches, and the whole plan cut at a fixed per-session budget.
    Without the budget the step count (and with it the unprotected new
    column's logit climb) scales with dataset size, and larger streams forget
    catastrophically at settings that are stable on small ones. An epoch's
    permutation is drawn only if the plan reaches it."""
    bs = min(cfg.batch_size, n)
    perms = (rng.permutation(n) for _ in range(cfg.epochs_per_session))
    batches = (perm[s : s + bs] for perm in perms for s in range(0, n, bs))
    return list(itertools.islice(batches, cfg.max_steps_per_session))


def _sample_space_pays(n: int, visits: int, d: int, h: int) -> bool:
    """Whether one window over a session's rows costs a d x h layer fewer
    multiply-adds than per-step windows, 2*visits*d*h for a plan of `visits`
    row visits. Over m = min(n, visits) rows it costs m*2*d*h for its
    pre-activations and write, m*m*d for its kernel and visits*m*h for its
    steps. With m = visits it never pays, so it is only taken with m = n."""
    m = min(n, visits)
    return m * (2 * d * h + m * d + visits * h) < 2 * visits * d * h


class Model:
    """Live model state: frozen encoders, fusion layer, decision head."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.encoders: dict[int, object] = {}
        self.fusion = FusionLayer(
            config.encoder.n * config.encoder.L,
            config.fusion.width,
            eta=config.fusion.eta,
            alpha=config.fusion.alpha,
            seed=int(derive_seed(config.seed, 0xF5, 0).generate_state(1)[0]),
        )
        head_mu = config.consolidation.mu if config.mode == "full" else 0.0
        self.head = DecisionHead(config.fusion.width, mu=head_mu)
        # full keeps the class-level projector too: the consolidation penalty
        # anchors old columns while the projector stops new columns from
        # growing along directions old classes occupy. Without the projector a
        # fresh column out-ratchets every anchored one through the shared
        # component of the hidden activations.
        self.head_projector = (
            Projector(config.fusion.width, config.fusion.head_projector_alpha)
            if config.mode in ("full", "net2_orth_both")
            else None
        )
        self.slot_to_class: list[int] = []
        self.session_index = 0
        # test features by batch, kept only while run() evaluates
        self._eval_memo: dict[ViewBatch, np.ndarray] | None = None

    # ---- feature path -------------------------------------------------

    def extract(self, batch: ViewBatch) -> np.ndarray:
        """The view-optimal feature of `batch`. The seed and the input width
        fix each frozen encoder, so it is built on first use, not stored."""
        dim = batch.input_dim
        enc = self.encoders.get(dim)
        if enc is None:
            seed = int(derive_seed(self.config.seed, 0xE2C, dim).generate_state(1)[0])
            enc = self.encoders[dim] = self.config.encoder.make_encoder(dim, seed=seed)
        return extract_view_feature(enc, batch, self.config.encoder).features

    def features_for_eval(self, batch: ViewBatch) -> np.ndarray:
        """Extraction is model-independent, so while run() evaluates a test
        batch's features are memoized; outside it every call extracts."""
        if self._eval_memo is None:
            return self.extract(batch)
        feats = self._eval_memo.get(batch)
        if feats is None:
            feats = self._eval_memo[batch] = self.extract(batch)
        return feats

    @property
    def fusion_layers(self) -> tuple[FusionLayer]:
        """The fusion layer as a one-tuple: the benchmark's traced run
        reads its projector's capacity through this name."""
        return (self.fusion,)

    # ---- inference (task-id-free: consumes only the inputs) -----------

    def predict_labels(self, batch: ViewBatch) -> np.ndarray:
        logits = self.head.logits(self.fusion.forward(self.features_for_eval(batch)))
        # columns reordered by ascending class id, so argmax's first-match
        # rule breaks ties toward the lowest class id
        slots_by_class = np.argsort(self.slot_to_class)
        class_ids = np.asarray(self.slot_to_class, dtype=np.int64)[slots_by_class]
        return class_ids[np.argmax(logits[:, slots_by_class], axis=1)]

    # ---- training -----------------------------------------------------

    def train_session(self, batch: ViewBatch) -> None:
        cid = batch.class_id
        new_class = cid not in self.slot_to_class
        if not new_class and cid != self.slot_to_class[-1]:
            raise ValueError(
                f"out-of-order session: class {cid} reappeared after "
                f"class {self.slot_to_class[-1]}"
            )
        feats = self.extract(batch)
        if new_class:
            expand_head(self.head)
            self.slot_to_class.append(cid)
            self.head.imprint(self.fusion.forward(feats).mean(axis=0))
        # an earlier class never returns, so the session trains the newest slot
        slot = len(self.slot_to_class) - 1
        slot_labels = np.full(batch.num_samples, slot, dtype=np.int64)
        self._supervised_loop(feats, slot_labels)

        # protect what was just learned: absorb after the gradient steps
        if self.config.fusion.projector_enabled:
            self.fusion.projector.absorb(feats)
        h_full = self.fusion.forward(feats)
        if self.head_projector is not None:
            # normalize so each session adds O(1) energy: the projector's
            # stability/plasticity point then does not move with dataset size
            self.head_projector.absorb(h_full / np.sqrt(h_full.shape[0]))
        if self.head.mu > 0:
            self.head.pool(fisher_diag(self.head, h_full, slot_labels))
        self.session_index += 1

    def _supervised_loop(self, feats: np.ndarray, slot_labels: np.ndarray) -> None:
        """The session's head and fusion steps, in windows of steps. A step
        takes a consolidated head step on its rows' hidden activations h and
        sets delta = dL/dh * (1 - h^2). P is fixed within a session (absorb
        runs after this loop) and symmetric, so the step adds (Z P)[idx]^T
        delta to W and delta's column sums to b. After a window over rows R,
        W = W0 - eta (Z P)[R]^T A and b = b0 - eta A^T 1, row i of A summing
        the deltas row i drew, and the pre-activations are pre0 - eta K A,
        with pre0 = Z[R] W0 + b0 and K = Z[R] (Z P)[R]^T + 1 (the bias is an
        unprojected input of 1). A window forms pre0 once, steps with
        A[idx] += delta and writes the layer once. Where `_sample_space_pays`,
        one window spans the plan and all n rows (bs*n*h a step); otherwise
        each step is a window over its own rows, where A = 0 drops K.
        """
        rng = np.random.default_rng(
            derive_seed(self.config.seed, 0xB5, self.session_index)
        )
        plan = _step_plan(rng, feats.shape[0], self.config.consolidation)
        # with the projector disabled P stays the identity and feats_p equals feats
        feats_p = feats @ self.fusion.projector.P
        if _sample_space_pays(feats.shape[0], sum(map(len, plan)), *self.fusion.weights.shape):
            windows = [(slice(None), plan)]
        else:
            windows = [(idx, [slice(None)]) for idx in plan]
        eta = self.fusion.eta
        for rows, steps in windows:
            z, z_p, labels = feats[rows], feats_p[rows], slot_labels[rows]
            pre = z @ self.fusion.weights + self.fusion.bias
            acc = np.zeros_like(pre)
            kernel = None
            if len(steps) > 1:
                kernel = z @ z_p.T
                kernel += 1.0
            for idx in steps:
                h = np.tanh(pre[idx] if kernel is None else pre[idx] - eta * (kernel[idx] @ acc))
                grads = swc_loss_and_grad(self.head, h, labels[idx])
                if not np.isfinite(grads.loss):
                    raise FloatingPointError(
                        f"non-finite loss at session {self.session_index}"
                    )
                if self.head_projector is not None:
                    step_w = self.head_projector.P @ grads.grad_w
                else:
                    step_w = grads.grad_w
                self.head.weights -= self.config.consolidation.head_lr * step_w
                # a permutation's slice: no row repeats within idx
                acc[idx] += grads.grad_hidden * (1.0 - h * h)
            self.fusion.orthogonal_step(z_p.T @ acc, acc.sum(axis=0))

    def finish_stream(self) -> None:
        end_of_class(self.head)

    # ---- accounting / serialization -----------------------------------

    def _state(self) -> Iterator[tuple[str, object, str]]:
        """(checkpoint name, owner, attribute) for every live array; the
        encoders are left out because the seed regenerates them."""
        yield "fusion/0/weights", self.fusion, "weights"
        yield "fusion/0/bias", self.fusion, "bias"
        yield "fusion/0/projector", self.fusion.projector, "P"
        for attr in ("weights", "anchor", "fisher_sum"):
            yield f"head/{attr}", self.head, attr
        if self.head_projector is not None:
            yield "head_projector", self.head_projector, "P"

    def state_size_bytes(self) -> int:
        """Bytes held by live training state (excludes eval-time caches)."""
        return (sum(getattr(owner, attr).nbytes for _, owner, attr in self._state())
                + sum(enc.weights.nbytes + enc.bias.nbytes for enc in self.encoders.values()))

    def save_checkpoint(self, path: str) -> None:
        header = {
            "kind": "checkpoint",
            "config": self.config.to_dict(),
            "slot_to_class": self.slot_to_class,
            "session_index": self.session_index,
        }
        arrays = {name: getattr(owner, attr) for name, owner, attr in self._state()}
        if self.head.pending is not None:
            # the current class's Fisher, folded in at the next class boundary
            arrays["head/pending_fisher"] = self.head.pending.diag
            header["pending_fisher_samples"] = self.head.pending.sample_count
        container.write_container(path, header, arrays)

    @classmethod
    def load_checkpoint(cls, path: str) -> "Model":
        header, arrays = container.read_container(path)
        if header.get("kind") != "checkpoint":
            raise container.ContainerError(f"{path!r} is not a checkpoint")
        try:
            config = RunConfig.from_dict(container.entry(path, header, "config", dict))
            model = cls(config)
            slots = model.slot_to_class = container.entry(path, header, "slot_to_class", list[int])
            # predict_labels holds the slot ids as int64
            if (min(slots, default=0) < 0 or max(slots, default=0) >= 2**63
                    or len(set(slots)) < len(slots)):
                raise container.ContainerError(
                    f"{path!r}: slot_to_class repeats or is < 0 or >= 2**63")
            # a fresh model fixes every shape but the head's: one column per
            # slot, of which the anchor covers the classes consolidated so far
            head_shape = (config.fusion.width, len(model.slot_to_class))
            want = {name: head_shape if owner is model.head else getattr(owner, attr).shape
                    for name, owner, attr in model._state()}
            want["head/pending_fisher"] = head_shape
            anchor = arrays["head/anchor"]
            if anchor.ndim == 2 and anchor.shape[1] <= head_shape[1]:
                want["head/anchor"] = (head_shape[0], anchor.shape[1])
            for name, shape in want.items():
                if name not in arrays:
                    continue
                if arrays[name].dtype != np.float64:
                    raise container.ContainerError(
                        f"{path!r}: {name} has dtype {arrays[name].dtype}, expected float64")
                if arrays[name].shape != shape:
                    raise container.ContainerError(
                        f"{path!r}: {name} has shape {arrays[name].shape}, expected {shape}")
                if not np.all(np.isfinite(arrays[name])):
                    raise container.ContainerError(f"{path!r}: {name} has non-finite entries")
            for name, owner, attr in model._state():
                setattr(owner, attr, arrays[name])
            model.session_index = container.entry(path, header, "session_index", int)
            if model.session_index < 0:
                raise container.ContainerError(f"{path!r}: session_index is < 0")
        except KeyError as exc:
            raise container.ContainerError(f"{path!r} lacks entry {exc.args[0]!r}") from exc
        except ConfigError as exc:
            raise container.ContainerError(f"{path!r}, entry 'config': {exc}") from exc
        if "head/pending_fisher" in arrays:
            samples = container.entry(path, header, "pending_fisher_samples", int)
            try:
                model.head.pending = FisherEstimate(arrays["head/pending_fisher"], samples)
            except ValueError as exc:  # a sample count < 1 or a negative entry
                raise container.ContainerError(f"{path!r}: head/pending_fisher: {exc}") from exc
        return model


@dataclass
class RunResult:
    manifest: dict
    matrix: evaluation.AccuracyMatrix
    model: Model
    avg_acc: float
    bwt: float | None


def run(
    config: RunConfig,
    data: SplitDataset,
    protocol: StreamProtocol,
    out_dir: str | None = None,
) -> RunResult:
    """Consume the full stream, evaluating after the last view of each class.

    Writes report.csv, checkpoint.mvcl, and manifest.json to out_dir when
    given; the report is rewritten incrementally as rows complete.
    """
    sessions = list(stream_sessions(protocol, data))
    model = Model(config)
    matrix = evaluation.AccuracyMatrix(protocol.num_classes)
    timings: list[float] = []
    report_path = os.path.join(out_dir, "report.csv") if out_dir else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    test_samples: Counter[int] = Counter()
    for b in data.test:
        test_samples[b.class_id] += b.num_samples

    model._eval_memo = {}
    try:
        for _, group in itertools.groupby(sessions, key=lambda b: b.class_id):
            for batch in group:
                start = time.perf_counter()
                model.train_session(batch)
                timings.append(time.perf_counter() - start)
            row = evaluation.evaluate_classes(model, data.test, model.slot_to_class)
            for slot, acc in enumerate(row):
                matrix.set_cell(len(model.slot_to_class) - 1, slot, acc,
                                test_samples[model.slot_to_class[slot]])
            if report_path:
                evaluation.emit_report(report_path, matrix)
        model.finish_stream()
        fam = None
        if protocol.heldout_views:
            streamed = set(protocol.sessions())
            held = {b: (b.class_id, b.view_id) not in streamed for b in data.test}
            fam = evaluation.familiar_view_eval(model, [b for b in held if held[b]],
                                                [b for b in held if not held[b]])
    finally:
        # the returned model keeps no test features; a later predict extracts
        model._eval_memo = None

    final_avg = evaluation.avg_acc(matrix)
    final_bwt = evaluation.bwt(matrix)
    manifest = {
        "schema_version": 1,
        "package": "mvcil",
        "config": config.to_dict(),
        "protocol": protocol.to_dict(),
        "slot_to_class": model.slot_to_class,
        "random_weight_distribution": "uniform[-1,1]",
        "reencode_bias": "original random bias, weights-only fit",
        "num_sessions": len(sessions),
        "session_seconds": timings,
        "state_size_bytes": model.state_size_bytes(),
        "metrics": {"avg_acc": final_avg, "bwt": final_bwt},
    }
    if fam is not None:
        fam["heldout_per_class"] = {str(c): a for c, a in fam["heldout_per_class"].items()}
        manifest["familiar_view_eval"] = fam
    if out_dir:
        model.save_checkpoint(os.path.join(out_dir, "checkpoint.mvcl"))
        with container.atomic_open(os.path.join(out_dir, "manifest.json")) as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
    return RunResult(manifest, matrix, model, final_avg, final_bwt)
