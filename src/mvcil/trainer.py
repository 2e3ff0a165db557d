"""Training orchestration over the (class, view) session stream.

Each session: extract the view-optimal feature, train the fusion layer with
projector-modulated gradient steps and the decision head with the
consolidation penalty, then absorb the session's features into the
projector(s). Class boundaries snapshot the anchor and fold the class's
Fisher estimate, pooled over all of its views, into the running sum. Live
state never grows with the number of sessions (only the head gains one
column per class).

Modes:
    full            projector on the fusion layer + consolidated head
    net1_orth_only  projector only; head trains plain (mu forced to 0)
    net2_orth_both  projectors on fusion and on the head's hidden space; no
                    consolidation penalty
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import container, evaluation
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


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class FusionConfig:
    alpha: float = 1.0
    eta: float = 0.01
    width: int = 200
    activation: str = "tanh"
    projector_enabled: bool = True
    head_projector_alpha: float = 1.0  # 0 means: reuse alpha

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ConfigError(f"fusion.alpha must be > 0, got {self.alpha}")
        if self.eta <= 0:
            raise ConfigError(f"fusion.eta must be > 0, got {self.eta}")
        if self.head_projector_alpha < 0:
            raise ConfigError(
                f"fusion.head_projector_alpha must be >= 0, got {self.head_projector_alpha}"
            )
        if self.width < 1:
            raise ConfigError(f"fusion.width must be >= 1, got {self.width}")


@dataclass(frozen=True)
class ConsolidationConfig:
    mu: float = 1000.0
    epochs_per_session: int = 8
    batch_size: int = 64
    max_steps_per_session: int = 60
    head_lr: float = 2e-3
    imprint_scale: float = 2.0

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ConfigError(f"consolidation.mu must be >= 0, got {self.mu}")
        if self.epochs_per_session < 1:
            raise ConfigError(
                f"consolidation.epochs_per_session must be >= 1, got "
                f"{self.epochs_per_session}"
            )
        if self.batch_size < 1:
            raise ConfigError(
                f"consolidation.batch_size must be >= 1, got {self.batch_size}"
            )
        if self.max_steps_per_session < 1:
            raise ConfigError(
                f"consolidation.max_steps_per_session must be >= 1, got "
                f"{self.max_steps_per_session}"
            )
        if self.head_lr <= 0:
            raise ConfigError(
                f"consolidation.head_lr must be > 0, got {self.head_lr}"
            )
        if self.imprint_scale <= 0:
            raise ConfigError(
                f"consolidation.imprint_scale must be > 0, got {self.imprint_scale}"
            )


SECTIONS = {"encoder": ExtractionConfig, "fusion": FusionConfig,
            "consolidation": ConsolidationConfig}
# keys earlier versions wrote, each accepted only at the value the code now
# always uses, so their checkpoints and manifests still load
RETIRED = {"eval_cadence": "class", "fusion.projector_reset_per_class": False,
           "fusion.depth": 1, "consolidation.train_head_bias": False}


def _retired(key: str, value) -> bool:
    if key not in RETIRED:
        return False
    if value != RETIRED[key]:
        raise ConfigError(
            f"config key {key!r} is retired: only {RETIRED[key]!r} is accepted, got {value!r}"
        )
    return True


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    mode: str = "full"
    encoder: ExtractionConfig = field(default_factory=ExtractionConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    consolidation: ConsolidationConfig = field(default_factory=ConsolidationConfig)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        # NaN fails every comparison, so it slips past each section's bounds
        for name in SECTIONS:
            section = getattr(self, name)
            for f in dataclasses.fields(section):
                value = getattr(section, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{name}.{f.name} must be finite, got {value}")

    def to_dict(self) -> dict:
        return {"schema_version": CONFIG_SCHEMA_VERSION, **dataclasses.asdict(self)}

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        raw = dict(raw)
        version = raw.pop("schema_version", CONFIG_SCHEMA_VERSION)
        if version != CONFIG_SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema_version {version}")
        kwargs: dict = {}
        for key, value in raw.items():
            if key in SECTIONS:
                if not isinstance(value, dict):
                    raise ConfigError(f"config section {key!r} must be an object")
                value = {k: v for k, v in value.items() if not _retired(f"{key}.{k}", v)}
                known = {f.name for f in dataclasses.fields(SECTIONS[key])}
                unknown = set(value) - known
                if unknown:
                    raise ConfigError(f"unknown config keys in {key}: {sorted(unknown)}")
                try:
                    kwargs[key] = SECTIONS[key](**value)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad {key} config: {exc}") from exc
            elif _retired(key, value):
                continue
            elif key in ("seed", "mode"):
                kwargs[key] = value
            else:
                raise ConfigError(f"unknown config key {key!r}")
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def config_field_types() -> dict[str, type]:
    """Dotted config key -> expected scalar type (for override parsing)."""
    out = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)
           if f.name not in SECTIONS}
    for section, klass in SECTIONS.items():
        for f in dataclasses.fields(klass):
            out[f"{section}.{f.name}"] = type(f.default)
    return out


class Model:
    """Live model state: frozen encoders, fusion layer, decision head."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.encoders: dict[int, object] = {}
        self.fusion = FusionLayer(
            config.encoder.n * config.encoder.L,
            config.fusion.width,
            activation=config.fusion.activation,
            eta=config.fusion.eta,
            alpha=config.fusion.alpha,
            seed=int(derive_seed(config.seed, 0xF5, 0).generate_state(1)[0]),
        )
        head_mu = config.consolidation.mu if config.mode == "full" else 0.0
        self.head = DecisionHead(config.fusion.width, mu=head_mu)
        head_alpha = config.fusion.head_projector_alpha or config.fusion.alpha
        # full keeps the class-level projector too: the consolidation penalty
        # anchors old columns while the projector stops new columns from
        # growing along directions old classes occupy. Without the projector a
        # fresh column out-ratchets every anchored one through the shared
        # component of the hidden activations.
        self.head_projector = (
            Projector(config.fusion.width, head_alpha)
            if config.mode in ("full", "net2_orth_both")
            else None
        )
        self.slot_to_class: list[int] = []
        self.session_index = 0
        self._pending_fisher: FisherEstimate | None = None
        self._eval_cache: dict[int, tuple[ViewBatch, np.ndarray]] = {}

    # ---- feature path -------------------------------------------------

    def encoder_for(self, input_dim: int):
        enc = self.encoders.get(input_dim)
        if enc is None:
            seed = int(derive_seed(self.config.seed, 0xE2C, input_dim).generate_state(1)[0])
            enc = self.config.encoder.make_encoder(input_dim, seed=seed)
            self.encoders[input_dim] = enc
        return enc

    def extract(self, batch: ViewBatch) -> np.ndarray:
        enc = self.encoder_for(batch.input_dim)
        return extract_view_feature(enc, batch, self.config.encoder).features

    def features_for_eval(self, batch: ViewBatch) -> np.ndarray:
        """Extraction is model-independent within a run, so test-batch
        features are cached (keyed by batch identity, batch pinned)."""
        hit = self._eval_cache.get(id(batch))
        if hit is not None and hit[0] is batch:
            return hit[1]
        feats = self.extract(batch)
        self._eval_cache[id(batch)] = (batch, feats)
        return feats

    @property
    def fusion_layers(self) -> tuple[FusionLayer]:
        """The fusion layer as a one-tuple: the benchmark's traced run
        reads its projector's capacity through this name."""
        return (self.fusion,)

    # ---- inference (task-id-free: consumes only the inputs) -----------

    def predict_labels(self, batch: ViewBatch) -> np.ndarray:
        feats = self.features_for_eval(batch)
        logits = self.head.logits(self.fusion.forward(feats))
        slots_by_class = np.argsort(np.asarray(self.slot_to_class, dtype=np.int64),
                                    kind="stable")
        # columns reordered by ascending class id, so argmax's first-match
        # rule breaks ties toward the lowest class id
        ordered = logits[:, slots_by_class]
        pick = np.argmax(ordered, axis=1)
        class_ids = np.asarray(self.slot_to_class, dtype=np.int64)[slots_by_class]
        return class_ids[pick]

    # ---- training -----------------------------------------------------

    def train_session(self, batch: ViewBatch) -> None:
        cfg = self.config
        cid = batch.class_id
        if cid in self.slot_to_class:
            if cid != self.slot_to_class[-1]:
                raise ValueError(
                    f"out-of-order session: class {cid} reappeared after "
                    f"class {self.slot_to_class[-1]}"
                )
            imprint_slot = None
        else:
            if self.slot_to_class:
                self._finish_class()
            slot = self.head.classes_seen
            expand_head(self.head, slot)
            self.slot_to_class.append(cid)
            imprint_slot = slot

        feats = self.extract(batch)
        if imprint_slot is not None:
            # seed the fresh column with the class's mean hidden direction,
            # scaled so its mean logit starts near imprint_scale. A zero
            # column never trains when the class arrives alone (single-class
            # softmax saturates, so gradient and Fisher both vanish) and
            # would lose to every later class's logit for good.
            m = self.fusion.forward(feats).mean(axis=0)
            energy = float(m @ m)
            if energy > 0.0:
                self.head.weights[:, imprint_slot] = (
                    m * (cfg.consolidation.imprint_scale / energy)
                )
        slot_labels = np.full(batch.num_samples, self.slot_to_class.index(cid),
                              dtype=np.int64)
        self._supervised_loop(feats, slot_labels)

        # protect what was just learned: absorb after the gradient steps
        if cfg.fusion.projector_enabled:
            self.fusion.projector.absorb(feats)
        h_full = self.fusion.forward(feats)
        if self.head_projector is not None:
            # normalize so each session adds O(1) energy: the projector's
            # stability/plasticity point then does not move with dataset size
            self.head_projector.absorb(h_full / np.sqrt(h_full.shape[0]))
        if self.head.mu > 0:
            fisher = fisher_diag(self.head, h_full, slot_labels)
            prev = self._pending_fisher
            if prev is not None:
                # an earlier view of this class: the class's estimate is the
                # sample-weighted mean over all of its views
                n = prev.sample_count + fisher.sample_count
                diag = (prev.diag * prev.sample_count + fisher.diag * fisher.sample_count) / n
                fisher = FisherEstimate(diag, n)
            self._pending_fisher = fisher
        self.session_index += 1

    def _supervised_loop(self, feats: np.ndarray, slot_labels: np.ndarray) -> None:
        cfg = self.config
        n = feats.shape[0]
        bs = min(cfg.consolidation.batch_size, n)
        rng = np.random.default_rng(
            derive_seed(cfg.seed, 0xB5, self.session_index)
        )
        head_lr = cfg.consolidation.head_lr
        # fixed per-session work budget: without it the step count (and with
        # it the unprotected new column's logit climb) scales with dataset
        # size, and larger streams forget catastrophically at settings that
        # are stable on small ones
        budget = cfg.consolidation.max_steps_per_session
        steps = 0
        for _ in range(cfg.consolidation.epochs_per_session):
            if steps >= budget:
                break
            perm = rng.permutation(n)
            for start in range(0, n, bs):
                if steps >= budget:
                    break
                steps += 1
                idx = perm[start : start + bs]
                x = feats[idx]
                h, dact = self.fusion.forward_with_grad(x)
                grads = swc_loss_and_grad(self.head, h, slot_labels[idx])
                if not np.isfinite(grads.loss):
                    raise FloatingPointError(
                        f"non-finite loss at session {self.session_index}"
                    )
                if self.head_projector is not None:
                    step_w = self.head_projector.P @ grads.grad_w
                else:
                    step_w = grads.grad_w
                self.head.weights = self.head.weights - head_lr * step_w
                da = grads.grad_hidden * dact
                self.fusion.orthogonal_step(x.T @ da, da.sum(axis=0),
                                            project=cfg.fusion.projector_enabled)

    def _finish_class(self) -> None:
        if self.head.mu > 0 and self._pending_fisher is not None:
            end_of_class(self.head, self._pending_fisher)
            self._pending_fisher = None

    def finish_stream(self) -> None:
        self._finish_class()

    # ---- accounting / serialization -----------------------------------

    def _state(self) -> Iterator[tuple[str, object, str]]:
        """(checkpoint name, owner, attribute) for every live array; the
        encoders are left out because the seed regenerates them."""
        yield "fusion/0/weights", self.fusion, "weights"
        yield "fusion/0/bias", self.fusion, "bias"
        yield "fusion/0/projector", self.fusion.projector, "P"
        for attr in ("weights", "bias", "anchor", "fisher_sum"):
            yield f"head/{attr}", self.head, attr
        if self.head_projector is not None:
            yield "head_projector", self.head_projector, "P"

    def state_size_bytes(self) -> int:
        """Bytes held by live training state (excludes eval-time caches)."""
        total = sum(getattr(owner, attr).nbytes for _, owner, attr in self._state())
        for enc in self.encoders.values():
            total += sum(w.nbytes for w in enc.weights)
            total += sum(b.nbytes for b in enc.biases)
        return total

    def save_checkpoint(self, path: str) -> None:
        header = {
            "kind": "checkpoint",
            "config": self.config.to_dict(),
            "slot_to_class": self.slot_to_class,
            "session_index": self.session_index,
            "encoder_dims": sorted(self.encoders),
        }
        arrays = {name: getattr(owner, attr) for name, owner, attr in self._state()}
        if self._pending_fisher is not None:
            # the current class's Fisher, folded in at the next class boundary
            arrays["head/pending_fisher"] = self._pending_fisher.diag
            header["pending_fisher_samples"] = self._pending_fisher.sample_count
        container.write_container(path, header, arrays)

    @classmethod
    def load_checkpoint(cls, path: str) -> "Model":
        header, arrays = container.read_container(path)
        if header.get("kind") != "checkpoint":
            raise container.ContainerError(f"{path!r} is not a checkpoint")
        try:
            config = RunConfig.from_dict(header["config"])
            model = cls(config)
            for name, owner, attr in model._state():
                setattr(owner, attr, arrays[name])
            if "head/pending_fisher" in arrays:
                model._pending_fisher = FisherEstimate(arrays["head/pending_fisher"],
                                                       header["pending_fisher_samples"])
            model.slot_to_class = list(header["slot_to_class"])
            model.session_index = header["session_index"]
            for dim in header["encoder_dims"]:
                model.encoder_for(dim)
        except KeyError as exc:
            raise container.ContainerError(f"{path!r} lacks entry {exc.args[0]!r}") from exc
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

    for i, batch in enumerate(sessions):
        start = time.perf_counter()
        model.train_session(batch)
        timings.append(time.perf_counter() - start)
        if i + 1 < len(sessions) and sessions[i + 1].class_id == batch.class_id:
            continue
        row = evaluation.evaluate_classes(model, data.test, model.slot_to_class)
        for slot, acc in enumerate(row):
            if np.isnan(acc):
                continue
            n = sum(b.num_samples for b in data.test
                    if b.class_id == model.slot_to_class[slot])
            matrix.set_cell(len(model.slot_to_class) - 1, slot, acc, n)
        if report_path:
            evaluation.emit_report(report_path, matrix)
    model.finish_stream()

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
    if protocol.heldout_views:
        held = [b for b in data.test
                if b.view_id in protocol.heldout_views.get(b.class_id, frozenset())]
        shared = [b for b in data.test
                  if b.view_id not in protocol.heldout_views.get(b.class_id, frozenset())]
        fam = evaluation.familiar_view_eval(model, held, shared)
        fam["heldout_per_class"] = {str(c): a for c, a in fam["heldout_per_class"].items()}
        manifest["familiar_view_eval"] = fam
    if out_dir:
        model.save_checkpoint(os.path.join(out_dir, "checkpoint.mvcl"))
        with open(os.path.join(out_dir, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
    return RunResult(manifest, matrix, model, final_avg, final_bwt)
