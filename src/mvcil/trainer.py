"""Training orchestration over the (class, view) session stream.

Each session: extract the view-optimal feature, train the fusion stack with
projector-modulated gradient steps and the decision head with the
consolidation penalty, then absorb the session's features into the
projector(s). Class boundaries snapshot the anchor and fold the class's
Fisher estimate into the running sum. Live state never grows with the number
of sessions (only the head gains one column per class).

Modes:
    full            projector on the fusion stack + consolidated head
    net1_orth_only  projector only; head trains plain (mu forced to 0)
    net2_orth_both  projectors on fusion and on the head's hidden space; no
                    consolidation penalty
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
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
from .dataset import SplitDataset, StreamProtocol, ViewBatch, stream_sessions
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
    depth: int = 1
    activation: str = "tanh"
    projector_reset_per_class: bool = False
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
        if self.width < 1 or self.depth < 1:
            raise ConfigError(
                f"fusion.width and fusion.depth must be >= 1, got "
                f"{self.width}, {self.depth}"
            )


@dataclass(frozen=True)
class ConsolidationConfig:
    mu: float = 1000.0
    epochs_per_session: int = 8
    batch_size: int = 64
    max_steps_per_session: int = 60  # 0 means: no cap
    head_lr: float = 2e-3  # 0 means: reuse fusion.eta
    train_head_bias: bool = False
    imprint_scale: float = 2.0  # 0 means: zero-init new head columns

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
        if self.max_steps_per_session < 0:
            raise ConfigError(
                f"consolidation.max_steps_per_session must be >= 0, got "
                f"{self.max_steps_per_session}"
            )
        if self.head_lr < 0:
            raise ConfigError(
                f"consolidation.head_lr must be >= 0, got {self.head_lr}"
            )
        if self.imprint_scale < 0:
            raise ConfigError(
                f"consolidation.imprint_scale must be >= 0, got {self.imprint_scale}"
            )


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    mode: str = "full"
    encoder: ExtractionConfig = field(default_factory=ExtractionConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    consolidation: ConsolidationConfig = field(default_factory=ConsolidationConfig)
    eval_cadence: str = "class"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.eval_cadence not in ("class", "view"):
            raise ConfigError(
                f"eval_cadence must be 'class' or 'view', got {self.eval_cadence!r}"
            )

    def to_dict(self) -> dict:
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "seed": self.seed,
            "mode": self.mode,
            "encoder": dataclasses.asdict(self.encoder),
            "fusion": dataclasses.asdict(self.fusion),
            "consolidation": dataclasses.asdict(self.consolidation),
            "eval_cadence": self.eval_cadence,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        raw = dict(raw)
        version = raw.pop("schema_version", CONFIG_SCHEMA_VERSION)
        if version != CONFIG_SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema_version {version}")
        sections = {"encoder": ExtractionConfig, "fusion": FusionConfig,
                    "consolidation": ConsolidationConfig}
        kwargs: dict = {}
        for key, value in raw.items():
            if key in sections:
                if not isinstance(value, dict):
                    raise ConfigError(f"config section {key!r} must be an object")
                known = {f.name for f in dataclasses.fields(sections[key])}
                unknown = set(value) - known
                if unknown:
                    raise ConfigError(f"unknown config keys in {key}: {sorted(unknown)}")
                try:
                    kwargs[key] = sections[key](**value)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad {key} config: {exc}") from exc
            elif key in ("seed", "mode", "eval_cadence"):
                kwargs[key] = value
            else:
                raise ConfigError(f"unknown config key {key!r}")
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def config_field_types() -> dict[str, type]:
    """Dotted config key -> expected scalar type (for override parsing)."""
    out: dict[str, type] = {"seed": int, "mode": str, "eval_cadence": str}
    for section, klass in (("encoder", ExtractionConfig), ("fusion", FusionConfig),
                           ("consolidation", ConsolidationConfig)):
        for f in dataclasses.fields(klass):
            out[f"{section}.{f.name}"] = f.type if isinstance(f.type, type) else {
                "int": int, "float": float, "str": str, "bool": bool
            }[f.type]
    return out


def _derive_seed(*parts) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(p) for p in parts])


class Model:
    """Live model state: frozen encoders, fusion stack, decision head."""

    def __init__(self, config: RunConfig, feature_dim: int | None = None):
        self.config = config
        self.encoders: dict[int, object] = {}
        d_in = feature_dim if feature_dim is not None else config.encoder.n * config.encoder.L
        self.fusion_layers: list[FusionLayer] = []
        for i in range(config.fusion.depth):
            layer_in = d_in if i == 0 else config.fusion.width
            self.fusion_layers.append(
                FusionLayer(
                    layer_in,
                    config.fusion.width,
                    activation=config.fusion.activation,
                    eta=config.fusion.eta,
                    alpha=config.fusion.alpha,
                    seed=int(_derive_seed(config.seed, 0xF5, i).generate_state(1)[0]),
                )
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
        self.class_slots: dict[int, int] = {}
        self.slot_to_class: list[int] = []
        self.current_class: int | None = None
        self.session_index = 0
        self._pending_fisher: FisherEstimate | None = None
        self._eval_cache: dict[int, tuple[ViewBatch, np.ndarray]] = {}

    # ---- feature path -------------------------------------------------

    def encoder_for(self, input_dim: int):
        enc = self.encoders.get(input_dim)
        if enc is None:
            seed = int(_derive_seed(self.config.seed, 0xE2C, input_dim).generate_state(1)[0])
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

    def hidden(self, feats: np.ndarray) -> np.ndarray:
        h = feats
        for layer in self.fusion_layers:
            h = layer.forward(h)
        return h

    # ---- inference (task-id-free: consumes only the inputs) -----------

    def predict_labels(self, batch: ViewBatch) -> np.ndarray:
        feats = self.features_for_eval(batch)
        logits = self.head.logits(self.hidden(feats))
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
        if cid in self.class_slots:
            if cid != self.current_class:
                raise ValueError(
                    f"out-of-order session: class {cid} reappeared after "
                    f"class {self.current_class}"
                )
            imprint_slot = None
        else:
            if self.current_class is not None:
                self._finish_class()
                if cfg.fusion.projector_reset_per_class:
                    for layer in self.fusion_layers:
                        layer.projector.reset()
            slot = self.head.classes_seen
            expand_head(self.head, slot)
            self.class_slots[cid] = slot
            self.slot_to_class.append(cid)
            self.current_class = cid
            imprint_slot = slot

        feats = self.extract(batch)
        if imprint_slot is not None and cfg.consolidation.imprint_scale > 0:
            # seed the fresh column with the class's mean hidden direction,
            # scaled so its mean logit starts near imprint_scale. A zero
            # column never trains when the class arrives alone (single-class
            # softmax saturates, so gradient and Fisher both vanish) and
            # would lose to every later class's logit for good.
            m = self.hidden(feats).mean(axis=0)
            energy = float(m @ m)
            if energy > 0.0:
                self.head.weights[:, imprint_slot] = (
                    m * (cfg.consolidation.imprint_scale / energy)
                )
        slot_labels = np.full(batch.num_samples, self.class_slots[cid], dtype=np.int64)
        self._supervised_loop(feats, slot_labels)

        # protect what was just learned: absorb after the gradient steps
        if cfg.fusion.projector_enabled:
            h = feats
            for layer in self.fusion_layers:
                layer.projector.absorb(h)
                h = layer.forward(h)
        h_full = self.hidden(feats)
        if self.head_projector is not None:
            # normalize so each session adds O(1) energy: the projector's
            # stability/plasticity point then does not move with dataset size
            self.head_projector.absorb(h_full / np.sqrt(h_full.shape[0]))
        if self.head.mu > 0:
            self._pending_fisher = fisher_diag(self.head, h_full, slot_labels)
        self.session_index += 1

    def _supervised_loop(self, feats: np.ndarray, slot_labels: np.ndarray) -> None:
        cfg = self.config
        n = feats.shape[0]
        bs = min(cfg.consolidation.batch_size, n)
        rng = np.random.default_rng(
            _derive_seed(cfg.seed, 0xB5, self.session_index)
        )
        eta = cfg.fusion.eta
        head_lr = cfg.consolidation.head_lr or eta
        # fixed per-session work budget: without it the step count (and with
        # it the unprotected new column's logit climb) scales with dataset
        # size, and larger streams forget catastrophically at settings that
        # are stable on small ones
        budget = cfg.consolidation.max_steps_per_session or None
        steps = 0
        for _ in range(cfg.consolidation.epochs_per_session):
            if budget is not None and steps >= budget:
                break
            perm = rng.permutation(n)
            for start in range(0, n, bs):
                if budget is not None and steps >= budget:
                    break
                steps += 1
                idx = perm[start : start + bs]
                x = feats[idx]
                outs = []
                dacts = []
                h = x
                for layer in self.fusion_layers:
                    out, dact = layer.forward_with_grad(h)
                    outs.append((h, out))
                    dacts.append(dact)
                    h = out
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
                if cfg.consolidation.train_head_bias:
                    self.head.bias = self.head.bias - head_lr * grads.grad_b
                d = grads.grad_hidden
                for layer, (layer_in, _out), dact in zip(
                    reversed(self.fusion_layers), reversed(outs), reversed(dacts)
                ):
                    da = d * dact
                    gw = layer_in.T @ da
                    gb = da.sum(axis=0)
                    d = da @ layer.weights.T
                    layer.orthogonal_step(gw, gb, project=cfg.fusion.projector_enabled)

    def _finish_class(self) -> None:
        if self.head.mu > 0 and self._pending_fisher is not None:
            end_of_class(self.head, self._pending_fisher)
            self._pending_fisher = None

    def finish_stream(self) -> None:
        self._finish_class()

    # ---- accounting / serialization -----------------------------------

    def state_size_bytes(self) -> int:
        """Bytes held by live training state (excludes eval-time caches)."""
        total = 0
        for enc in self.encoders.values():
            total += sum(w.nbytes for w in enc.weights)
            total += sum(b.nbytes for b in enc.biases)
        for layer in self.fusion_layers:
            total += layer.weights.nbytes + layer.bias.nbytes + layer.projector.P.nbytes
        total += (self.head.weights.nbytes + self.head.bias.nbytes
                  + self.head.anchor.nbytes + self.head.fisher_sum.nbytes)
        if self.head_projector is not None:
            total += self.head_projector.P.nbytes
        return total

    def save_checkpoint(self, path: str) -> None:
        header = {
            "kind": "checkpoint",
            "config": self.config.to_dict(),
            "slot_to_class": self.slot_to_class,
            "current_class": self.current_class,
            "session_index": self.session_index,
            "classes_consolidated": self.head.classes_consolidated,
            "encoder_dims": sorted(self.encoders),
        }
        arrays: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.fusion_layers):
            arrays[f"fusion/{i}/weights"] = layer.weights
            arrays[f"fusion/{i}/bias"] = layer.bias
            arrays[f"fusion/{i}/projector"] = layer.projector.P
            header[f"fusion_{i}_samples_absorbed"] = layer.projector.samples_absorbed
        arrays["head/weights"] = self.head.weights
        arrays["head/bias"] = self.head.bias
        arrays["head/anchor"] = self.head.anchor
        arrays["head/fisher_sum"] = self.head.fisher_sum
        arrays["head/mu"] = np.array([self.head.mu])
        if self.head_projector is not None:
            arrays["head_projector"] = self.head_projector.P
            header["head_projector_samples"] = self.head_projector.samples_absorbed
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
        config = RunConfig.from_dict(header["config"])
        model = cls(config)
        for i, layer in enumerate(model.fusion_layers):
            layer.weights = arrays[f"fusion/{i}/weights"]
            layer.bias = arrays[f"fusion/{i}/bias"]
            layer.projector.P = arrays[f"fusion/{i}/projector"]
            layer.projector.samples_absorbed = header[f"fusion_{i}_samples_absorbed"]
        head = model.head
        head.weights = arrays["head/weights"]
        head.bias = arrays["head/bias"]
        head.anchor = arrays["head/anchor"]
        head.fisher_sum = arrays["head/fisher_sum"]
        head.mu = float(arrays["head/mu"][0])
        head.classes_consolidated = header["classes_consolidated"]
        if model.head_projector is not None:
            model.head_projector.P = arrays["head_projector"]
            model.head_projector.samples_absorbed = header["head_projector_samples"]
        if "head/pending_fisher" in arrays:
            model._pending_fisher = FisherEstimate(arrays["head/pending_fisher"],
                                                   header["pending_fisher_samples"])
        model.slot_to_class = list(header["slot_to_class"])
        model.class_slots = {c: s for s, c in enumerate(model.slot_to_class)}
        model.current_class = header["current_class"]
        model.session_index = header["session_index"]
        for dim in header["encoder_dims"]:
            model.encoder_for(dim)
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
    """Consume the full stream, evaluating after each class (or view).

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

    def eval_after(classes_done: int) -> None:
        row = evaluation.evaluate_classes(model, data.test, model.slot_to_class)
        for slot, acc in enumerate(row):
            if np.isnan(acc):
                continue
            n = sum(b.num_samples for b in data.test
                    if b.class_id == model.slot_to_class[slot])
            matrix.set_cell(classes_done - 1, slot, acc, n)
        if report_path:
            evaluation.emit_report(report_path, matrix)

    for i, batch in enumerate(sessions):
        start = time.perf_counter()
        model.train_session(batch)
        timings.append(time.perf_counter() - start)
        last_of_class = i + 1 == len(sessions) or sessions[i + 1].class_id != batch.class_id
        if config.eval_cadence == "view" or last_of_class:
            eval_after(len(model.slot_to_class))
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
