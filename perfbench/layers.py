"""The traced run: which public callables of mvcil get a span, and the
per-layer metrics derived from those spans. Each layer is named after its
module.

The wrappers are installed on the module or class attribute through which
the program makes the call (the trainer imports the FISTA and consolidation
functions into its own namespace, so they are wrapped there).
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict

import numpy as np

from mvcil import container, evaluation, orthogonal_fusion, trainer

from spans import Span, ancestors, covered, self_times

FIT = "sparse_features.extract_view_feature"
SESSION = "trainer.Model.train_session"
EVAL_FEATURES = "trainer.Model.features_for_eval"
PREDICT = "trainer.Model.predict_labels"


def _fit_attrs(args, kwargs, result) -> dict:
    """Nominal FISTA work from shapes, and the fitted decoder's sparsity.

    Per group of L nodes, with N samples of width D and K iterations: codes
    and re-encoding 4NDL, the two Gram matrices 4NL^2, and per iteration one
    gradient product plus one objective product 4L^2D (2L^2D once more for
    the starting objective). The Lipschitz power loop is left out.
    """
    encoder, batch, coder = args
    n_rows, dim = np.shape(batch.inputs)
    L, K = encoder.L, coder.max_iter
    flop = encoder.n * (4 * n_rows * dim * L + 4 * n_rows * L * L + (4 * K + 2) * L * L * dim)
    return {"gflop": flop / 1e9, "sparsity": result.sparsity}


def _rows(args, kwargs, result) -> dict:
    z = np.asarray(args[1])
    return {"rows": 1 if z.ndim == 1 else z.shape[0]}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


TRACED = (
    (trainer, "extract_view_feature", FIT, _fit_attrs),
    (trainer, "swc_loss_and_grad", "consolidation.swc_loss_and_grad", None),
    (trainer, "fisher_diag", "consolidation.fisher_diag", None),
    (trainer, "end_of_class", "consolidation.end_of_class", None),
    (orthogonal_fusion.Projector, "absorb", "orthogonal_fusion.Projector.absorb", _rows),
    (orthogonal_fusion.FusionLayer, "forward", "orthogonal_fusion.FusionLayer.forward", None),
    (orthogonal_fusion.FusionLayer, "forward_with_grad",
     "orthogonal_fusion.FusionLayer.forward_with_grad", None),
    (orthogonal_fusion.FusionLayer, "orthogonal_step",
     "orthogonal_fusion.FusionLayer.orthogonal_step", None),
    (trainer.Model, "train_session", SESSION, None),
    (trainer.Model, "features_for_eval", EVAL_FEATURES, None),
    (trainer.Model, "predict_labels", PREDICT, None),
    (evaluation, "evaluate_classes", "evaluation.evaluate_classes", None),
    (evaluation, "avg_acc", "evaluation.avg_acc", None),
    (evaluation, "bwt", "evaluation.bwt", None),
    (evaluation, "emit_report", "evaluation.emit_report", None),
    (evaluation, "parse_report", "evaluation.parse_report", None),
    (container, "write_container", "container.write_container", _file_bytes),
    (container, "read_container", "container.read_container", _file_bytes),
)

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "sparse_features.fit_train_s": ("s", "lower"),
    "sparse_features.fit_train_calls": ("count", "lower"),
    "sparse_features.fit_eval_s": ("s", "lower"),
    "sparse_features.fit_eval_calls": ("count", "lower"),
    "sparse_features.eval_cache_hit_ratio": ("share", "higher"),
    "sparse_features.fit_gflop": ("GFLOP", "lower"),
    "sparse_features.sparsity": ("share", "higher"),
    "orthogonal_fusion.step_s": ("s", "lower"),
    "orthogonal_fusion.step_calls": ("count", "lower"),
    "orthogonal_fusion.absorb_s": ("s", "lower"),
    "orthogonal_fusion.absorb_rows": ("count", "lower"),
    "orthogonal_fusion.forward_s": ("s", "lower"),
    "orthogonal_fusion.capacity_fusion": ("share", "higher"),
    "orthogonal_fusion.capacity_head": ("share", "higher"),
    "consolidation.loss_grad_s": ("s", "lower"),
    "consolidation.loss_grad_calls": ("count", "lower"),
    "consolidation.fisher_s": ("s", "lower"),
    "consolidation.fisher_mass": ("1", "higher"),
    "trainer.session_self_s": ("s", "lower"),
    "evaluation.eval_s": ("s", "lower"),
    "evaluation.predict_calls": ("count", "lower"),
    "evaluation.predict_self_s": ("s", "lower"),
    "evaluation.report_s": ("s", "lower"),
    "container.write_s": ("s", "lower"),
    "container.write_bytes": ("B", "lower"),
    "container.read_s": ("s", "lower"),
    "container.read_bytes": ("B", "lower"),
    "trace.span_coverage": ("share", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def install(tracer) -> None:
    for owner, attr, name, measure in TRACED:
        tracer.wrap(owner, attr, name, measure)


def _capacity(projector) -> float:
    """trace(P)/d: the share of the space still open to new directions."""
    return float(np.trace(projector.P) / projector.dim)


def layer_metrics(spans: list[Span], model, traced_seconds: float,
                  overhead_seconds: float) -> dict[str, float]:
    """Per-layer metrics over every span recorded, read against the model
    left by the traced pass. `traced_seconds` is the wall time during which
    the wrappers were installed."""
    seconds: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    attrs: dict[str, float] = defaultdict(float)
    self_of = self_times(spans)
    for s in spans:
        seconds[s.name] += s.duration
        own[s.name] += self_of[s.id]
        calls[s.name] += 1
        for key, value in s.attrs.items():
            attrs[f"{s.name}:{key}"] += value

    fits = [s for s in spans if s.name == FIT]
    train_fits = [s for s in fits if SESSION in ancestors(spans, s)]
    eval_fits = [s for s in fits if EVAL_FEATURES in ancestors(spans, s)]
    lookups = calls[EVAL_FEATURES]
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    step = "orthogonal_fusion.FusionLayer.orthogonal_step"
    absorb = "orthogonal_fusion.Projector.absorb"
    return {
        "sparse_features.fit_train_s": sum(s.duration for s in train_fits),
        "sparse_features.fit_train_calls": len(train_fits),
        "sparse_features.fit_eval_s": sum(s.duration for s in eval_fits),
        "sparse_features.fit_eval_calls": len(eval_fits),
        "sparse_features.eval_cache_hit_ratio":
            (lookups - len(eval_fits)) / lookups if lookups else 0.0,
        "sparse_features.fit_gflop": attrs[f"{FIT}:gflop"],
        "sparse_features.sparsity": attrs[f"{FIT}:sparsity"] / len(fits) if fits else 0.0,
        "orthogonal_fusion.step_s": seconds[step],
        "orthogonal_fusion.step_calls": calls[step],
        "orthogonal_fusion.absorb_s": seconds[absorb],
        "orthogonal_fusion.absorb_rows": int(attrs[f"{absorb}:rows"]),
        "orthogonal_fusion.forward_s": (seconds["orthogonal_fusion.FusionLayer.forward"]
                                        + seconds["orthogonal_fusion.FusionLayer.forward_with_grad"]),
        "orthogonal_fusion.capacity_fusion":
            float(np.mean([_capacity(layer.projector) for layer in model.fusion_layers])),
        "orthogonal_fusion.capacity_head": _capacity(model.head_projector),
        "consolidation.loss_grad_s": seconds["consolidation.swc_loss_and_grad"],
        "consolidation.loss_grad_calls": calls["consolidation.swc_loss_and_grad"],
        "consolidation.fisher_s": (seconds["consolidation.fisher_diag"]
                                   + seconds["consolidation.end_of_class"]),
        "consolidation.fisher_mass": float(model.head.fisher_sum.sum()),
        "trainer.session_self_s": own[SESSION],
        "evaluation.eval_s": seconds["evaluation.evaluate_classes"],
        "evaluation.predict_calls": calls[PREDICT],
        "evaluation.predict_self_s": own[PREDICT],
        "evaluation.report_s": seconds["evaluation.emit_report"] + seconds["evaluation.parse_report"],
        "container.write_s": seconds["container.write_container"],
        "container.write_bytes": int(attrs["container.write_container:bytes"]),
        "container.read_s": seconds["container.read_container"],
        "container.read_bytes": int(attrs["container.read_container:bytes"]),
        "trace.span_coverage": covered(roots) / traced_seconds,
        "trace.overhead_s": overhead_seconds,
    }
