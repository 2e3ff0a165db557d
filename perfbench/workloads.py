"""The benchmark's workloads: set-up, one timed pass, and its output checks.

Every workload is single-process, closed-loop with one caller: the next
operation starts only when the previous one returned. A pass returns its
own output checks as callables, so the harness runs them outside the timed
region and counts each one as an operation.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from mvcil import evaluation, trainer
from mvcil.dataset import ViewBatch, load_split, save_split, stream_sessions
from mvcil.trainer import Model, RunConfig

import generators


@dataclass
class Pass:
    """One timed pass. `op_seconds` holds the latency of each operation in
    it: a training session for a stream, a predict batch for serving."""

    seconds: float
    op_seconds: list[float]
    samples: int
    accuracy: float
    bwt: float | None
    model: Model
    checks: dict[str, Callable[[], bool]]


@dataclass(frozen=True)
class Workload:
    kind: str  # "stream" or "serve": decides which metric names it reports
    why: str
    setup: Callable[[int, str], object]  # (seed, out_dir) -> state
    run_pass: Callable[[object, int, str], Pass]  # (state, seed, out_dir)


def same_matrix(a: evaluation.AccuracyMatrix, b: evaluation.AccuracyMatrix) -> bool:
    return (a.num_classes == b.num_classes
            and np.array_equal(a.R, b.R, equal_nan=True)
            and np.array_equal(a.mask, b.mask)
            and np.array_equal(a.n_samples, b.n_samples))


def fresh_copy(batch: ViewBatch) -> ViewBatch:
    """A new batch object, so no identity-keyed cache can answer for it."""
    return ViewBatch(batch.class_id, batch.view_id, batch.inputs.copy(), batch.labels.copy())


def predicts_alike(a: Model, b: Model, probe: ViewBatch) -> bool:
    return np.array_equal(a.predict_labels(fresh_copy(probe)),
                          b.predict_labels(fresh_copy(probe)))


# ---- stream: trainer.run over the whole (class, view) stream -------------

def stream_setup(make_data, seed: int, out_dir: str):
    """Write the inputs to a dataset cache and read them back, as
    `mvcil prepare` followed by `mvcil train --cache` does."""
    cache = os.path.join(out_dir, "inputs.mvcl")
    save_split(cache, *make_data(seed))
    data, protocol, _ = load_split(cache)
    return data, protocol


def stream_pass(state, seed: int, out_dir: str) -> Pass:
    data, protocol = state
    start = time.perf_counter()
    result = trainer.run(RunConfig(seed=seed), data, protocol, out_dir=out_dir)
    seconds = time.perf_counter() - start
    report = os.path.join(out_dir, "report.csv")
    checkpoint = os.path.join(out_dir, "checkpoint.mvcl")
    checks = {
        "report_round_trip": lambda: same_matrix(evaluation.parse_report(report),
                                                 result.matrix),
        "checkpoint_predicts_identically": lambda: predicts_alike(
            Model.load_checkpoint(checkpoint), result.model, data.test[0]),
        "metrics_finite": lambda: bool(np.isfinite(result.avg_acc)
                                       and np.isfinite(result.bwt)),
    }
    return Pass(seconds, list(result.manifest["session_seconds"]),
                sum(b.num_samples for b in data.train), result.avg_acc, result.bwt,
                result.model, checks)


# ---- serve: checkpoint load, then mixed-class predict batches ------------

@dataclass
class ServeState:
    model: Model
    checkpoint: str
    batches: list[ViewBatch]
    num_classes: int


def serve_setup(make_data, seed: int, out_dir: str) -> ServeState:
    """Train the stream without evaluation and save its checkpoint."""
    data, protocol = make_data(seed)
    model = Model(RunConfig(seed=seed))
    for batch in stream_sessions(protocol, data):
        model.train_session(batch)
    model.finish_stream()
    checkpoint = os.path.join(out_dir, "checkpoint.mvcl")
    model.save_checkpoint(checkpoint)
    return ServeState(model, checkpoint, generators.mixed_batches(data.test, seed),
                      data.num_classes)


class TimedPredictor:
    """Stands in for the model in evaluate_classes, timing each
    predict_labels call and keeping its predictions."""

    def __init__(self, model: Model):
        self.model = model
        self.seconds: list[float] = []
        self.predictions: list[np.ndarray] = []

    def predict_labels(self, batch: ViewBatch) -> np.ndarray:
        start = time.perf_counter()
        pred = self.model.predict_labels(batch)
        self.seconds.append(time.perf_counter() - start)
        self.predictions.append(pred)
        return pred


def serve_pass(state: ServeState, seed: int, out_dir: str) -> Pass:
    start = time.perf_counter()
    model = Model.load_checkpoint(state.checkpoint)
    loaded = time.perf_counter()
    predictor = TimedPredictor(model)
    # every batch carries placeholder class 0, so this pools all of them
    (accuracy,) = evaluation.evaluate_classes(predictor, state.batches, [0])
    seconds = time.perf_counter() - start
    # the first request waits for the checkpoint load
    op_seconds = list(predictor.seconds)
    op_seconds[0] += loaded - start

    matrix = per_class_matrix(np.concatenate(predictor.predictions),
                              np.concatenate([b.labels for b in state.batches]),
                              state.num_classes)
    report = os.path.join(out_dir, "report.csv")
    evaluation.emit_report(report, matrix)
    checks = {
        "report_round_trip": lambda: same_matrix(evaluation.parse_report(report), matrix),
        "checkpoint_predicts_identically": lambda: predicts_alike(
            model, state.model, state.batches[0]),
        "metrics_finite": lambda: bool(np.isfinite(accuracy)),
    }
    samples = sum(b.num_samples for b in state.batches)
    return Pass(seconds, op_seconds, samples, accuracy, None, model, checks)


def per_class_matrix(pred: np.ndarray, labels: np.ndarray,
                     num_classes: int) -> evaluation.AccuracyMatrix:
    """Final row only: each class's accuracy over the mixed batches."""
    matrix = evaluation.AccuracyMatrix(num_classes)
    for c in range(num_classes):
        hit = labels == c
        if hit.any():
            matrix.set_cell(num_classes - 1, c, float(np.mean(pred[hit] == c)),
                            int(hit.sum()))
    return matrix


WORKLOADS = {
    "pmnist-stream": Workload(
        "stream",
        "paper's headline protocol: 784-d, 10 classes x 3 permuted views; "
        "FISTA fits are flop-bound here",
        partial(stream_setup, generators.pmnist),
        stream_pass,
    ),
    "tables-stream": Workload(
        "stream",
        "40 classes x 3 feature tables of widths 32/48/64: many cheap, "
        "dispatch-bound fits; fusion steps, absorbs and a 40-column head weigh more",
        partial(stream_setup, generators.tables),
        stream_pass,
    ),
    "pmnist-serve": Workload(
        "serve",
        "inference path: load a trained 784-d checkpoint, predict shuffled "
        "64-sample mixed-class batches; no training layer in the timed phase",
        partial(serve_setup, generators.pmnist),
        serve_pass,
    ),
}
