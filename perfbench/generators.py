"""Seeded synthetic inputs for the benchmark workloads; nothing is downloaded.

Every generator draws from a SeedSequence built from the benchmark's --seed,
so the same seed gives bit-identical inputs. The program under test only
ever receives the ViewBatch / SplitDataset / StreamProtocol objects built
here.
"""

from __future__ import annotations

import numpy as np

from mvcil.dataset import (
    SplitDataset,
    StreamProtocol,
    ViewBatch,
    make_permuted_views,
    make_protocol,
)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def pmnist(
    seed: int,
    classes: int = 10,
    views: int = 3,
    dim: int = 784,
    train_per_class: int = 128,
    test_per_class: int = 64,
    noise: float = 0.3,
) -> tuple[SplitDataset, StreamProtocol]:
    """MNIST-shaped stream: one prototype in [0,1]^dim per class, samples
    are the prototype plus Gaussian noise clipped to [0,1], and the views
    are seeded pixel permutations from `make_permuted_views`.

    At the defaults the test pool (10 x 3 x 64) fills exactly 30 batches
    of 64 for serving.
    """
    rng = _rng(seed, 0x504D)
    prototypes = rng.uniform(0.0, 1.0, size=(classes, dim))
    train, test = [], []
    for c in range(classes):
        for count, pool in ((train_per_class, train), (test_per_class, test)):
            x = np.clip(prototypes[c] + noise * rng.standard_normal((count, dim)), 0.0, 1.0)
            pool.append(ViewBatch(c, 0, x, np.full(count, c, dtype=np.int64)))
    base = SplitDataset(train, test, classes, 1, dim)
    data = make_permuted_views(base, views, seed)
    return data, make_protocol(f"gsynth-{classes}x{views}", classes, views, seed)


def tables(
    seed: int,
    classes: int = 40,
    widths: tuple[int, ...] = (32, 48, 64),
    train_per_class: int = 64,
    test_per_class: int = 16,
    latent: int = 16,
    noise: float = 0.5,
) -> tuple[SplitDataset, StreamProtocol]:
    """Per-view feature tables of the same samples, one width per view.

    Each sample has a latent vector (its class centre plus Gaussian noise);
    view v is tanh of a fixed random map of the latent to widths[v] columns,
    so the views describe the same samples through different encodings.
    """
    rng = _rng(seed, 0x7AB1)
    centres = rng.standard_normal((classes, latent))
    maps = [rng.standard_normal((latent, w)) / np.sqrt(latent) for w in widths]
    train, test = [], []
    for c in range(classes):
        for count, pool in ((train_per_class, train), (test_per_class, test)):
            z = centres[c] + noise * rng.standard_normal((count, latent))
            labels = np.full(count, c, dtype=np.int64)
            for v, m in enumerate(maps):
                pool.append(ViewBatch(c, v, np.tanh(z @ m), labels))
    data = SplitDataset(train, test, classes, len(widths), tuple(widths))
    return data, make_protocol(f"tables-{classes}x{len(widths)}", classes, len(widths), seed)


def mixed_batches(test: list[ViewBatch], seed: int, size: int = 64) -> list[ViewBatch]:
    """The whole test pool (every class and view) shuffled into fixed-size
    batches; the remainder that does not fill a batch is dropped.

    All views must share one input width. Each batch carries placeholder
    class_id 0 and view_id 0; the true labels ride in `labels`.
    """
    inputs = np.concatenate([b.inputs for b in test])
    labels = np.concatenate([b.labels for b in test])
    order = _rng(seed, 0x5E7).permutation(labels.size)
    full = order[: labels.size // size * size].reshape(-1, size)
    return [ViewBatch(0, 0, inputs[idx], labels[idx]) for idx in full]
