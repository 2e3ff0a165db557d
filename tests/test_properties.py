"""Property tests, over drawn shapes and values, for the identities that the
stream's incremental state and its fast paths rest on."""

import copy
from unittest import mock

import numpy as np
import pytest

from mvcil import trainer
from mvcil.consolidation import DecisionHead, expand_head, fisher_diag
from mvcil.orthogonal_fusion import Projector
from mvcil.trainer import MODES, ConsolidationConfig, Model, RunConfig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
arrays = pytest.importorskip("hypothesis.extra.numpy").arrays

# tenths in [-3, 3]: no subnormal products, so relative bounds hold exactly
TENTHS = st.integers(-30, 30).map(lambda k: k / 10)
# tenths in [-1, 1], the range of the tanh features the fusion layer sees
UNIT = st.integers(-10, 10).map(lambda k: k / 10)


def splits(data, n: int) -> list[int]:
    """Cut points that split n rows into nonempty consecutive parts."""
    return sorted(data.draw(st.sets(st.integers(1, n - 1)), label="cuts")) if n > 1 else []


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(st.data())
def test_absorb_in_any_order_and_chunking_gives_the_regularized_inverse(data):
    d = data.draw(st.integers(1, 6), label="d")
    m = data.draw(st.integers(1, 12), label="m")
    z = data.draw(arrays(np.float64, (m, d), elements=TENTHS), label="Z")
    alpha = data.draw(st.sampled_from([0.1, 1.0, 10.0]), label="alpha")
    order = data.draw(st.permutations(range(m)), label="order")
    proj = Projector(d, alpha)
    for part in np.split(z[order], splits(data, m)):
        proj.absorb(part)
    want = alpha * np.linalg.inv(alpha * np.eye(d) + z.T @ z)
    np.testing.assert_allclose(proj.P, want, rtol=0, atol=1e-9)


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(st.data())
def test_pool_over_any_split_is_the_sample_weighted_mean(data):
    h = data.draw(st.integers(1, 5), label="h")
    c = data.draw(st.integers(1, 4), label="c")
    n = data.draw(st.integers(1, 12), label="n")
    head = DecisionHead(h, mu=1.0)
    for _ in range(c):
        expand_head(head)
    head.weights = data.draw(arrays(np.float64, (h, c), elements=TENTHS), label="W")
    H = data.draw(arrays(np.float64, (n, h), elements=TENTHS), label="H")
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, c - 1)), label="labels")
    cuts = splits(data, n)
    sessions = [fisher_diag(head, Hs, ys)
                for Hs, ys in zip(np.split(H, cuts), np.split(labels, cuts))]
    for est in sessions:
        head.pool(est)
    assert head.pending.sample_count == n
    want = sum(e.diag * e.sample_count for e in sessions) / n
    np.testing.assert_allclose(head.pending.diag, want, rtol=1e-12, atol=0)
    # a fixed head's per-session means pool to the whole class's estimate
    np.testing.assert_allclose(head.pending.diag, fisher_diag(head, H, labels).diag,
                               rtol=1e-12, atol=0)


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(st.data())
def test_one_window_over_the_plan_equals_per_step_windows(data):
    n = data.draw(st.integers(1, 40), label="n")
    c = data.draw(st.integers(2, 4), label="classes")
    model = Model(RunConfig.from_dict({
        "seed": data.draw(st.integers(0, 2**16), label="seed"),
        "mode": data.draw(st.sampled_from(MODES), label="mode"),
        "encoder": {"n": 2, "L": data.draw(st.integers(1, 4), label="L")},
        "fusion": {"width": data.draw(st.integers(1, 6), label="width")},
        "consolidation": {"batch_size": data.draw(st.integers(1, 16), label="batch_size"),
                          "epochs_per_session": data.draw(st.integers(1, 4), label="epochs"),
                          "max_steps_per_session": data.draw(st.integers(1, 20), label="steps")},
    }))
    d, h = model.fusion.weights.shape
    # a projector and a head that earlier sessions and classes have shaped
    past = data.draw(arrays(np.float64, (data.draw(st.integers(1, 2 * d)), d), elements=UNIT))
    model.fusion.projector.absorb(past)
    for _ in range(c):
        expand_head(model.head)
    model.head.weights = data.draw(arrays(np.float64, (h, c), elements=UNIT), label="W")
    model.head.anchor = data.draw(arrays(np.float64, (h, c - 1), elements=UNIT), label="anchor")
    # below the head_lr * mu * fisher < 1 stability bound
    model.head.fisher_sum = data.draw(
        arrays(np.float64, (h, c), elements=st.integers(0, 3).map(lambda k: k / 10)))
    if model.head_projector is not None:
        model.head_projector.absorb(data.draw(arrays(np.float64, (c, h), elements=UNIT)))
    feats = data.draw(arrays(np.float64, (n, d), elements=UNIT), label="feats")
    labels = np.full(n, c - 1, np.int64)
    states = []
    for pays in (True, False):
        twin = copy.deepcopy(model)
        with mock.patch.object(trainer, "_sample_space_pays", lambda *_, pays=pays: pays):
            twin._supervised_loop(feats, labels)
        states.append((twin.fusion.weights, twin.fusion.bias, twin.head.weights))
    for whole, per_step in zip(*states):
        np.testing.assert_allclose(whole, per_step, rtol=1e-9,
                                   atol=1e-9 * float(np.abs(per_step).max()))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(n=st.integers(1, 2000), batch_size=st.integers(1, 128),
                  epochs=st.integers(1, 8), steps=st.integers(1, 60),
                  d=st.integers(1, 800), h=st.integers(1, 300))
@hypothesis.example(n=64, batch_size=64, epochs=8, steps=60, d=600, h=200)
@hypothesis.example(n=650, batch_size=64, epochs=8, steps=60, d=600, h=200)
def test_sample_space_pays_when_one_window_costs_fewer_multiply_adds(
        n, batch_size, epochs, steps, d, h):
    cfg = ConsolidationConfig(batch_size=batch_size, epochs_per_session=epochs,
                              max_steps_per_session=steps)
    plan = trainer._step_plan(np.random.default_rng(0), n, cfg)
    # per-step windows: each step's pre-activations Z[idx] W and its write (Z P)[idx]^T A
    per_step = sum(2 * len(idx) * d * h for idx in plan)
    # one window over all n rows: pre-activations, the n x n kernel when the
    # plan has more than one step, each step's kernel[idx] @ A, and one write
    whole = n * d * h + (n * n * d if len(plan) > 1 else 0)
    whole += sum(len(idx) * n * h for idx in plan) + d * n * h
    visits = sum(map(len, plan))
    assert trainer._sample_space_pays(n, visits, d, h) == (whole < per_step)
