import re

import numpy as np
import pytest

from mvcil.consolidation import (
    IMPRINT_SCALE,
    DecisionHead,
    FisherEstimate,
    end_of_class,
    expand_head,
    fisher_diag,
    softmax,
    swc_loss_and_grad,
)


def make_head(hidden_dim, n_classes, mu=0.0, seed=0):
    head = DecisionHead(hidden_dim, mu=mu)
    for _ in range(n_classes):
        expand_head(head)
    rng = np.random.default_rng(seed)
    head.weights = rng.standard_normal((hidden_dim, n_classes)) * 0.3
    return head


def test_untrained_two_class_head_is_uniform():
    head = DecisionHead(4, mu=0.0)
    expand_head(head)
    expand_head(head)
    probs = softmax(head.logits(np.ones((3, 4))))
    assert np.allclose(probs, 0.5)


def test_single_class_softmax_is_degenerate():
    head = DecisionHead(5, mu=1000.0)
    expand_head(head)
    H = np.random.default_rng(0).standard_normal((7, 5))
    probs = softmax(head.logits(H))
    assert np.allclose(probs, 1.0)
    grads = swc_loss_and_grad(head, H, np.zeros(7, dtype=int))
    assert grads.loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grads.grad_w, 0.0)


def test_softmax_shift_invariant_and_stable():
    z = np.array([[1e4, 1e4 + 1.0], [-1e4, -1e4 + 2.0]])
    p = softmax(z)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0)
    assert p[0, 1] > p[0, 0]


def test_hand_fisher_quarter():
    # zero 2-class head, unit hidden, one sample: p = [.5, .5],
    # delta = [-.5, .5], fisher per weight = (1^2) * (0.5^2) = 0.25
    head = DecisionHead(3, mu=0.0)
    expand_head(head)
    expand_head(head)
    est = fisher_diag(head, np.ones((1, 3)), np.array([0]))
    assert est.sample_count == 1
    assert np.allclose(est.diag, 0.25)


def test_fisher_matches_per_sample_brute_force(rng):
    head = make_head(4, 3, seed=2)
    H = rng.standard_normal((9, 4))
    labels = rng.integers(0, 3, size=9)
    est = fisher_diag(head, H, labels)
    probs = softmax(head.logits(H))
    acc = np.zeros_like(head.weights)
    for i in range(9):
        delta = probs[i].copy()
        delta[labels[i]] -= 1.0
        g = np.outer(H[i], delta)  # d log p(y_i) / dW up to sign
        acc += g * g
    assert np.allclose(est.diag, acc / 9, atol=1e-12)


def test_fisher_validation(rng):
    head = make_head(3, 2)
    with pytest.raises(ValueError):
        fisher_diag(head, np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        FisherEstimate(diag=np.array([[-1.0]]), sample_count=1)
    with pytest.raises(ValueError):
        FisherEstimate(diag=np.zeros((2, 2)), sample_count=0)


def fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f()
        x[idx] = orig - eps
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def test_swc_gradients_match_central_differences(rng):
    head = make_head(4, 3, mu=50.0, seed=3)
    head.anchor = rng.standard_normal((4, 2)) * 0.2
    head.fisher_sum = np.abs(rng.standard_normal((4, 3))) * 0.1
    H = rng.standard_normal((6, 4))
    labels = rng.integers(0, 3, size=6)

    grads = swc_loss_and_grad(head, H, labels)

    gw = fd_grad(lambda: swc_loss_and_grad(head, H, labels).loss, head.weights)
    gh = fd_grad(lambda: swc_loss_and_grad(head, H, labels).loss, H)
    assert np.allclose(grads.grad_w, gw, atol=1e-6)
    assert np.allclose(grads.grad_hidden, gh, atol=1e-6)


def test_mu_zero_is_plain_cross_entropy(rng):
    head = make_head(4, 3, mu=0.0, seed=4)
    head.anchor = rng.standard_normal((4, 2))
    head.fisher_sum = np.abs(rng.standard_normal((4, 3)))
    H = rng.standard_normal((5, 4))
    labels = rng.integers(0, 3, size=5)
    grads = swc_loss_and_grad(head, H, labels)
    probs = softmax(head.logits(H))
    ce = -np.mean(np.log(probs[np.arange(5), labels]))
    assert grads.loss == pytest.approx(ce)


def test_huge_mu_pins_anchored_columns(rng):
    # lr * mu * fisher must stay below 1 or the quadratic penalty oscillates
    head = make_head(6, 3, mu=1e4, seed=5)
    head.anchor = head.weights[:, :2].copy()
    head.fisher_sum = np.full((6, 3), 0.1)
    H = rng.standard_normal((20, 6))
    labels = rng.integers(0, 3, size=20)
    lr = 1e-4
    start_free = head.weights[:, 2].copy()
    for _ in range(200):
        g = swc_loss_and_grad(head, H, labels)
        head.weights = head.weights - lr * g.grad_w
    drift = np.abs(head.weights[:, :2] - head.anchor).max()
    assert drift < 1e-3
    # the unanchored column is free to move
    assert np.abs(head.weights[:, 2] - start_free).max() > 1e-4


def test_label_range_validation(rng):
    head = make_head(3, 2)
    H = rng.standard_normal((4, 3))
    with pytest.raises(ValueError):
        swc_loss_and_grad(head, H, np.array([0, 1, 2, 0]))
    with pytest.raises(ValueError):
        swc_loss_and_grad(head, np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_expand_head_contract():
    head = DecisionHead(4, mu=1.0)
    expand_head(head)
    head.weights[:, 0] = 1.5
    H = np.random.default_rng(1).standard_normal((3, 4))
    z_before = head.logits(H)[:, :1].copy()
    expand_head(head)
    z_after = head.logits(H)
    # identical up to matmul summation order
    assert np.allclose(z_after[:, :1], z_before, rtol=0, atol=1e-14)
    assert np.array_equal(z_after[:, 1], np.zeros(3))
    assert head.fisher_sum.shape == (4, 2)


def test_expand_head_folds_a_pending_fisher_estimate(rng):
    # a new column closes the class in progress: its estimate joins the
    # running sum over the columns it covers, and the anchor moves to the
    # weights that class ended with
    head = make_head(3, 2, mu=1.0, seed=4)
    est = fisher_diag(head, rng.standard_normal((5, 3)), rng.integers(0, 2, 5))
    head.pool(est)
    weights = head.weights.copy()
    expand_head(head)
    assert head.pending is None
    assert np.array_equal(head.fisher_sum, np.hstack([est.diag, np.zeros((3, 1))]))
    assert np.array_equal(head.anchor, weights)
    assert np.array_equal(head.weights, np.hstack([weights, np.zeros((3, 1))]))
    head.pool(fisher_diag(head, rng.standard_normal((5, 3)), rng.integers(0, 3, 5)))
    assert head.pending.diag.shape == (3, 3)


def test_imprint_seeds_only_the_newest_column(rng):
    head = make_head(4, 2, seed=7)
    first = head.weights[:, 0].copy()
    m = rng.standard_normal(4)
    head.imprint(m)
    assert np.array_equal(head.weights[:, 0], first)
    np.testing.assert_allclose(m @ head.weights[:, 1], IMPRINT_SCALE, rtol=1e-12)
    expand_head(head)
    head.imprint(np.zeros(4))  # no direction to seed: the column stays zero
    assert np.array_equal(head.weights[:, 2], np.zeros(4))


def test_end_of_class_accumulates_and_recenters(rng):
    head = make_head(3, 2, mu=1.0, seed=6)
    est1 = fisher_diag(head, rng.standard_normal((5, 3)), rng.integers(0, 2, 5))
    head.pool(est1)
    end_of_class(head)
    assert np.array_equal(head.anchor, head.weights)
    assert np.allclose(head.fisher_sum, est1.diag)
    assert head.pending is None
    # nothing pooled since: the head is left as it is, anchor included
    head.weights[:, 0] += 0.5
    before = [a.copy() for a in (head.weights, head.anchor, head.fisher_sum)]
    end_of_class(head)
    for now, then in zip((head.weights, head.anchor, head.fisher_sum), before):
        assert np.array_equal(now, then)
    expand_head(head)
    head.weights[:, 2] = 0.7
    est2 = fisher_diag(head, rng.standard_normal((5, 3)), rng.integers(0, 3, 5))
    head.pool(est2)
    end_of_class(head)
    assert np.allclose(head.fisher_sum[:, :2], est1.diag + est2.diag[:, :2])
    assert np.array_equal(head.anchor[:, 2], head.weights[:, 2])


def test_pool_refuses_a_shape_mismatch():
    head = make_head(3, 2)
    bad = FisherEstimate(diag=np.zeros((3, 1)), sample_count=2)
    with pytest.raises(ValueError, match="does not match head"):
        head.pool(bad)
    assert head.pending is None


def test_head_validation():
    with pytest.raises(ValueError):
        DecisionHead(0)
    with pytest.raises(ValueError):
        DecisionHead(3, mu=-1.0)
    head = DecisionHead(3)
    with pytest.raises(ValueError):
        head.logits(np.zeros((2, 3)))  # no classes yet
    expand_head(head)
    for shape in ((2, 4), (3,)):  # a wrong width, a single vector
        with pytest.raises(ValueError, match=re.escape(
                f"expected hidden width 3, got shape {shape}")):
            head.logits(np.zeros(shape))
