"""Phase III: expandable softmax head with selective weight consolidation.

The head grows one zero-initialized column per new class. At each class
boundary the current weights become the anchor and the class's diagonal
Fisher estimate is added to a single running sum, so the quadratic penalty
(mu/2) * sum fisher_sum * (W - anchor)^2 needs O(h * C) memory no matter
how many classes have passed. The head is weights only: logits are H @ W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class FisherEstimate:
    """Diagonal empirical Fisher over N_t samples."""

    diag: np.ndarray  # [h x C_seen], per-weight
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("Fisher estimate needs at least one sample")
        if np.any(self.diag < 0):
            raise ValueError("Fisher diagonal must be nonnegative")


class HeadGradients(NamedTuple):
    loss: float
    grad_w: np.ndarray
    grad_hidden: np.ndarray


class DecisionHead:
    """Softmax output layer over hidden dim h, expanded as classes arrive."""

    def __init__(self, hidden_dim: int, mu: float = 1000.0):
        if hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {hidden_dim}")
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        self.hidden_dim = hidden_dim
        self.mu = float(mu)
        self.weights = np.zeros((hidden_dim, 0))
        self.anchor = np.zeros((hidden_dim, 0))
        self.fisher_sum = np.zeros((hidden_dim, 0))

    @property
    def classes_seen(self) -> int:
        return self.weights.shape[1]

    @property
    def classes_consolidated(self) -> int:
        """Columns anchored so far; end_of_class widens the anchor."""
        return self.anchor.shape[1]

    def logits(self, H: np.ndarray) -> np.ndarray:
        H = np.asarray(H, dtype=np.float64)
        if H.ndim != 2 or H.shape[1] != self.hidden_dim:
            raise ValueError(
                f"expected hidden width {self.hidden_dim}, got shape {H.shape}"
            )
        if self.classes_seen == 0:
            raise ValueError("head has no classes yet; call expand_head first")
        return H @ self.weights


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def expand_head(head: DecisionHead) -> None:
    """Add one zero-initialized output column for the next class slot.

    Old columns, the anchor, and old fisher_sum entries are untouched, so
    logits of previously seen classes are unchanged afterwards.
    """
    h = head.hidden_dim
    head.weights = np.hstack([head.weights, np.zeros((h, 1))])
    head.fisher_sum = np.hstack([head.fisher_sum, np.zeros((h, 1))])


def fisher_diag(head: DecisionHead, H: np.ndarray, labels: np.ndarray) -> FisherEstimate:
    """Empirical diagonal Fisher of the output weights over the batch.

    Per weight (i, j): mean over samples of ((softmax - onehot)[j] * H[i])^2,
    the squared gradient of the conditional log-likelihood.
    """
    H = np.asarray(H, dtype=np.float64)
    labels = np.asarray(labels)
    if H.shape[0] == 0:
        raise ValueError("Fisher estimate needs a nonempty batch")
    delta = softmax(head.logits(H))
    delta[np.arange(H.shape[0]), labels] -= 1.0
    diag = (H * H).T @ (delta * delta) / H.shape[0]
    return FisherEstimate(diag=diag, sample_count=H.shape[0])


def swc_loss_and_grad(head: DecisionHead, H: np.ndarray, labels: np.ndarray) -> HeadGradients:
    """Cross-entropy plus the consolidation penalty; analytic gradients.

    loss = mean CE + (mu/2) * sum fisher_sum * (W - anchor)^2 over anchor
    columns (previously seen classes); the gradient adds
    mu * fisher_sum * (W - anchor) there. grad_hidden backpropagates the CE
    term into the fusion stage.
    """
    H = np.asarray(H, dtype=np.float64)
    labels = np.asarray(labels)
    n = H.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= head.classes_seen:
        raise ValueError(
            f"labels must lie in [0, {head.classes_seen}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    # the softmax, turned in place into the CE gradient wrt the logits
    delta = softmax(head.logits(H))
    eps = 1e-300  # guards log(0) for a fully confident wrong prediction
    ce = -float(np.mean(np.log(delta[np.arange(n), labels] + eps)))
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad_w = H.T @ delta
    grad_hidden = delta @ head.weights.T

    loss = ce
    c_anchor = head.anchor.shape[1]
    if head.mu > 0 and c_anchor > 0:
        drift = head.weights[:, :c_anchor] - head.anchor
        fsum = head.fisher_sum[:, :c_anchor]
        loss = ce + 0.5 * head.mu * float(np.sum(fsum * drift * drift))
        grad_w[:, :c_anchor] += head.mu * fsum * drift
    return HeadGradients(loss=loss, grad_w=grad_w, grad_hidden=grad_hidden)


def end_of_class(head: DecisionHead, fisher: FisherEstimate) -> None:
    """Fold the class's Fisher into the running sum and re-center the anchor."""
    if head.classes_consolidated >= head.classes_seen:
        raise ValueError(
            f"end_of_class already ran for class {head.classes_seen - 1}"
        )
    if fisher.diag.shape != head.fisher_sum.shape:
        raise ValueError(
            f"Fisher shape {fisher.diag.shape} does not match head {head.fisher_sum.shape}"
        )
    head.fisher_sum = head.fisher_sum + fisher.diag
    head.anchor = head.weights.copy()
